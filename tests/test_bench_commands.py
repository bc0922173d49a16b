"""The benchmark's command lines must stay valid for the CLI.

perfbench/run.py runs fixed `o3cp1` command lines. A CLI change that drops or
renames an option they use would otherwise show only as a failed benchmark
run; here it fails a test instead.
"""

import importlib.util
from pathlib import Path

from o3cp1 import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports checks and gammamethod
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_benchmark_command_parses(monkeypatch):
    run = load_run(monkeypatch)
    parser = cli.build_parser()
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        commands = workload.commands(1)
        assert commands, name
        for _, argv in commands:
            # an unknown flag exits through the parser, a bad value raises UsageError
            cli._options(parser.parse_args(argv))
