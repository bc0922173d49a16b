"""The benchmark's command lines and set-up probe must stay valid for the package.

perfbench/run.py runs fixed `o3cp1` command lines, and times set-up with
perfbench/probes.py, which initialises chains through mc.init_chain. A CLI
change that drops or renames an option they use, or an mc change that breaks
the probe, would otherwise show only as a failed benchmark run; here it fails
a test instead. README.md's CLI examples are held to the same rule.
"""

import importlib.util
import shlex
import subprocess
import sys
from pathlib import Path

from o3cp1 import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
README = PERFBENCH.parent / "README.md"


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


def test_every_readme_cli_example_parses():
    examples = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                if line.startswith("o3cp1 ")]
    assert examples
    parser = cli.build_parser()
    for argv in examples:
        cli._options(parser.parse_args(argv))


def test_every_set_up_probe_runs(monkeypatch, cli_env, tmp_path):
    run = load_run(monkeypatch)
    for name, workload in run.WORKLOADS.items():
        dims, models, g = workload.setup_args()
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "probes.py"), "setup", dims, models, "1", g],
            cwd=tmp_path, env=cli_env, capture_output=True, text=True)
        assert proc.returncode == 0, (name, proc.stderr)
