import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from o3cp1 import actions, cli, measure
from o3cp1.mc import FLAVOURS, LAW, two_site_exact
from references import edit


def run_cli(args, cwd, env, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "o3cp1.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def assert_cli_error(proc, code, *fragments):
    """The child exited with `code` after printing the CLI's one-line error.

    An interpreter failure (say, the package not importable) also exits
    nonzero, but prints a traceback or a line not starting with `error: `.
    """
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    for fragment in fragments:
        assert fragment in lines[0]


def test_cli_import_leaves_scipy_unloaded(cli_env):
    # sample and compare need no scipy, and importing it dominates start-up
    code = "import sys, o3cp1.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_leaves_scipy_unloaded(tmp_path, cli_env):
    # verify's quadratures and erfc need no scipy, so scipy.stats stays unloaded too
    code = ("import sys, o3cp1.cli; code = o3cp1.cli.main(['verify', '--suite', 'all']); "
            "print(code, 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=cli_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_parse_dims_and_eps():
    assert cli._parse_dims("8x8") == [8, 8]
    assert cli._parse_dims("4") == [4]
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_dims("8x1")
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_dims("abc")
    # the mollifier ladder is a constant of verify, not an option
    assert "eps" not in cli.OPTIONS["verify"]


def test_tolerance_override_parsing():
    def sigma(*items):
        argv = ["compare", "--seed", "1", *(a for item in items for a in ("--tol", item))]
        return vars(cli.build_parser().parse_args(argv))["tol"]

    assert sigma() == 3.0
    assert sigma("sigma=6") == 6.0
    assert sigma("sigma=0", "sigma=1.5") == 1.5  # the last flag wins
    # compare names only the tolerance it reads
    for item in ("jacobian=5", "nope=1", "sigma"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_sigma(item)


def test_cli_error_check_rejects_interpreter_failure():
    # what the child prints when o3cp1 is not importable, under the CLI's exit code
    stderr = (
        f"{sys.executable}: Error while finding module specification for "
        "'o3cp1.cli' (ModuleNotFoundError: No module named 'o3cp1')\n"
    )
    proc = subprocess.CompletedProcess([], 2, "", stderr)
    with pytest.raises(AssertionError):
        assert_cli_error(proc, 2, "o3cp1")
    ok = subprocess.CompletedProcess([], 2, "", "error: invalid value for g: -1.0\n")
    assert_cli_error(ok, 2, "invalid value for g")


def test_sample_rejects_negative_g(tmp_path, cli_env):
    proc = run_cli(["sample", "--g", "-1", "--seed", "1"], tmp_path, cli_env)
    assert_cli_error(proc, 2, "invalid value for g")


def test_sample_requires_seed(tmp_path, cli_env):
    proc = run_cli(
        ["sample", "--model", "o3", "--dims", "4x4", "--g", "1"], tmp_path, cli_env
    )
    assert_cli_error(proc, 2, "seed")


@pytest.mark.parametrize(
    "args, code, fragment",
    [
        # verify has no eps option and sample no delta0, and compare refuses a
        # tolerance it does not read
        (["verify", "--suite", "measure-constant", "--eps", "0.1,0.05,0.025"], 2,
         "unrecognized arguments: --eps"),
        (["sample", "--dims", "2", "--seed", "1", "--sweeps", "0"], 2, "sweeps"),
        (["sample", "--dims", "2", "--seed", "1", "--sweeps", "-1"], 2, "sweeps"),
        (["sample", "--dims", "2", "--seed", "1", "--thermalization", "-5"], 2,
         "thermalization"),
        (["compare", "--dims", "2", "--seed", "1", "--tol", "sigma=abc"], 2,
         "tolerance sigma"),
        # a gate that would make the comparison meaningless
        (["compare", "--dims", "2", "--seed", "1", "--tol", "sigma=nan"], 2,
         "tolerance sigma: nan"),
        (["sample", "--dims", "2", "--seed", "1", "--sweeps", "abc"], 2, "sweeps: 'abc'"),
        (["sample", "--dims", "2", "--seed", "1", "--sweeps", "30.7"], 2, "sweeps: '30.7'"),
        (["verify", "--suite", "prefactor", "--seed", "abc"], 2, "seed: 'abc'"),
        (["sample", "--dims", "2", "--seed", "-1"], 2, "seed: -1"),
        (["verify", "--suite", "prefactor", "--seed", "-1"], 2, "seed: -1"),
        (["sample", "--dims", "2", "--seed", "1", "--g", "inf"], 2, "g: inf"),
        (["sample", "--dims", "2", "--seed", "1", "--delta0", "0.5"], 2,
         "unrecognized arguments: --delta0"),
        (["compare", "--dims", "2", "--seed", "1", "--tol", "jacobian=5"], 2,
         "unknown tolerance 'jacobian'"),
        (["compare", "--dims", "2", "--seed", "1", "--threads", "0"], 2, "threads: 0"),
        (["sample", "--dims", "2", "--seed", "1", "--volume", "3"], 2, "--volume"),
        (["verify", "--suite", "prefactor", "--out", "no/such/dir/r.json"], 1, "no/such/dir"),
        # lattices whose tables numpy refuses outright: nothing is allocated
        (["sample", "--dims", "4294967296x4294967296", "--seed", "1"], 1,
         "18446744073709551616 sites"),
        (["sample", "--dims", "3000000000x3000000000", "--seed", "1"], 1,
         "9000000000000000000 sites"),
        # options are flags only, and verify's tolerances are fixed
        (["verify", "--config", "x.json"], 2, "unrecognized arguments: --config"),
        (["sample", "--dims", "2", "--seed", "1", "--config", "x.json"], 2,
         "unrecognized arguments: --config"),
        (["verify", "--tol", "jacobian=1"], 2, "unrecognized arguments: --tol"),
        (["compare", "--dims", "2", "--seed", "1", "--tol", "sigma=-1"], 2,
         "tolerance sigma: -1.0"),
    ],
)
def test_domain_errors_are_one_line(tmp_path, cli_env, args, code, fragment):
    proc = run_cli(args, tmp_path, cli_env)
    assert_cli_error(proc, code, fragment)


@pytest.mark.parametrize("command", ["sample", "compare"])
@pytest.mark.parametrize("sweeps", ["1000000000000000", "10000000000000000000"])
def test_a_series_too_long_to_hold_fails_before_thermalization(tmp_path, cli_env, command,
                                                               sweeps):
    # 10^15 sweeps of five observables need more than a 47-bit address space
    # holds, and numpy refuses 10^19 rows outright. The default thermalization
    # is sweeps / 10, so the buffer must be allocated before it runs
    proc = run_cli([command, "--dims", "2", "--seed", "1", "--sweeps", sweeps], tmp_path,
                   cli_env, timeout=60)
    assert_cli_error(proc, 1, f"cannot allocate the series of {sweeps} sweeps")


@pytest.mark.parametrize("parent, reason", [("missing", "does not exist"),
                                            ("file", "is not a directory")])
@pytest.mark.parametrize("args, out", [
    (["verify"], "--out"),
    # a million sweeps on 8x8 take minutes, past the timeout
    (["sample", "--dims", "8x8", "--sweeps", "1000000", "--seed", "1"], "--out-prefix"),
    (["compare", "--dims", "8x8", "--sweeps", "1000000", "--seed", "1"], "--out-prefix"),
])
def test_an_unusable_output_directory_fails_before_any_work(tmp_path, cli_env, parent, reason,
                                                           args, out):
    (tmp_path / "file").write_text("")
    proc = run_cli(args + [out, f"{parent}/run"], tmp_path, cli_env, timeout=60)
    assert_cli_error(proc, 1, f"output directory {parent} {reason}")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("g", ["0.002", "0.001", "1e-4", "5e-324"])
def test_compare_refuses_an_unresolved_two_site_reference_before_sampling(tmp_path, cli_env, g):
    # five chains of a million two-site sweeps take minutes, past the timeout
    proc = run_cli(["compare", "--dims", "2", "--g", g, "--regime", "both", "--sweeps",
                    "1000000", "--seed", "1"], tmp_path, cli_env, timeout=60)
    assert_cli_error(proc, 1, f"does not resolve g = {float(g)!r}")
    assert list(tmp_path.iterdir()) == []


# a valid flag string of every option, not its default; None is a flag that takes no value
VALID_VALUES = {
    "suite": "prefactor",
    "seed": "12",
    "tol": "sigma=4",
    "out": "r.json",
    "model": "cp1-gauged",
    "dims": "4x6",
    "g": "0.5",
    "sweeps": "500",
    "thermalization": "7",
    "self-check": None,
    "out-prefix": "run",
    "regime": "both",
    "threads": "2",
}


@pytest.mark.parametrize(
    "command, name", [(c, n) for c, options in cli.OPTIONS.items() for n in options]
)
def test_every_option_parses_a_valid_flag(command, name):
    # every option parses a valid flag to a value that is not what the parser
    # gives without it; runs no chain: only the parser and the option table
    parser = cli.build_parser()
    flag = VALID_VALUES[name]
    seed = ["--seed", "1"] if name != "seed" else []
    argv = [command, *seed, f"--{name}", *([] if flag is None else [flag])]
    default = vars(parser.parse_args([command, "--seed", "1"]))[name]
    assert vars(parser.parse_args(argv))[name] != default


@pytest.mark.parametrize("command", list(cli.OPTIONS))
def test_help_names_every_option(capsys, command):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert flags == {"--help"} | {f"--{name}" for name in cli.OPTIONS[command]}


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_verify_suite_filter(tmp_path, cli_env, name):
    proc = run_cli(["verify", "--suite", name, "--out", "r.json"], tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    [row] = report["checks"]
    assert row["name"] == name
    assert report["passed"] is True
    assert report["config"]["tolerances"][name] == cli.CHECKS[name].tolerance == row["tolerance"]


def test_verify_unknown_suite(tmp_path, cli_env):
    proc = run_cli(["verify", "--suite", "spectral"], tmp_path, cli_env)
    assert_cli_error(proc, 2, "spectral")


def verify_rng(seed, name):
    """The generator verify --seed seed hands to check `name`."""
    return np.random.default_rng(np.random.SeedSequence([seed, cli.CHECKS[name].stream]))


def times(factor):
    """Mutant maker: the function's value times factor."""
    return lambda function: lambda *args: function(*args) * factor


def hopf_nz(deform):
    """Mutant maker of hopf_map: n_z replaced by deform(n_z)."""
    def mutant(hopf_map):
        def mapped(z):
            n = hopf_map(z).copy()
            n[..., 2] = deform(n[..., 2])
            return n
        return mapped
    return mutant


HOPF_MUTANTS = {
    "nz-times-1+1e-9": hopf_nz(lambda nz: nz * (1.0 + 1e-9)),
    "nz-plus-1e-3-P2": hopf_nz(lambda nz: nz + 1e-3 * (nz * nz - 1.0 / 3.0)),
}

# one named mutant per stage of the measure identity: (row, function, mutant maker)
STAGE_MUTANTS = {
    "raw-4d": ("measure-constant", "measure_lhs",  # the prefactor
               edit("/ (8.0 * r * s)", "/ (8.0 * r * s) * (1.0 + 1e-9)")),
    "after-R-theta": ("reduction-stages", "_stage_after_R_theta",  # the phi period
                      edit("4.0 * math.pi", "2.0 * math.pi")),
    "after-S": ("reduction-stages", "_stage_after_S",  # the phi period
                edit("2.0 * math.pi", "math.pi")),
    "after-phi": ("reduction-stages", "_stage_after_phi",  # a dropped root
                  edit("roots = (q, -q)", "roots = (q,)")),
}

# one named mutant per global action that lattice-actions reads: (module, function, mutant maker)
LATTICE_MUTANTS = {
    "sign-of-A": (cli, "action_cp1_gauged", edit("- 1j * gauge.a", "+ 1j * gauge.a")),
    "o3-over-2g": (cli, "action_o3", edit("/ (4.0 * g)", "/ (2.0 * g)")),
    "pullback-abs-w": (actions, "pullback_term",
                       edit("1.0 - (w.real**2 + w.imag**2)", "1.0 - np.sqrt(w.real**2 + w.imag**2)")),
}

# per verify row: (module, function, mutant maker) of a src/ function the row reads
ROW_MUTANTS = {
    "polar-identity": (actions, "polar_action_density", times(1.0 + 1e-9)),
    "jacobian": (cli, "jacobian_polar", times(1.0 + 1e-5)),
    "marginalization": (actions, "gauge_marginal_closed_form", times(1.0 + 1e-7)),
    "one-site-ratio": (measure, "hopf_map", HOPF_MUTANTS["nz-plus-1e-3-P2"]),
    "measure-constant": (measure, "jacobian_polar", times(1.0 + 1e-9)),
    "reduction-stages": (measure, "_stage_after_S",  # the prefactor
                         edit("math.pi / 4.0 * w", "math.pi / 4.0 * (1.0 + 1e-9) * w")),
    "pushforward": (measure, "hopf_map", HOPF_MUTANTS["nz-times-1+1e-9"]),
    "lattice-actions": LATTICE_MUTANTS["pullback-abs-w"],
    "prefactor": (cli, "partition_constants", lambda f: lambda lat, g: f(lat, g * (1.0 + 1e-9))),
}


@pytest.mark.parametrize("name", list(cli.CHECKS))
def test_every_verify_row_fails_its_named_mutant(monkeypatch, name):
    module, function, mutant = ROW_MUTANTS[name]
    monkeypatch.setattr(module, function, mutant(getattr(module, function)))
    row = cli.run_check(name, verify_rng(0, name))
    assert not row["pass"], row


def test_verify_fails_but_writes_report(tmp_path, monkeypatch, capsys):
    module, function, mutant = ROW_MUTANTS["jacobian"]
    monkeypatch.setattr(module, function, mutant(getattr(module, function)))
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--suite", "jacobian", "--out", str(out)]) == 1
    assert "[FAIL] jacobian" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["passed"] is False
    assert report["checks"][0]["tolerance"] == cli.CHECKS["jacobian"].tolerance


def test_pushforward_passes_at_every_seed():
    # the two KS tests it replaced failed at 8 of these seeds, 4 and 13 among them
    for seed in range(200):
        row = cli.run_check("pushforward", verify_rng(seed, "pushforward"))
        assert row["pass"] and row["value"] <= 1e-13, (seed, row["value"])


@pytest.mark.parametrize("mutant", list(HOPF_MUTANTS.values()), ids=list(HOPF_MUTANTS))
def test_pushforward_fails_the_hopf_mutants_at_every_seed(monkeypatch, mutant):
    # the KS tests caught the P2 mutant at about the chance rate
    monkeypatch.setattr(measure, "hopf_map", mutant(measure.hopf_map))
    for seed in range(200):
        row = cli.run_check("pushforward", verify_rng(seed, "pushforward"))
        assert not row["pass"], seed


def test_verify_passes_at_every_seed():
    for seed in range(200):
        report, code = cli.run_verify({"suite": "all", "seed": seed})
        assert code == 0, (seed, [c["name"] for c in report["checks"] if not c["pass"]])


@pytest.mark.parametrize("name", [n for n, c in cli.CHECKS.items() if c.stream == 0])
def test_rows_of_stream_zero_draw_nothing(name):
    # so their row, and each mutant's, is the same at every seed
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    cli.run_check(name, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("degree", [6, 10])
def test_every_stage_is_exact(degree):
    stages = {"raw-4d": measure.verify_constant_c(degree), **measure.reduction_consistency(degree)}
    assert list(stages) == list(measure.STAGES)
    for stage, res in stages.items():
        assert res.max_gap <= 1e-13, (stage, res)


@pytest.mark.parametrize("stage", list(STAGE_MUTANTS))
def test_each_stage_fails_its_named_mutant(monkeypatch, stage):
    # each mutant reads about 1e-8 (the prefactor) or 4.9 (the others), and
    # moves only its own stage; the rows draw nothing, so this holds at every seed
    row_name, function, mutant = STAGE_MUTANTS[stage]
    monkeypatch.setattr(measure, function, mutant(getattr(measure, function)))
    row = cli.run_check(row_name, verify_rng(0, row_name))
    assert not row["pass"], row
    if row_name == "measure-constant":
        assert row["diagnostics"]["max_gap"] > 1e-9 * math.pi**2 / 2
        assert cli.run_check("reduction-stages", verify_rng(0, "reduction-stages"))["pass"]
    else:
        gaps = row["diagnostics"]["stage_max_gap"]
        assert gaps[stage] > 4.0
        assert all(gap <= row["tolerance"] for other, gap in gaps.items() if other != stage)
        assert cli.run_check("measure-constant", verify_rng(0, "measure-constant"))["pass"]


@pytest.mark.parametrize("name", list(LATTICE_MUTANTS))
def test_lattice_actions_fail_each_named_mutant_at_every_seed(monkeypatch, name):
    module, function, mutant = LATTICE_MUTANTS[name]
    monkeypatch.setattr(module, function, mutant(getattr(module, function)))
    for seed in range(200):
        row = cli.run_check("lattice-actions", verify_rng(seed, "lattice-actions"))
        assert not row["pass"], (seed, row["diagnostics"])


def test_reduction_stages_honours_the_tolerance_it_is_given(monkeypatch):
    # a tol passed in was once dropped silently; the mutant's after-S gap is about 1e-8
    module, function, mutant = ROW_MUTANTS["reduction-stages"]
    monkeypatch.setattr(module, function, mutant(getattr(module, function)))
    for tol, passes in ((None, False), (1e-6, True)):
        row = cli.run_check("reduction-stages", np.random.default_rng(0), tol)
        assert row["pass"] is passes
        assert row["tolerance"] == (cli.CHECKS["reduction-stages"].tolerance if tol is None else tol)


def test_report_schema_golden(tmp_path, cli_env):
    proc = run_cli(
        ["verify", "--suite", "prefactor", "--out", "r.json"], tmp_path, cli_env
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert sorted(report.keys()) == ["checks", "command", "config", "passed"]
    row = report["checks"][0]
    assert sorted(row.keys()) == [
        "diagnostics", "inputs", "name", "pass", "reference", "tolerance", "value",
    ]
    assert sorted(report["config"].keys()) == ["seed", "suite", "tolerances"]
    # every check's tolerance, whichever checks ran, and no other: compare's sigma is not among them
    assert report["config"]["tolerances"] == {n: c.tolerance for n, c in cli.CHECKS.items()}


def test_sample_outputs_and_schema(tmp_path, cli_env):
    proc = run_cli(
        ["sample", "--model", "cp1-gauged", "--dims", "2", "--g", "1.0",
         "--sweeps", "400", "--thermalization", "50", "--seed", "11",
         "--out-prefix", "out"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    csv_text = (tmp_path / "out_series.csv").read_text().splitlines()
    assert csv_text[0] == "sweep,observable,value"
    summary = json.loads((tmp_path / "out_summary.json").read_text())
    assert summary["config"]["model"] == "cp1-gauged-reduced"
    assert summary["config"]["seed"] == 11
    assert "corr_r1" in summary["chain"]["observables"]
    # final-configuration snapshots, documented column order
    field_lines = (tmp_path / "out_field.csv").read_text().splitlines()
    assert field_lines[0] == "site,re1,im1,re2,im2"
    gauge_lines = (tmp_path / "out_gauge.csv").read_text().splitlines()
    assert gauge_lines[0] == "site,mu,a"


def test_sample_csv_determinism(tmp_path, cli_env):
    args = ["sample", "--model", "o3", "--dims", "4x4", "--g", "1.0",
            "--sweeps", "300", "--thermalization", "50", "--seed", "42"]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    assert run_cli(args + ["--out-prefix", "x"], a_dir, cli_env).returncode == 0
    assert run_cli(args + ["--out-prefix", "x"], b_dir, cli_env).returncode == 0
    assert (a_dir / "x_series.csv").read_bytes() == (b_dir / "x_series.csv").read_bytes()
    assert (a_dir / "x_summary.json").read_bytes() == (b_dir / "x_summary.json").read_bytes()


def test_verify_report_determinism(tmp_path, cli_env):
    args = ["verify", "--suite", "all", "--seed", "17", "--out", "report.json"]
    reports = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        proc = run_cli(args, d, cli_env)
        assert proc.returncode == 0, proc.stderr
        reports.append((d / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_compare_two_site_includes_oracle(tmp_path, cli_env):
    proc = run_cli(
        ["compare", "--dims", "2", "--g", "1.0", "--sweeps", "3000",
         "--thermalization", "300", "--seed", "5", "--out-prefix", "c"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "c_report.json").read_text())
    assert report["passed"] is True
    assert len(report["two_site_oracle"]) == 3
    for row in report["two_site_oracle"]:
        assert row["pass"] is True
    csv_head = (tmp_path / "c_series.csv").read_text().splitlines()[0]
    assert csv_head == "chain,sweep,observable,value"


def test_compare_names_chains_pinned_at_the_delta_floor(tmp_path, cli_env):
    # at tiny g every proposal is rejected until tuning clips delta to its floor;
    # three sites, as the two-site reference does not resolve such a g
    proc = run_cli(
        ["compare", "--dims", "3", "--g", "1e-12", "--sweeps", "1000",
         "--thermalization", "1000", "--seed", "1", "--out-prefix", "frozen"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 1, proc.stderr
    chains = json.loads((tmp_path / "frozen_report.json").read_text())["chains"]
    assert [c["delta_pinned"] for c in chains.values()] == ["floor"] * 3
    warnings = [line for line in proc.stderr.splitlines() if "floor" in line]
    assert len(warnings) == 1 and all(m in warnings[0] for m in chains)
    proc = run_cli(
        ["compare", "--dims", "2", "--g", "1.0", "--sweeps", "1000",
         "--thermalization", "300", "--seed", "5", "--out-prefix", "moving"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert "floor" not in proc.stderr
    chains = json.loads((tmp_path / "moving_report.json").read_text())["chains"]
    assert all(c["delta_pinned"] != "floor" for c in chains.values())
    # sample names its one chain through the same warning
    for g, prefix in (("1e-12", "frozen"), ("1.0", "moving")):
        proc = run_cli(
            ["sample", "--model", "cp1-pullback", "--dims", "2", "--g", g, "--sweeps", "1000",
             "--thermalization", "1000", "--seed", "1", "--out-prefix", prefix],
            tmp_path,
            cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        chain = json.loads((tmp_path / f"{prefix}_summary.json").read_text())["chain"]
        warnings = [line for line in proc.stderr.splitlines() if "floor" in line]
        if prefix == "frozen":
            assert chain["delta_pinned"] == "floor"
            assert len(warnings) == 1 and "cp1-pullback" in warnings[0]
        else:
            assert chain["delta_pinned"] != "floor" and not warnings


def test_sample_at_a_tiny_coupling_has_finite_error_bars(tmp_path, cli_env):
    # energy = ndim (1 - corr_r1) / 2g is near 1e297 here: its deviations
    # overflow when squared unless the jackknife rescales
    proc = run_cli(
        ["sample", "--dims", "2", "--seed", "1", "--g", "1e-300", "--sweeps", "200",
         "--thermalization", "10", "--out-prefix", "tiny"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    observables = json.loads((tmp_path / "tiny_summary.json").read_text())["chain"]["observables"]
    assert observables["energy"]["error"] is not None
    assert all(o["error"] is not None for o in observables.values())


def test_compare_regime_validation(tmp_path, cli_env):
    proc = run_cli(
        ["compare", "--dims", "2", "--g", "1.0", "--seed", "1",
         "--regime", "sideways"],
        tmp_path,
        cli_env,
    )
    assert_cli_error(proc, 2, "sideways")


def test_compare_reduced_regime_gates_only_the_pair(tmp_path, cli_env):
    proc = run_cli(
        ["compare", "--dims", "2", "--g", "1.0", "--sweeps", "3000",
         "--thermalization", "300", "--seed", "6", "--regime", "reduced",
         "--out-prefix", "r"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "r_report.json").read_text())
    gated = [(r["chain_a"], r["chain_b"]) for r in report["comparisons"] if r["gated"]]
    assert set(gated) == {("cp1-reduced", "cp1-gauged-reduced")}
    ungated = [r for r in report["comparisons"] if not r["gated"]]
    assert ungated and all(r["pass"] is None for r in ungated)


def test_compare_refuses_error_bars_with_too_few_bins(tmp_path, cli_env):
    proc = run_cli(
        ["compare", "--dims", "2", "--g", "1.0", "--sweeps", "10",
         "--thermalization", "10", "--seed", "3"],
        tmp_path,
        cli_env,
    )
    assert_cli_error(proc, 1, "bins")
    # the bin count follows from --sweeps alone, so the refusal comes before
    # sampling: three chains of 1019 sweeps on 128x128 would take about 45 s
    start = time.perf_counter()
    proc = run_cli(["compare", "--dims", "128x128", "--sweeps", "19", "--seed", "3"],
                   tmp_path, cli_env)
    elapsed = time.perf_counter() - start
    assert_cli_error(proc, 1, "jackknife needs >= 20 bins, got 19")
    assert not list(tmp_path.iterdir())  # no series file, no report
    assert elapsed < 15


def test_sample_with_too_few_bins_reports_null_errors(tmp_path, cli_env):
    # 10 sweeps make 10 bins of one sweep: means, but no jackknife error bars
    proc = run_cli(
        ["sample", "--dims", "2", "--sweeps", "10", "--thermalization", "5", "--seed", "3",
         "--out-prefix", "few"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    observables = load_strict_json(tmp_path / "few_summary.json")["chain"]["observables"]
    assert observables
    for entry in observables.values():
        assert math.isfinite(entry["mean"])
        assert entry["error"] is None
        assert entry["bins"] == 10


def chain(model, mean, error):
    """A stand-in chain result with one corr_r1 estimate."""
    return SimpleNamespace(model=model, estimates={"corr_r1": (mean, error)})


def test_one_gate_for_pair_rows_and_oracle_rows():
    # a zero sigma passes only a zero difference, in pair rows and oracle rows alike
    exact = two_site_exact("o3", 1.0)
    on, off = chain("o3", exact, 0.0), chain("cp1-pullback", exact + 1e-3, 0.0)
    [row] = cli.comparison_rows([on, chain("cp1-pullback", exact, 0.0)], 3.0)
    assert (row["n_sigma"], row["pass"]) == (0.0, True)
    [row] = cli.comparison_rows([on, off], 3.0)
    assert (row["n_sigma"], row["pass"]) == (math.inf, False)
    rows = cli.oracle_rows([on, off], {"o3": exact}, 3.0)
    assert [(r["n_sigma"], r["pass"]) for r in rows] == [(0.0, True), (math.inf, False)]
    # a nonzero sigma passes up to n_sigma inclusive
    pair = [chain("o3", 1.0, 0.0), chain("cp1-pullback", 0.25, 0.25)]
    assert [r["pass"] for r in cli.comparison_rows(pair, 3.0)] == [True]
    assert [r["pass"] for r in cli.comparison_rows(pair, 2.9)] == [False]


def test_compare_computes_each_laws_two_site_reference_once(tmp_path, monkeypatch, capsys):
    # once per law before sampling, and the oracle rows reuse those values
    calls = []

    def counted(model, g):
        calls.append(model)
        return two_site_exact(model, g)

    monkeypatch.setattr(cli, "two_site_exact", counted)
    cli.main(["compare", "--dims", "2", "--regime", "both", "--sweeps", "200", "--seed", "3",
              "--out-prefix", str(tmp_path / "c")])
    assert sorted(LAW[m] for m in calls) == ["o3", "reduced"]
    oracle = json.loads((tmp_path / "c_report.json").read_text())["two_site_oracle"]
    assert [row["chain"] for row in oracle] == list(cli.REGIMES["both"])
    assert all(row["reference"] == two_site_exact(row["chain"], 1.0) for row in oracle)


def test_regimes_run_the_flavours_of_the_table():
    # both runs every flavour once; pullback and reduced run o3 beside the
    # flavours of their law. The order is literal: chain i draws spawn(n)[i]
    assert sorted(cli.REGIMES["both"]) == sorted(FLAVOURS)
    for regime, law in (("pullback", "o3"), ("reduced", "reduced")):
        models = cli.REGIMES[regime]
        assert len(set(models)) == len(models), regime
        assert set(models) == {"o3"} | {m for m, f in FLAVOURS.items() if f.law == law}, regime


def test_acceptance_c09_c10_gate_through_the_cli_rows(monkeypatch, capsys):
    # c09 and c10 report the rows oracle_rows and comparison_rows build, not copies
    import test_acceptance as acceptance

    calls = []

    def fake_rows(n_sigma):
        def rows(results, *args):
            calls.append((results, args))
            return [{"chain": "stand-in", "n_sigma": n_sigma, "pass": True}]
        return rows

    monkeypatch.setattr(acceptance, "run_chains", lambda *args, **kwargs: ["chains"])
    monkeypatch.setattr(acceptance, "oracle_rows", fake_rows(1.3))
    monkeypatch.setattr(acceptance, "comparison_rows", fake_rows(2.5))
    acceptance.test_c09_two_site_sampler_exactness()
    acceptance.test_c10_cross_model_equivalence()
    out = capsys.readouterr().out
    assert "stand-in 1.3s (gate 3 sigma)" in out
    assert "worst deviation 2.50 sigma (gate 3)" in out
    references = cli.two_site_references(["o3", "cp1-reduced"], 1.0)
    assert calls == [(["chains"], (references, 3.0)), (["chains"], (3.0,))]


def load_strict_json(path):
    """Parse as RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    def refuse(name):
        raise ValueError(f"non-finite constant {name} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_a_subnormal_coupling_prints_no_numpy_warning(tmp_path, cli_env):
    # at g = 5e-324 the action changes and the energy overflow to inf: the
    # infinite change still decides each step, and the energy is reported null
    proc = run_cli(["compare", "--dims", "3", "--g", "5e-324", "--sweeps", "1000",
                    "--thermalization", "1000", "--seed", "1"], tmp_path, cli_env)
    assert proc.returncode in (0, 1), proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: proposal width pinned"), proc.stderr


def test_a_huge_coupling_prints_no_numpy_warning(tmp_path, cli_env):
    # at g = 1e308 the squared gauge terms of cp1-gauged-pullback overflow and
    # inf - inf = nan rejected its moves: compare refuses the coupling in one
    # line, and the chains without those squares still sample it
    proc = run_cli(["compare", "--dims", "2", "--g", "1e308", "--sweeps", "30", "--seed", "1"],
                   tmp_path, cli_env)
    assert_cli_error(proc, 1, "cp1-gauged-pullback", "1e+308")
    assert not list(tmp_path.iterdir())
    proc = run_cli(["sample", "--model", "cp1-gauged", "--dims", "2", "--g", "1e308",
                    "--sweeps", "30", "--seed", "1"], tmp_path, cli_env)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr


def test_reports_are_strict_json(tmp_path, cli_env):
    # At g = 5e-324 the energy, ndim (1 - corr_r1) / 2g, overflows to inf, so
    # its means and n_sigma (inf - inf) are not finite; three sites, as the
    # two-site reference does not resolve such a g
    proc = run_cli(["verify", "--suite", "measure-constant", "--out", "r.json"],
                   tmp_path, cli_env)
    assert proc.returncode == 0, proc.stderr
    load_strict_json(tmp_path / "r.json")
    proc = run_cli(
        ["compare", "--dims", "3", "--g", "5e-324", "--sweeps", "1000",
         "--thermalization", "1000", "--seed", "1", "--out-prefix", "c"],
        tmp_path,
        cli_env,
    )
    assert proc.returncode in (0, 1), proc.stderr
    report = load_strict_json(tmp_path / "c_report.json")
    rows = report["comparisons"] + report["two_site_oracle"]
    assert any(r["n_sigma"] is None for r in rows)
