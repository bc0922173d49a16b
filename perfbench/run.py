#!/usr/bin/env python3
"""Benchmark of the o3cp1 CLI: four workloads, timed end to end and per module.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs its `o3cp1` commands in sequence, each in a fresh process,
as a user runs them, and repeats that round until S seconds of command wall
time are measured. Every round's outputs are checked (see checks.py). The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, measured with
no tracing. With --trace 1 each untraced round is followed by the same round
run under tracer.py, and the metrics are the per-layer ones; the
traced-minus-untraced wall time is the tracing overhead. An operation is one
CLI command. Details of every run go to perfbench/out/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from gammamethod import gamma_method

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
COMMAND_TIMEOUT_S = 120
SETUP_REPEATS = 3
# chains run in one process, the CLI default: with two pool workers on two
# cores, `compare` wall time followed every dip in the cores the machine gave
# (IQR/median 0.35 over ten seeds, against 0.06-0.17 for one process)
THREADS = "1"
# the gate the program applies in `compare`, in its combined jackknife errors;
# the default 3 fails a few percent of seeds by design (see README)
COMPARE_SIGMA = "6"

COMPARE_MODELS = ("o3", "cp1-pullback", "cp1-gauged-pullback",
                  "cp1-reduced", "cp1-gauged-reduced")
GAUGED = ("cp1-gauged-pullback", "cp1-gauged-reduced")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _per_layer_units():
    units = {
        "lattice.build_ms": "ms",
        "fields.random_init_ms": "ms",
        "fields.hopf_map_ns_per_site": "ns",
        "fields.snapshot_write_s": "s",
        "fields.snapshot_bytes": "bytes",
        "actions.marginalize_gauge_numeric_s": "s",
        "actions.polar_identity_s": "s",
    }
    units.update({f"actions.action_us.{a}": "us"
                  for a in ("o3", "pullback", "reduced", "gauged")})
    units.update({
        "measure.verify_constant_c_s": "s",
        "measure.reduction_consistency_s": "s",
        "measure.pushforward_uniformity_s": "s",
        "measure.one_site_ratio_test_s": "s",
        "measure.measure_lhs_calls": "count",
    })
    for m in COMPARE_MODELS:
        units.update({f"mc.sweep_us.{m}": "us", f"mc.sweep_ns_per_site.{m}": "ns"})
    units.update({f"mc.gibbs_us.{m}": "us" for m in GAUGED})
    units["mc.measure_us"] = "us"
    for m in COMPARE_MODELS:
        units.update({f"mc.acceptance.{m}": "ratio", f"mc.delta.{m}": "1",
                      f"mc.tau_int.{m}": "sweeps", f"mc.tau_int_err.{m}": "sweeps",
                      f"mc.chain_s.{m}": "s", f"mc.two_site_exact_s.{m}": "s"})
    units.update({
        "mc.jackknife_ms": "ms",
        "cli.import_s": "s",
        "cli.series_rows_s": "s",
        "cli.series_csv_s": "s",
        "cli.series_csv_bytes": "bytes",
        "cli.report_json_s": "s",
        "bench.site_updates_per_s": "1/s",
        "bench.eff_samples_per_s": "1/s",
        "bench.trace_overhead_s": "s",
        "bench.trace_overhead_pct": "%",
    })
    return units


PER_LAYER = _per_layer_units()


def program_seed(seed, index):
    """Seed handed to the program with --seed: a hash of the benchmark seed."""
    digest = hashlib.sha256(f"o3cp1-bench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- workloads ------------------------------------------------------------------


class Workload:
    """One workload: the CLI commands of a round and the checks of their outputs."""

    name = ""
    dims = ()  # lattice extents; empty for verify
    models = ()  # chains that set-up initialises and a round runs
    g = 1.0
    min_rounds = 1
    same_seed = False  # every round gets the seed of round 0

    @property
    def volume(self):
        return math.prod(self.dims)

    def setup_args(self):
        return ("x".join(map(str, self.dims)) or "-", ",".join(self.models) or "-", repr(self.g))

    def commands(self, ps):
        raise NotImplementedError

    def check(self, rdir, ps):
        """-> (problems, extras) for one round whose commands all exited 0."""
        raise NotImplementedError


class VerifySuite(Workload):
    name = "verify-suite"

    def commands(self, ps):
        # verify keeps its default --seed 0: the pushforward KS check at
        # alpha = 0.01 fails on about 2% of seeds by design (see README)
        return [("verify", ["verify", "--suite", "all", "--out", "report.json"])]

    def check(self, rdir, ps):
        return checks.check_verify(json.loads((rdir / "report.json").read_text())), {}


class CompareWorkload(Workload):
    models = COMPARE_MODELS
    sweeps = 0

    def commands(self, ps):
        return [("compare", ["compare", "--dims", "x".join(map(str, self.dims)),
                             "--g", repr(self.g), "--regime", "both",
                             "--sweeps", str(self.sweeps), "--threads", THREADS,
                             "--seed", str(ps), "--tol", f"sigma={COMPARE_SIGMA}",
                             "--out-prefix", "cmp"])]

    def check(self, rdir, ps):
        report = json.loads((rdir / "cmp_report.json").read_text())
        series = checks.read_series(rdir / "cmp_series.csv")
        problems = [] if report.get("passed") is True else ["compare report does not say passed"]
        problems += self.check_series(report, series)
        config = report["config"]
        extras = {"series_bytes": (rdir / "cmp_series.csv").stat().st_size,
                  "series_sha": sha256(rdir / "cmp_series.csv"),
                  "site_updates": (config["thermalization"] + config["sweeps"])
                  * self.volume * len(report["chains"]),
                  "chains": {}}
        for model, obs in series.items():
            slow = max((gamma_method(vals) for vals in obs.values()), key=lambda r: r.tau_int)
            summary = report["chains"][model]
            extras["chains"][model] = {"tau_int": slow.tau_int, "tau_int_err": slow.tau_int_error,
                                       "acceptance": summary["acceptance"],
                                       "delta": summary["delta"], "sweeps": summary["sweeps"]}
        return problems, extras


class TwoSiteOracle(CompareWorkload):
    name = "two-site-oracle"
    dims = (2,)
    sweeps = 5000

    def check_series(self, report, series):
        return checks.check_two_site(report, series, self.g)


class LatticeCorrelated(CompareWorkload):
    name = "lattice-correlated"
    dims = (8, 8)
    g = 0.35
    sweeps = 10000

    def check_series(self, report, series):
        return checks.check_gated_pairs(series)


class LargeLatticeSample(Workload):
    name = "large-lattice-sample"
    dims = (256, 256)
    models = ("o3", "cp1-gauged-reduced")
    min_rounds = 2  # the second round checks that one seed gives the same bytes
    same_seed = True
    sweeps = 10
    therm = 10

    def commands(self, ps):
        common = ["--dims", "x".join(map(str, self.dims)), "--g", repr(self.g),
                  "--sweeps", str(self.sweeps), "--thermalization", str(self.therm),
                  "--seed", str(ps)]
        return [("o3", ["sample", "--model", "o3", *common, "--out-prefix", "o3"]),
                ("gauged", ["sample", "--model", "cp1-gauged", *common,
                            "--out-prefix", "gauged"])]

    def check(self, rdir, ps):
        problems, shas = [], {}
        extras = {"snapshot_bytes": 0, "series_bytes": 0, "site_updates": 0, "series_sha": shas}
        for prefix in ("o3", "gauged"):
            series = checks.read_series(rdir / f"{prefix}_series.csv")[None]
            gauge = rdir / "gauged_gauge.csv" if prefix == "gauged" else None
            problems += checks.check_snapshot(rdir / f"{prefix}_field.csv", series,
                                              self.dims, self.g, gauge)
            snapshots = [rdir / f"{prefix}_field.csv"] + ([gauge] if gauge else [])
            extras["snapshot_bytes"] += sum(f.stat().st_size for f in snapshots)
            extras["series_bytes"] += (rdir / f"{prefix}_series.csv").stat().st_size
            config = json.loads((rdir / f"{prefix}_summary.json").read_text())["config"]
            extras["site_updates"] += (config["thermalization"] + config["sweeps"]) * self.volume
            for f in snapshots + [rdir / f"{prefix}_series.csv"]:
                shas[f.name] = sha256(f)
        return problems, extras


WORKLOADS = {w.name: w for w in (VerifySuite(), TwoSiteOracle(), LatticeCorrelated(),
                                  LargeLatticeSample())}


# --- processes ----------------------------------------------------------------------


@dataclass
class CommandResult:
    label: str
    wall_s: float
    rss_mb: float
    code: int
    trace_dir: Path = None


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, cwd, label):
    """Run argv to completion; wall time from spawn to reaping, peak RSS of its tree.

    ru_maxrss from wait4 is the largest resident set of the process and of the
    descendants it reaped (the pool workers of `compare`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(cwd / f"{label}.out", "wb") as out, open(cwd / f"{label}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # nothing of the session may outlive the command
    return CommandResult(label, wall, usage.ru_maxrss / 1024.0, proc.returncode)


def run_cli(tail, cwd, label, traced):
    if traced:
        tdir = cwd / f"trace-{label}"
        tdir.mkdir()
        res = run_process([sys.executable, str(HERE / "tracer.py"), str(tdir), *tail], cwd, label)
        res.trace_dir = tdir
        return res
    return run_process([sys.executable, "-m", "o3cp1.cli", *tail], cwd, label)


# --- per-layer metrics from traces ----------------------------------------------------


def load_trace(tdir, merged):
    """Add the span statistics of one traced command's processes to merged.

    Returns the import times the command's main process recorded.
    """
    import_s = []
    for path in sorted(tdir.glob("trace-*.json")):
        data = json.loads(path.read_text())
        if "import_s" in data["meta"]:
            import_s.append(data["meta"]["import_s"])
        for key, st in data["stats"].items():
            acc = merged.setdefault(key, {"total_s": 0.0, "items": 0, "durations": []})
            acc["total_s"] += st["total_s"]
            acc["items"] += st["items"]
            acc["durations"] += st["durations"]
    return import_s


def _scaled(value, factor):
    return None if value is None else value * factor


def layer_metrics(wl, results, extras, probe):
    """Per-layer values of one traced round; None where the layer is not used."""
    merged, imports = {}, []
    for res in results:
        imports += load_trace(res.trace_dir, merged)

    def total(*keys):
        found = [merged[k]["total_s"] for k in keys if k in merged]
        return sum(found) if found else None

    def median(key, scale):
        return statistics.median(merged[key]["durations"]) * scale if key in merged else None

    m = {
        "lattice.build_ms": median("lattice.build_lattice", 1e3),
        "fields.random_init_ms": _scaled(
            total("fields.SpinField.random", "fields.CP1Field.random"), 1e3),
        "fields.snapshot_write_s": total("fields.save_field_csv"),
        "fields.snapshot_bytes": extras.get("snapshot_bytes"),
        "actions.marginalize_gauge_numeric_s": total("actions.marginalize_gauge_numeric"),
        "actions.polar_identity_s": total("actions.polar_identity_max_violation"),
        "measure.verify_constant_c_s": total("measure.verify_constant_c"),
        "measure.reduction_consistency_s": total("measure.reduction_consistency"),
        "measure.pushforward_uniformity_s": total("measure.pushforward_uniformity"),
        "measure.one_site_ratio_test_s": total("measure.one_site_ratio_test"),
        "mc.measure_us": median("mc._Measurer.measure", 1e6),
        "mc.jackknife_ms": _scaled(total("mc.jackknife"), 1e3),
        "cli.import_s": statistics.median(imports) if imports else None,
        "cli.series_rows_s": total("cli._series_rows"),
        "cli.series_csv_s": total("cli._series_rows", "cli._write_series_csv"),
        "cli.series_csv_bytes": extras.get("series_bytes"),
        "cli.report_json_s": total("cli.json.dump"),
    }
    hopf, lhs = merged.get("fields.hopf_map"), merged.get("measure.measure_lhs")
    m["fields.hopf_map_ns_per_site"] = hopf["total_s"] / hopf["items"] * 1e9 if hopf else None
    m["measure.measure_lhs_calls"] = len(lhs["durations"]) if lhs else None
    for flavour, us in (probe or {}).items():
        m[f"actions.action_us.{flavour}"] = us
    for model in COMPARE_MODELS:
        sweep = median(f"mc.metropolis_sweep[{model}]", 1e6)
        m[f"mc.sweep_us.{model}"] = sweep
        m[f"mc.sweep_ns_per_site.{model}"] = sweep * 1e3 / wl.volume if sweep else None
        m[f"mc.chain_s.{model}"] = total(f"mc.run_chain[{model}]")
        m[f"mc.two_site_exact_s.{model}"] = total(f"mc.two_site_exact[{model}]")
    for model in GAUGED:
        m[f"mc.gibbs_us.{model}"] = median(f"mc.gibbs_gauge_update[{model}]", 1e6)
    return m


def chain_metrics(wl, extras, wall):
    """Per-layer values read from one untraced round's outputs."""
    m = {"bench.site_updates_per_s": extras["site_updates"] / wall
         if extras.get("site_updates") else None}
    chains = extras.get("chains")
    if chains:
        m["bench.eff_samples_per_s"] = sum(
            c["sweeps"] / (2.0 * c["tau_int"]) for c in chains.values()) / wall
        for model, c in chains.items():
            for k in ("tau_int", "tau_int_err", "acceptance", "delta"):
                m[f"mc.{k}.{model}"] = c[k]
    return m


# --- main ------------------------------------------------------------------------------


@dataclass
class Run:
    wl: Workload
    rdir: Path
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: dict = field(default_factory=lambda: {False: [], True: []})
    rss: list = field(default_factory=list)
    layer: list = field(default_factory=list)  # per traced round
    untraced: list = field(default_factory=list)  # per untraced round
    hashes: dict = field(default_factory=dict)  # program seed -> digests of its outputs

    def round(self, index, ps, traced):
        rdir = self.rdir / f"round-{index}-{'traced' if traced else 'plain'}"
        rdir.mkdir(parents=True)
        results = [run_cli(tail, rdir, label, traced) for label, tail in self.wl.commands(ps)]
        wall = sum(r.wall_s for r in results)
        self.attempted += len(results)
        bad = [r for r in results if r.code != 0]
        self.failed += len(bad)
        for r in bad:
            said = ((rdir / f"{r.label}.err").read_text()
                    or (rdir / f"{r.label}.out").read_text()).strip().splitlines()[-1:]
            print(f"# {self.wl.name} round {index}: {r.label} exited {r.code} {said}",
                  file=sys.stderr)
        extras = {}
        if not bad:
            try:
                problems, extras = self.wl.check(rdir, ps)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"outputs unreadable: {exc!r}"]
            self.problems += [f"round {index}: {p}" for p in problems]
            self._record_hashes(ps, extras.get("series_sha"))
        self.walls[traced].append(wall)
        if not traced:
            self.rss.append(max(r.rss_mb for r in results))
            self.untraced.append(chain_metrics(self.wl, extras, wall))
        elif not bad:
            probe = self._action_probe(rdir) if isinstance(self.wl, TwoSiteOracle) else None
            self.layer.append(layer_metrics(self.wl, results, extras, probe))
        shutil.rmtree(rdir)
        return wall

    def _record_hashes(self, ps, digests):
        """Same seed, same bytes: across rounds and between traced and untraced runs."""
        if digests is None:
            return
        seen = self.hashes.setdefault(ps, digests)
        if seen != digests:
            self.problems.append(f"outputs for program seed {ps} differ between rounds")

    def _action_probe(self, rdir):
        res = run_process([sys.executable, str(HERE / "probes.py"), "actions"], rdir, "actions")
        if res.code != 0:
            self.problems.append("the action probe failed")
            return None
        return json.loads((rdir / "actions.out").read_text())


def measure_setup(wl, seed, rdir):
    dims, models, g = wl.setup_args()
    times = []
    for i in range(SETUP_REPEATS):
        res = run_process([sys.executable, str(HERE / "probes.py"), "setup", dims, models,
                           str(program_seed(seed, 0)), g], rdir, f"setup-{i}")
        if res.code != 0:
            err = (rdir / f"setup-{i}.err").read_text().strip()
            raise SystemExit(f"error: set-up probe failed:\n{err}")
        times.append(res.wall_s)
    return times


def check_spec():
    """BENCHMARK.json must list exactly the metrics this file computes."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in spec[key]}
        if theirs != ours:
            raise SystemExit(f"error: BENCHMARK.json {key} does not match run.py")
    names = {w["name"] for w in spec["workloads"]}
    if names != set(WORKLOADS):
        raise SystemExit("error: BENCHMARK.json workloads do not match run.py")


def describe(name, values, unit):
    med = statistics.median(values)
    return f"{name:40s} {med:14.6g} {unit:6s} (median of {len(values)})"


def run_workload(wl, seed, seconds, trace):
    """Measure one workload; print its metrics by name and return the result line."""
    rdir = OUT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    run = Run(wl, rdir)
    setup = [] if trace else measure_setup(wl, seed, rdir)

    measured, index = 0.0, 0
    while index < wl.min_rounds or measured < seconds:
        ps = program_seed(seed, 0 if wl.same_seed else index)
        # traced runs alternate which of the pair goes first
        pair = (False, True) if index % 2 == 0 else (True, False)
        for traced in pair if trace else (False,):
            measured += run.round(index, ps, traced=traced)
        index += 1
    shutil.rmtree(rdir)

    correct = not run.problems
    for p in run.problems:
        print(f"# CHECK FAILED {wl.name}: {p}", file=sys.stderr)
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  rounds {index}  "
          f"attempted {run.attempted}  failed {run.failed}  correct {correct}")
    metrics = {}
    if not trace:
        values = {"setup_s": setup, "wall_s": run.walls[False], "peak_rss_mb": run.rss}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
            print(describe(name, values[name], unit))
        for name in ("bench.site_updates_per_s", "bench.eff_samples_per_s"):
            vals = [r[name] for r in run.untraced if r.get(name) is not None]
            if vals:
                print(describe(name.split(".", 1)[1], vals, PER_LAYER[name]))
    else:
        rows = run.layer + run.untraced
        plain, traced = statistics.median(run.walls[False]), statistics.median(run.walls[True])
        overhead = {"bench.trace_overhead_s": traced - plain,
                    "bench.trace_overhead_pct": 100.0 * (traced - plain) / plain}
        for name, unit in PER_LAYER.items():
            vals = [r[name] for r in rows if r.get(name) is not None]
            if name in overhead:
                vals = [overhead[name]]
            value = statistics.median(vals) if vals else 0  # 0: layer not exercised
            metrics[name] = {"value": value, "unit": unit}
            if vals:
                print(describe(name, vals, unit))
    details = {"workload": wl.name, "seed": seed, "trace": int(trace), "rounds": index,
               "walls": run.walls, "rss_mb": run.rss, "setup_s": setup,
               "untraced": run.untraced, "layer": run.layer, "problems": run.problems}
    (OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, default=str))
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "o3cp1" / "cli.py").is_file():
        raise SystemExit(f"error: no o3cp1 sources under {SRC}; run from a full checkout")
    check_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
