"""Command-line interface: verify / sample / compare.

verify   runs the numerical identity suite (kinetic-term identity, polar
         Jacobian, per-link gauge marginalization, one-site sphere-integral
         ratio, measure-constant extrapolation, reduction-stage consistency,
         pushforward uniformity, prefactor bookkeeping) and writes a JSON
         report; exit code 0 iff every executed check passed. The checks
         live in one registry, CHECKS, which maps each name to its function
         and default tolerance. verify runs each on a generator seeded from
         (seed, the check's stream index); acceptance tests c01-c07 run the
         same functions through run_check with their own pinned generators.
sample   runs one Monte Carlo chain and writes the observable series as CSV
         plus a JSON summary.
compare  runs chains of different models at the same coupling and gates the
         observables of each pair of chains that share a law (mc.LAW) at a
         combined-sigma threshold.

Flags override config-file values (--config FILE, JSON object keyed by the
long flag names); every output artifact embeds the effective configuration
and seed. Tolerances default to the acceptance values and can be overridden
with --tol NAME=VALUE; the report records the tolerance actually used.
CSV schemas:
  sample   columns sweep, observable, value
  compare  columns chain, sweep, observable, value
"""

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import measure
from .actions import (
    AnalyticFieldProbe,
    marginalize_gauge_numeric,
    partition_constants,
    polar_identity_max_violation,
)
from .errors import O3CP1Error
from .fields import CP1Field, jacobian_polar, save_field_csv
from .lattice import build_lattice
from .mc import DELTA_FLOOR, LAW, MODELS, jackknife, run_chains, two_site_exact

CLI_MODELS = MODELS + ("cp1-gauged",)  # plain tag aliases the covariant action

# compare's chains per regime. pullback: the exact-equivalence regime, all
# three chains share the o3 law. reduced: the continuum-matching regime, the
# gauged chain's z-marginal is exactly the reduced chain; both differ from o3
# by lattice artifacts (reported, not gated). both: all five flavours.
REGIMES = {
    "pullback": ("o3", "cp1-pullback", "cp1-gauged-pullback"),
    "reduced": ("o3", "cp1-reduced", "cp1-gauged-reduced"),
    "both": ("o3", "cp1-pullback", "cp1-gauged-pullback", "cp1-reduced", "cp1-gauged-reduced"),
}


class UsageError(ValueError):
    pass


def _parse_dims(text):
    try:
        dims = [int(part) for part in str(text).lower().split("x")]
    except ValueError:
        raise UsageError(f"invalid dims {text!r}; expected e.g. 8x8")
    if not dims or any(d < 2 for d in dims):
        raise UsageError(f"invalid dims {text!r}; every extent must be >= 2")
    return dims


def _parse_number(name, value, kind, minimum=None):
    """kind(value), at least `minimum` if given; None (option not given) passes through.

    A float from a config file is an int option's value only if it is integral;
    a JSON boolean is no number.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise UsageError(f"invalid value for {name}: {value!r} (must be a number)")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise UsageError(f"invalid value for {name}: {value!r} (must be an integer)")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"invalid value for {name}: {value!r}") from None
    if minimum is not None and number < minimum:
        raise UsageError(f"invalid value for {name}: {number} (must be >= {minimum})")
    return number


def _parse_eps(text):
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    vals = [_parse_number("eps", v, float) for v in parts if v != ""]
    if not vals or any(v <= 0 for v in vals):
        raise UsageError(f"invalid eps ladder {text!r}; widths must be positive")
    return vals


def _parse_tol(pairs):
    """NAME=VALUE overrides: repeated flags, or one string or a list of them from a file."""
    if pairs is None:
        return {}
    if isinstance(pairs, str):
        pairs = [pairs]
    if not isinstance(pairs, list) or not all(isinstance(p, str) for p in pairs):
        raise UsageError(
            f"invalid value for tol: {pairs!r}; expected NAME=VALUE or a list of them"
        )
    out = {}
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"invalid tolerance override {item!r}; expected NAME=VALUE")
        name, value = item.split("=", 1)
        if name not in DEFAULT_TOLERANCES:
            raise UsageError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(DEFAULT_TOLERANCES))}"
            )
        number = _parse_number(f"tolerance {name}", value, float)
        # pushforward's value is a KS significance level, every other one a bound
        ok = 0.0 < number < 1.0 if name == "pushforward" else 0.0 <= number < math.inf
        if not ok:
            rule = "in (0, 1)" if name == "pushforward" else "finite and >= 0"
            raise UsageError(f"invalid value for tolerance {name}: {number} (must be {rule})")
        out[name] = number
    return out


_CONFIG_KEYS = {
    "verify": {"suite", "eps", "seed", "out", "tol"},
    "sample": {"model", "dims", "g", "sweeps", "thermalization", "seed", "delta0",
               "out-prefix", "self-check"},
    "compare": {"dims", "g", "sweeps", "thermalization", "seed", "regime",
                "out-prefix", "threads", "tol"},
}
_STRING_KEYS = {"suite", "out", "out-prefix", "model", "regime", "dims"}


def _load_config(path, command):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in _CONFIG_KEYS[command]:
            raise UsageError(f"unknown config key {key!r} for command {command}")
        if key in _STRING_KEYS and not isinstance(data[key], str):
            raise UsageError(f"invalid value for {key}: {data[key]!r} (must be a string)")
    return data


def _merged(args, command):
    """Effective config accessor: flag values override config-file values."""
    file_cfg = _load_config(args.config, command) if args.config else {}

    def pick(name, default=None):
        val = getattr(args, name.replace("-", "_"), None)
        if val is not None:
            return val
        return file_cfg.get(name, default)

    return pick


def _require_seed(value):
    if value is None:
        raise UsageError("missing required option: seed (reproducibility contract)")
    return _parse_number("seed", value, int)


def _require_positive_g(value):
    if value is None:
        raise UsageError("missing required option: g")
    g = _parse_number("g", value, float)
    if g <= 0:
        raise UsageError(f"invalid value for g: {g} (must be positive)")
    return g


def _strict(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _write_json(path, obj):
    """Write obj as strict (RFC 8259) JSON: NaN and infinities become null."""
    with open(path, "w") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _check_row(inputs, value, reference, tolerance, passed, diagnostics=None):
    return {
        "inputs": inputs,
        "value": value,
        "reference": reference,
        "tolerance": tolerance,
        "pass": bool(passed),
        "diagnostics": diagnostics or {},
    }


# --- verify checks -----------------------------------------------------------
#
# Every check takes (rng, tol, eps_ladder) and returns its report row without
# the name, which CHECKS below gives it.


def _check_polar_identity(rng, tol, eps_ladder):
    worst = 0.0
    n_probes, pts_per_probe = 1000, 8
    for _ in range(n_probes):
        probe = AnalyticFieldProbe.random(rng, ndim=2)
        x = rng.uniform(0.0, 1.0, (pts_per_probe, 2))
        worst = max(worst, polar_identity_max_violation(probe, x, g=1.0))
    return _check_row(
        {"probes": n_probes, "points_per_probe": pts_per_probe, "g": 1.0},
        worst,
        0.0,
        tol,
        worst <= tol,
    )


def _fd_determinant(r, alpha, s, beta, h=1e-5):
    """Central-difference determinant of the unconstrained polar-to-Cartesian map."""
    def cart(p):
        return np.array(
            [p[0] * math.cos(p[1]), p[0] * math.sin(p[1]),
             p[2] * math.cos(p[3]), p[2] * math.sin(p[3])]
        )

    p0 = np.array([r, alpha, s, beta])
    jac = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        jac[:, j] = (cart(p0 + e) - cart(p0 - e)) / (2 * h)
    return float(np.linalg.det(jac))


def _check_jacobian(rng, tol, eps_ladder):
    worst = 0.0
    n_points = 100
    for _ in range(n_points):
        u = rng.uniform(0.15, math.pi / 2 - 0.15)
        r, s = math.cos(u), math.sin(u)
        alpha, beta = rng.uniform(0.2, 2 * math.pi - 0.2, 2)
        gap = abs(_fd_determinant(r, alpha, s, beta) - jacobian_polar(r, s))
        worst = max(worst, gap)
    return _check_row({"points": n_points}, worst, 0.0, tol, worst <= tol)


def _check_marginalization(rng, tol, eps_ladder):
    lat = build_lattice([4, 4])
    worst = 0.0
    couplings = (0.5, 1.0, 2.0)
    n_links = 100
    for g in couplings:
        for _ in range(n_links):
            zf = CP1Field.random(lat, rng)
            site = int(rng.integers(lat.volume))
            mu = int(rng.integers(lat.ndim))
            res = marginalize_gauge_numeric(lat, zf, site, mu, g)
            worst = max(worst, abs(res.value - res.closed_form) / res.closed_form)
    return _check_row(
        {"links_per_g": n_links, "couplings": list(couplings)},
        worst,
        0.0,
        tol,
        worst <= tol,
    )


def _check_one_site_ratio(rng, tol, eps_ladder):
    lams = (0.0, 1.0, 2.5)
    worst = 0.0
    values = {}
    for lam in lams:
        res = measure.one_site_ratio_test(lam)
        values[str(lam)] = {"lhs": res.lhs, "rhs": res.rhs, "reference": res.reference}
        worst = max(worst, res.rel_diff)
    return _check_row(
        {"lambdas": list(lams)}, worst, 0.0, tol, worst <= tol, diagnostics=values,
    )


def _check_measure_constant(rng, tol, eps_ladder):
    points = measure.random_sphere_points(rng, 10)
    mol = measure.MollifierConfig(eps_ladder=tuple(eps_ladder))
    est = measure.verify_constant_c(points, mol)
    diagnostics = {
        "spread": est.spread,
        "measured_order": est.measured_order,
        "residual": est.residual,
        "biased": est.biased,
        "converged": est.converged,
        "notes": est.notes,
        "ladder": list(est.ladder),
    }
    return _check_row(
        {"points": len(points), "eps_ladder": list(eps_ladder)},
        est.constant,
        measure.HALF_PI,
        tol,
        est.passes(tol),
        diagnostics,
    )


def _check_reduction_stages(rng, tol, eps_ladder):
    """Each point carries its own combined tolerance, so `tol` is unused."""
    points = measure.random_sphere_points(rng, 5, min_q=0.55, max_abs_nz=0.8)
    worst_gap, worst_tol, all_pass = 0.0, 0.0, True
    per_point = []
    for p in points:
        sc = measure.reduction_consistency(p)
        per_point.append(
            {
                "point": [float(v) for v in p],
                "constants": {k: float(v) for k, v in sc.constants.items()},
                "max_gap": sc.max_pair_gap,
                "tolerance": sc.combined_tolerance,
                "pass": sc.passed,
            }
        )
        all_pass = all_pass and sc.passed
        if sc.max_pair_gap > worst_gap:
            worst_gap, worst_tol = sc.max_pair_gap, sc.combined_tolerance
    return _check_row(
        {"points": len(points), "eps_ladder": list(measure.STAGE_LADDER)},
        worst_gap,
        0.0,
        worst_tol,
        all_pass,
        {"per_point": per_point},
    )


def _check_pushforward(rng, alpha, eps_ladder):
    res = measure.pushforward_uniformity(rng)
    critical = measure.ks_critical_value(alpha, res.n_samples)
    return _check_row(
        {"samples": res.n_samples, "alpha": alpha},
        max(res.ks_nz, res.ks_azimuth),
        0.0,
        critical,
        res.ks_nz < critical and res.ks_azimuth < critical,
        {"ks_nz": res.ks_nz, "ks_azimuth": res.ks_azimuth},
    )


def _check_prefactor(rng, tol, eps_ladder):
    g = 1.3
    lat = build_lattice([4, 4])
    consts = partition_constants(lat, g)
    expected = math.pi**3 * g**2 / 2.0
    gap = abs(consts["per_site_formal_factor"] - expected) / expected
    return _check_row(
        {"g": g, "ndim": lat.ndim},
        consts["per_site_formal_factor"],
        expected,
        tol,
        gap <= tol,
        {k: v for k, v in consts.items() if k != "per_site_formal_factor"},
    )


class Check(NamedTuple):
    run: Callable  # (rng, tol, eps_ladder) -> report row without "name"
    tolerance: Optional[float]  # default; None: the check sets its own, not overridable
    stream: int  # verify draws from SeedSequence([seed, stream]); 0: draws nothing


# The verify suite, in report order.
CHECKS = {
    "polar-identity": Check(_check_polar_identity, 1e-10, 1),
    "jacobian": Check(_check_jacobian, 1e-6, 2),
    "marginalization": Check(_check_marginalization, 1e-8, 3),
    "one-site-ratio": Check(_check_one_site_ratio, 1e-6, 0),
    "measure-constant": Check(_check_measure_constant, 0.01, 4),  # relative to pi/2
    "reduction-stages": Check(_check_reduction_stages, None, 5),
    "pushforward": Check(_check_pushforward, 0.01, 6),  # KS significance level
    "prefactor": Check(_check_prefactor, 1e-12, 0),
}
SUITES = tuple(CHECKS)
DEFAULT_TOLERANCES = {
    **{name: c.tolerance for name, c in CHECKS.items() if c.tolerance is not None},
    "sigma": 3.0,  # compare gate, in combined standard errors
}


def run_check(name, rng, tol=None, eps_ladder=measure.EPS_LADDER) -> dict:
    """Report row of check `name` on inputs drawn from `rng`; tol None: its default."""
    check = CHECKS[name]
    row = check.run(rng, check.tolerance if tol is None else tol, eps_ladder)
    return {"name": name, **row}


def run_verify(pick) -> tuple:
    suite = pick("suite", "all")
    if suite != "all" and suite not in CHECKS:
        raise UsageError(f"unknown suite {suite!r}; known: all, {', '.join(SUITES)}")
    seed = _parse_number("seed", pick("seed", 0), int)
    eps_ladder = _parse_eps(pick("eps", measure.EPS_LADDER))
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(_parse_tol(pick("tol")))

    checks = []
    for name in SUITES if suite == "all" else (suite,):
        rng = np.random.default_rng(np.random.SeedSequence([seed, CHECKS[name].stream]))
        checks.append(run_check(name, rng, tol.get(name), eps_ladder))
    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "config": {
            "suite": suite,
            "seed": seed,
            "eps_ladder": eps_ladder,
            "tolerances": tol,
        },
        "checks": checks,
        "passed": passed,
    }
    return report, 0 if passed else 1


# --- sample / compare --------------------------------------------------------


def _resolve_model(name):
    if name == "cp1-gauged":
        return "cp1-gauged-reduced"
    if name not in MODELS:
        raise UsageError(f"invalid value for model: {name!r}; known: {', '.join(CLI_MODELS)}")
    return name


def _write_series_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _series_rows(result, chain_label=None):
    """Yield the series CSV rows of one chain, led by chain_label if given."""
    lead = () if chain_label is None else (chain_label,)
    for name in sorted(result.series):
        for sweep, value in enumerate(result.series[name].values.tolist()):
            yield (*lead, sweep, name, repr(value))


def run_sample(pick) -> tuple:
    model = _resolve_model(pick("model", "o3"))
    dims = _parse_dims(pick("dims", "8x8"))
    g = _require_positive_g(pick("g", 1.0))
    sweeps = _parse_number("sweeps", pick("sweeps", 10000), int, 1)
    therm = _parse_number("thermalization", pick("thermalization"), int, 0)
    seed = _require_seed(pick("seed"))
    delta0 = _parse_number("delta0", pick("delta0", 0.5), float, 0.0)
    prefix = pick("out-prefix", "sample")
    self_check = pick("self-check", False)
    if not isinstance(self_check, bool):
        raise UsageError(f"invalid value for self-check: {self_check!r} (must be true or false)")

    lat = build_lattice(dims)
    result = run_chains(
        lat, [model], g, sweeps, master_seed=seed,
        thermalization=therm, delta0=delta0, self_check=self_check,
    )[0]
    config = {
        "model": model,
        "dims": dims,
        "g": g,
        "sweeps": sweeps,
        "thermalization": result.thermalization,
        "seed": seed,
        "delta0": delta0,
    }
    summary = {"command": "sample", "config": config, "chain": result.summary()}
    # final-configuration snapshots for reproducibility checks
    state = result.state
    save_field_csv(f"{prefix}_field.csv", state.spin if model == "o3" else state.zfield)
    if state.is_gauged:
        save_field_csv(f"{prefix}_gauge.csv", state.gauge)
    _write_series_csv(f"{prefix}_series.csv", _series_rows(result), ["sweep", "observable", "value"])
    _write_json(f"{prefix}_summary.json", summary)
    return summary, 0


def _comparison_rows(results, n_sigma):
    """Pairwise observable comparison; chains that share a law must agree within n_sigma."""
    rows = []
    names = sorted(results[0].series)
    stats = {
        r.model: {name: jackknife(r.series[name]) for name in names} for r in results
    }
    for i, ra in enumerate(results):
        for rb in results[i + 1 :]:
            gated = LAW[ra.model] == LAW[rb.model]
            for name in names:
                mean_a, err_a = stats[ra.model][name]
                mean_b, err_b = stats[rb.model][name]
                combined = math.hypot(err_a, err_b)
                diff = mean_a - mean_b
                if combined > 0:
                    ns = abs(diff) / combined
                    ok = ns <= n_sigma
                else:
                    ns = float("inf") if diff else 0.0
                    ok = diff == 0.0
                rows.append(
                    {
                        "observable": name,
                        "chain_a": ra.model,
                        "chain_b": rb.model,
                        "mean_a": mean_a,
                        "error_a": err_a,
                        "mean_b": mean_b,
                        "error_b": err_b,
                        "difference": diff,
                        "combined_sigma": combined,
                        "n_sigma": ns,
                        "gated": gated,
                        "pass": ok if gated else None,
                    }
                )
    return rows


def run_compare(pick) -> tuple:
    dims = _parse_dims(pick("dims", "8x8"))
    g = _require_positive_g(pick("g", 1.0))
    sweeps = _parse_number("sweeps", pick("sweeps", 50000), int, 1)
    therm = _parse_number("thermalization", pick("thermalization"), int, 0)
    seed = _require_seed(pick("seed"))
    regime = pick("regime", "pullback")
    default_threads = os.environ.get("O3CP1_THREADS", "1")
    threads = _parse_number("threads", pick("threads", default_threads), int)
    prefix = pick("out-prefix", "compare")
    n_sigma = dict(DEFAULT_TOLERANCES, **_parse_tol(pick("tol")))["sigma"]

    if regime not in REGIMES:
        raise UsageError(f"invalid value for regime: {regime!r}; known: {', '.join(REGIMES)}")

    lat = build_lattice(dims)
    results = run_chains(
        lat, REGIMES[regime], g, sweeps, master_seed=seed,
        thermalization=therm, processes=threads,
    )
    rows = _comparison_rows(results, n_sigma)
    frozen = [r.model for r in results if r.delta_pinned == "floor"]
    if frozen:
        print(f"warning: proposal width pinned at its floor {DELTA_FLOOR:g} in chains "
              f"{', '.join(frozen)}: they barely moved, so their error bars mean little",
              file=sys.stderr)

    oracle_rows = []
    if lat.volume == 2:
        for r in results:
            mean, err = jackknife(r.series["corr_r1"])
            exact_val = two_site_exact(r.model, g)
            ns = abs(mean - exact_val) / err if err > 0 else float("inf")
            oracle_rows.append(
                {
                    "chain": r.model,
                    "observable": "corr_r1",
                    "mean": mean,
                    "error": err,
                    "reference": exact_val,
                    "n_sigma": ns,
                    "pass": ns <= n_sigma,
                }
            )

    gated_ok = all(row["pass"] for row in rows if row["gated"])
    oracle_ok = all(row["pass"] for row in oracle_rows)
    passed = gated_ok and oracle_ok
    config = {
        "dims": dims,
        "g": g,
        "sweeps": sweeps,
        "thermalization": results[0].thermalization,
        "seed": seed,
        "regime": regime,
        "n_sigma": n_sigma,
        "threads": threads,
    }
    report = {
        "command": "compare",
        "config": config,
        "chains": {r.model: r.summary() for r in results},
        "comparisons": rows,
        "two_site_oracle": oracle_rows,
        "passed": passed,
    }
    csv_rows = itertools.chain.from_iterable(
        _series_rows(r, chain_label=r.model) for r in results
    )
    _write_series_csv(
        f"{prefix}_series.csv", csv_rows, ["chain", "sweep", "observable", "value"]
    )
    _write_json(f"{prefix}_report.json", report)
    return report, 0 if passed else 1


# --- entry point ---------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="o3cp1",
        description="Lattice spin/spinor model identities and Monte Carlo sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the numerical identity suite")
    p_verify.add_argument("--suite", help="all or one of: " + ", ".join(SUITES))
    p_verify.add_argument("--eps", help="comma-separated mollifier ladder, e.g. 0.1,0.05,0.025")
    p_verify.add_argument("--seed", type=int, help="seed for randomized check inputs (default 0)")
    p_verify.add_argument("--tol", action="append", metavar="NAME=VALUE",
                          help="tolerance override (repeatable)")
    p_verify.add_argument("--out", help="JSON report path (default report.json)")
    p_verify.add_argument("--config", help="JSON config file; flags override it")

    p_sample = sub.add_parser("sample", help="run one Monte Carlo chain")
    p_sample.add_argument("--model", help=", ".join(CLI_MODELS))
    p_sample.add_argument("--dims", help="lattice extents, e.g. 8x8")
    p_sample.add_argument("--g", type=float, help="coupling strength (positive)")
    p_sample.add_argument("--sweeps", type=int)
    p_sample.add_argument("--thermalization", type=int)
    p_sample.add_argument("--seed", type=int)
    p_sample.add_argument("--delta0", type=float, help="initial proposal width")
    p_sample.add_argument("--self-check", action="store_true", default=None)
    p_sample.add_argument("--out-prefix", dest="out_prefix", help="output file prefix")
    p_sample.add_argument("--config", help="JSON config file; flags override it")

    p_compare = sub.add_parser("compare", help="cross-model equivalence run")
    p_compare.add_argument("--dims", help="lattice extents, e.g. 8x8")
    p_compare.add_argument("--g", type=float)
    p_compare.add_argument("--sweeps", type=int)
    p_compare.add_argument("--thermalization", type=int)
    p_compare.add_argument("--seed", type=int)
    p_compare.add_argument("--regime", help="pullback (default), reduced, or both")
    p_compare.add_argument("--threads", type=int, help="parallel chains (env O3CP1_THREADS)")
    p_compare.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p_compare.add_argument("--out-prefix", dest="out_prefix", help="output file prefix")
    p_compare.add_argument("--config", help="JSON config file; flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            pick = _merged(args, "verify")
            report, code = run_verify(pick)
            out = pick("out", "report.json")
            _write_json(out, report)
            for check in report["checks"]:
                status = "pass" if check["pass"] else "FAIL"
                print(f"[{status}] {check['name']}: value={check['value']:.6g} "
                      f"reference={check['reference']:.6g} tolerance={check['tolerance']:.2g}")
            print(f"report written to {out}")
            return code
        if args.command == "sample":
            pick = _merged(args, "sample")
            summary, code = run_sample(pick)
            prefix = pick("out-prefix", "sample")
            print(f"series written to {prefix}_series.csv, summary to {prefix}_summary.json")
            return code
        if args.command == "compare":
            pick = _merged(args, "compare")
            report, code = run_compare(pick)
            prefix = pick("out-prefix", "compare")
            gated = [r for r in report["comparisons"] if r["gated"]]
            print(f"{len(report['chains'])} chains, {len(gated)} gated comparisons, "
                  f"{'all pass' if report['passed'] else 'FAILURES'}")
            print(f"series written to {prefix}_series.csv, report to {prefix}_report.json")
            return code
    except UsageError as exc:
        parser.exit(2, f"error: {exc}\n")
    except O3CP1Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
