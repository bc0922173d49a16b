"""Command-line interface: verify / sample / compare.

verify   runs the numerical identity suite (kinetic-term identity, polar
         Jacobian, per-link gauge marginalization, one-site sphere-integral
         ratio, the exact moments of each reduction stage and of the
         pushforward, the lattice actions against each other, prefactor
         bookkeeping) and writes a JSON report; exit code 0 iff every executed check
         passed. The checks live in one registry, CHECKS, which maps each
         name to its function and default tolerance. verify runs each on a
         generator seeded from (seed, the check's stream index); acceptance
         tests c01-c07 run the same functions through run_check with their
         own pinned generators.
sample   runs one Monte Carlo chain and writes the observable series as CSV
         plus a JSON summary.
compare  runs chains of different models at the same coupling and gates the
         observables of each pair of chains that share a law (mc.FLAVOURS) at a
         combined-sigma threshold, and on two sites each chain's corr_r1
         against its quadrature. comparison_rows and oracle_rows build both
         tables from the chains' estimates through one gate, _gate;
         acceptance tests c09 and c10 call them too.

One table, OPTIONS, declares each option of each command once, as the keyword
arguments of its argparse add_argument: its type= parser (with the value's
bounds), choices, default, whether it is required, and help. An option is
given as the flag --NAME, else it takes its default. verify's tolerances are
the CHECKS defaults, and the report records them; compare's --tol sets its
gate, sigma. A bad value and argparse's own errors both end in one `error:`
line and exit code 2. Every output embeds the effective configuration and seed.
CSV schemas, written by fields.write_csv from one part per chain and observable:
  sample   columns sweep, observable, value
  compare  columns chain, sweep, observable, value
"""

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import measure
from .actions import (
    action_cp1_gauged,
    action_cp1_reduced,
    action_o3,
    action_o3_pullback,
    gauge_term,
    link_overlaps,
    marginalize_gauge_numeric,
    partition_constants,
    polar_identity_max_violation,
    spinor_overlap,
)
from .errors import O3CP1Error
from .fields import (
    CP1Field,
    GaugeField,
    SpinField,
    hopf_map,
    jacobian_polar,
    random_unit,
    save_field_csv,
    write_csv,
)
from .lattice import build_lattice
from .mc import DELTA_FLOOR, LAW, MODELS, chain_bin_size, count_bins, run_chains, two_site_exact

# compare's chains per regime. pullback: the exact-equivalence regime, all
# three chains share the o3 law. reduced: the continuum-matching regime, the
# gauged chain's z-marginal is exactly the reduced chain; both differ from o3
# by lattice artifacts (reported, not gated). both: all five flavours.
REGIMES = {
    "pullback": ("o3", "cp1-pullback", "cp1-gauged-pullback"),
    "reduced": ("o3", "cp1-reduced", "cp1-gauged-reduced"),
    "both": ("o3", "cp1-pullback", "cp1-gauged-pullback", "cp1-reduced", "cp1-gauged-reduced"),
}


# --- option parsers ------------------------------------------------------------
#
# Each is an argparse type=: it takes a flag's string and returns its value
# validated, or raises ArgumentTypeError, which argparse prints after the flag.


def _invalid(name, value, rule):
    return argparse.ArgumentTypeError(f"invalid value for {name}: {value!r} (must be {rule})")


def _number(name, kind, minimum, strict=False):
    """Parser of a finite int or float >= minimum (> if strict)."""
    def parse(text):
        try:
            number = kind(text)
        except ValueError:
            raise _invalid(name, text, "an integer" if kind is int else "a number") from None
        if not (abs(number) < math.inf and (number > minimum if strict else number >= minimum)):
            finite = "finite and " if kind is float else ""
            raise _invalid(name, number, f"{finite}{'>' if strict else '>='} {minimum}")
        return number
    return parse


def _parse_dims(text):
    try:
        dims = [int(part) for part in text.lower().split("x")]
    except ValueError:
        raise _invalid("dims", text, "extents joined by x, e.g. 8x8") from None
    if any(d < 2 for d in dims):
        raise _invalid("dims", text, "extents >= 2")
    return dims


def _parse_sigma(text):
    """compare's gate from sigma=VALUE, in combined standard errors."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"invalid tolerance override {text!r}; expected NAME=VALUE")
    name, value = text.split("=", 1)
    if name != "sigma":
        raise argparse.ArgumentTypeError(f"unknown tolerance {name!r}; known: sigma")
    return _number("tolerance sigma", float, 0.0)(value)


def _model_tag(text):
    """Model tag of a --model string: the plain cp1-gauged names cp1-gauged-reduced."""
    return "cp1-gauged-reduced" if text == "cp1-gauged" else text


def _strict(obj):
    """obj with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def _require_output_dir(path):
    """O3CP1Error unless the directory that is to hold `path` is a writable directory.

    Run before any work, so that a bad location costs no sampling; creates nothing.
    """
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        reason = "is not a directory" if os.path.exists(directory) else "does not exist"
        raise O3CP1Error(f"output directory {directory} {reason}")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise O3CP1Error(f"output directory {directory} is not writable")


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
# Every check takes (rng, tol) and returns its report row without the name,
# which CHECKS below gives it.


def _check_polar_identity(rng, tol):
    n_jets, ndim, g = 8000, 2, 1.0
    u = rng.uniform(0.0, math.pi / 2, n_jets)  # r = cos(u), s = sin(u): the whole sphere
    phi = rng.uniform(0.0, 2 * math.pi, n_jets)
    du = rng.normal(0.0, 3.0, (n_jets, ndim))
    dalpha, dbeta = rng.normal(0.0, 6.0, (2, n_jets, ndim))
    worst = polar_identity_max_violation(u, phi, du, dalpha, dbeta, g)
    return _check_row({"jets": n_jets, "ndim": ndim, "g": g}, worst, 0.0, tol, worst <= tol)


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


def _check_jacobian(rng, tol):
    worst = 0.0
    n_points = 100
    for _ in range(n_points):
        u = rng.uniform(0.15, math.pi / 2 - 0.15)
        r, s = math.cos(u), math.sin(u)
        alpha, beta = rng.uniform(0.2, 2 * math.pi - 0.2, 2)
        gap = abs(_fd_determinant(r, alpha, s, beta) - jacobian_polar(r, s))
        worst = max(worst, gap)
    return _check_row({"points": n_points}, worst, 0.0, tol, worst <= tol)


def _check_marginalization(rng, tol):
    worst, worst_tail = 0.0, 0.0
    couplings = (0.5, 1.0, 2.0)
    n_links = 100
    for g in couplings:
        z = random_unit(rng, 4, 2 * n_links).view(np.complex128)  # the two ends of each link
        for b in spinor_overlap(z[:n_links], z[n_links:]).imag:
            res = marginalize_gauge_numeric(b, g)
            worst = max(worst, abs(res.value - res.closed_form) / res.closed_form)
            worst_tail = max(worst_tail, res.tail_bound / res.value)
    return _check_row(
        {"links_per_g": n_links, "couplings": list(couplings)},
        worst,
        0.0,
        tol,
        worst <= tol,
        {"max_tail_bound_rel": worst_tail},
    )


def _check_one_site_ratio(rng, tol):
    lams = (0.0, 1.0, 2.5)
    worst = 0.0
    values = {}
    for lam in lams:
        res = measure.one_site_ratio_test(lam)
        values[str(lam)] = {"lhs": res.lhs, "rhs": res.rhs, "reference": res.reference}
        worst = max(worst, res.rel_diff)
    return _check_row(
        {"lambdas": list(lams), "s3_nodes": res.nodes}, worst, 0.0, tol, worst <= tol,
        diagnostics=values,
    )


def _check_measure_constant(rng, tol):
    res = measure.verify_constant_c()
    return _check_row({"degree": measure.PUSHFORWARD_DEGREE, "nodes": res.nodes},
                      res.mass / (2.0 * math.pi), measure.HALF_PI, tol, res.max_gap <= tol,
                      {"max_gap": res.max_gap, "worst_monomial": list(res.worst)})


def _check_reduction_stages(rng, tol):
    stages = measure.reduction_consistency()
    worst = max(res.max_gap for res in stages.values())
    return _check_row(
        {"degree": measure.PUSHFORWARD_DEGREE,
         "nodes": {stage: res.nodes for stage, res in stages.items()}},
        worst, 0.0, tol, worst <= tol,
        {"stage_max_gap": {stage: res.max_gap for stage, res in stages.items()},
         "worst_monomial": {stage: list(res.worst) for stage, res in stages.items()}},
    )


def _check_pushforward(rng, tol):
    res = measure.pushforward_uniformity(rng)
    return _check_row({"degree": measure.PUSHFORWARD_DEGREE, "nodes": res.nodes}, res.max_gap,
                      0.0, tol, res.max_gap <= tol, {"worst_monomial": list(res.worst)})


def _check_lattice_actions(rng, tol):
    """The global actions against each other, on random fields of a 3x4 and a 2x2x3 lattice.

    action_o3_pullback(z) = action_o3(hopf(z)); action_cp1_gauged(z, A) is
    action_cp1_reduced(z) plus sum_links (A - Im w)^2 / g; and the reduced
    and pullback actions differ by sum_links (1 - Re w)^2 / g. The value is
    the worst relative gap.
    """
    g = rng.uniform(0.2, 5.0)
    gaps = {}
    for dims in ([3, 4], [2, 2, 3]):
        lat = build_lattice(dims)
        zf = CP1Field.random(lat, rng)
        gauge = GaugeField(rng.normal(0.0, 1.0, (lat.volume, lat.ndim)))
        w = link_overlaps(lat, zf)
        pullback, reduced = action_o3_pullback(lat, zf, g), action_cp1_reduced(lat, zf, g)
        identities = {
            "o3-of-hopf": (pullback, action_o3(lat, SpinField(hopf_map(zf.z)), g)),
            "gauged-split": (action_cp1_gauged(lat, zf, gauge, g),
                             reduced + float(np.sum(gauge_term(gauge.a, w))) / g),
            "reduced-minus-pullback": (reduced - pullback, float(np.sum((1.0 - w.real) ** 2)) / g),
        }
        for name, (lhs, rhs) in identities.items():
            gaps[f"{name}@{'x'.join(map(str, dims))}"] = abs(lhs - rhs) / abs(rhs)
    worst = max(gaps.values())
    return _check_row({"dims": ["3x4", "2x2x3"], "g": g}, worst, 0.0, tol, worst <= tol,
                      {"rel_gap": gaps})


def _check_prefactor(rng, tol):
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
    run: Callable  # (rng, tol) -> report row without "name"
    tolerance: float  # run_check's default
    stream: int  # verify draws from SeedSequence([seed, stream]); 0: draws nothing


# The verify suite, in report order.
CHECKS = {
    "polar-identity": Check(_check_polar_identity, 1e-10, 1),
    "jacobian": Check(_check_jacobian, 1e-6, 2),
    "marginalization": Check(_check_marginalization, 1e-8, 3),
    "one-site-ratio": Check(_check_one_site_ratio, 1e-6, 0),
    "measure-constant": Check(_check_measure_constant, 1e-13, 0),  # worst absolute moment gap
    "reduction-stages": Check(_check_reduction_stages, 1e-13, 0),  # worst absolute moment gap
    "pushforward": Check(_check_pushforward, 1e-13, 6),  # worst absolute moment gap
    "lattice-actions": Check(_check_lattice_actions, 1e-12, 7),  # worst relative gap
    "prefactor": Check(_check_prefactor, 1e-12, 0),
}
SUITES = tuple(CHECKS)


def run_check(name, rng, tol=None) -> dict:
    """Report row of check `name` on inputs drawn from `rng`; tol None: its default."""
    check = CHECKS[name]
    return {"name": name, **check.run(rng, check.tolerance if tol is None else tol)}


def run_verify(opts) -> tuple:
    """Report and exit code of the checks opts["suite"] names; opts as parsed by build_parser."""
    suite, seed = opts["suite"], opts["seed"]
    checks = []
    for name in SUITES if suite == "all" else (suite,):
        rng = np.random.default_rng(np.random.SeedSequence([seed, CHECKS[name].stream]))
        checks.append(run_check(name, rng))
    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "config": {
            "suite": suite,
            "seed": seed,
            "tolerances": {name: check.tolerance for name, check in CHECKS.items()},
        },
        "checks": checks,
        "passed": passed,
    }
    return report, 0 if passed else 1


# --- sample / compare --------------------------------------------------------


def _write_series_csv(path, parts, header):
    write_csv(path, header, parts)


def _series_rows(result, chain_label=None):
    """Yield one chain's series as write_csv parts, one per observable, led by chain_label."""
    lead = [] if chain_label is None else [chain_label]
    for name in sorted(result.series):
        yield lead + [0, name, result.series[name]]


def _warn_frozen(results):
    """Name on stderr the chains whose proposal width froze at its floor."""
    frozen = [r.model for r in results if r.delta_pinned == "floor"]
    if frozen:
        print(f"warning: proposal width pinned at its floor {DELTA_FLOOR:g} in chains "
              f"{', '.join(frozen)}: they barely moved, so their error bars mean little",
              file=sys.stderr)


def run_sample(opts) -> tuple:
    """Run one chain and write its files; opts as parsed by build_parser."""
    model, prefix = opts["model"], opts["out-prefix"]
    result = run_chains(
        build_lattice(opts["dims"]), [model], opts["g"], opts["sweeps"], master_seed=opts["seed"],
        thermalization=opts["thermalization"], self_check=opts["self-check"],
    )[0]
    _warn_frozen([result])
    config = {k: opts[k] for k in ("model", "dims", "g", "sweeps", "seed")}
    config.update(thermalization=result.thermalization)
    summary = {"command": "sample", "config": config, "chain": result.summary()}
    # final-configuration snapshots for reproducibility checks
    state = result.state
    save_field_csv(f"{prefix}_field.csv", state.matter)
    if state.is_gauged:
        save_field_csv(f"{prefix}_gauge.csv", state.gauge)
    _write_series_csv(f"{prefix}_series.csv", _series_rows(result), ["sweep", "observable", "value"])
    _write_json(f"{prefix}_summary.json", summary)
    return summary, 0


def _gate(diff, sigma, n_sigma):
    """(|diff| / sigma, whether it is <= n_sigma); a zero sigma passes only diff == 0."""
    if sigma > 0:
        ns = abs(diff) / sigma
        return ns, ns <= n_sigma
    return (float("inf") if diff else 0.0), diff == 0.0


def comparison_rows(results, n_sigma):
    """Pairwise observable comparison; chains that share a law must agree within n_sigma."""
    rows = []
    names = sorted(results[0].estimates)
    for i, ra in enumerate(results):
        for rb in results[i + 1 :]:
            gated = LAW[ra.model] == LAW[rb.model]
            for name in names:
                mean_a, err_a = ra.estimates[name]
                mean_b, err_b = rb.estimates[name]
                combined = math.hypot(err_a, err_b)
                diff = mean_a - mean_b
                ns, ok = _gate(diff, combined, n_sigma)
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


def two_site_references(models, g):
    """{law: two_site_exact} for the laws of `models`: one quadrature per law, which alone sets it.

    McError, before any sampling, when the rule does not resolve g.
    """
    return {law: two_site_exact(model, g) for law, model in {LAW[m]: m for m in models}.items()}


def oracle_rows(results, references, n_sigma):
    """Two-site chains against their quadrature: corr_r1 must match within n_sigma.

    references maps each chain's law to its value, as two_site_references gives it.
    """
    rows = []
    for r in results:
        mean, err = r.estimates["corr_r1"]
        exact_val = references[LAW[r.model]]
        ns, ok = _gate(mean - exact_val, err, n_sigma)
        rows.append(
            {
                "chain": r.model,
                "observable": "corr_r1",
                "mean": mean,
                "error": err,
                "reference": exact_val,
                "n_sigma": ns,
                "pass": ok,
            }
        )
    return rows


def run_compare(opts) -> tuple:
    """Run the regime's chains, gate them and write the files; opts as parsed by build_parser."""
    g, prefix = opts["g"], opts["out-prefix"]
    n_sigma = opts["tol"]

    lat = build_lattice(opts["dims"])
    models = REGIMES[opts["regime"]]
    # refuse before sampling: too few bins, or a two-site reference that does not resolve g
    count_bins(opts["sweeps"], chain_bin_size(opts["sweeps"]))
    references = two_site_references(models, g) if lat.volume == 2 else None
    results = run_chains(
        lat, models, g, opts["sweeps"], master_seed=opts["seed"],
        thermalization=opts["thermalization"], processes=opts["threads"],
    )
    rows = comparison_rows(results, n_sigma)
    _warn_frozen(results)
    oracle = oracle_rows(results, references, n_sigma) if references else []

    gated_ok = all(row["pass"] for row in rows if row["gated"])
    passed = gated_ok and all(row["pass"] for row in oracle)
    config = {k: opts[k] for k in ("dims", "g", "sweeps", "seed", "regime", "threads")}
    config.update(thermalization=results[0].thermalization, n_sigma=n_sigma)
    report = {
        "command": "compare",
        "config": config,
        "chains": {r.model: r.summary() for r in results},
        "comparisons": rows,
        "two_site_oracle": oracle,
        "passed": passed,
    }
    parts = [part for r in results for part in _series_rows(r, chain_label=r.model)]
    _write_series_csv(f"{prefix}_series.csv", parts, ["chain", "sweep", "observable", "value"])
    _write_json(f"{prefix}_report.json", report)
    return report, 0 if passed else 1


# --- options -------------------------------------------------------------------


_DIMS = dict(type=_parse_dims, default=[8, 8], help="lattice extents (default 8x8)")
_G = dict(type=_number("g", float, 0, strict=True), default=1.0,
          help="coupling, finite and > 0 (default 1)")
_THERMALIZATION = dict(type=_number("thermalization", int, 0),
                       help="sweeps before measuring (default: the chain's own)")
_SEED = dict(type=_number("seed", int, 0), required=True,
             help="master seed, an integer >= 0 (required)")
_SWEEPS = dict(type=_number("sweeps", int, 1), help="measured sweeps")


# Every option of every command, as the keyword arguments of its add_argument.
OPTIONS = {
    "verify": {
        "suite": dict(choices=("all",) + SUITES, default="all",
                      help="one check, or all (default)"),
        "seed": dict(_SEED, required=False, default=0,
                     help="seed for randomized check inputs (default 0)"),
        "out": dict(default="report.json", help="JSON report path (default report.json)"),
    },
    "sample": {
        "model": dict(type=_model_tag, choices=MODELS + ("cp1-gauged",), default="o3",
                      help="the chain's model (default o3); cp1-gauged is cp1-gauged-reduced"),
        "dims": _DIMS,
        "g": _G,
        "sweeps": dict(_SWEEPS, default=10000),
        "thermalization": _THERMALIZATION,
        "seed": _SEED,
        "self-check": dict(action="store_true",
                           help="check every accepted local action change"),
        "out-prefix": dict(default="sample", help="output file prefix"),
    },
    "compare": {
        "dims": _DIMS,
        "g": _G,
        "sweeps": dict(_SWEEPS, default=50000),
        "thermalization": _THERMALIZATION,
        "seed": _SEED,
        "regime": dict(choices=tuple(REGIMES), default="pullback",
                       help="pullback (default), reduced, or both"),
        "threads": dict(type=_number("threads", int, 1), default=1,
                        help="processes for the o3 and spinor chain batches (default 1)"),
        "tol": dict(type=_parse_sigma, default=3.0,
                    help="gate in combined standard errors, as sigma=VALUE (default 3)"),
        "out-prefix": dict(default="compare", help="output file prefix"),
    },
}
COMMAND_HELP = {
    "verify": "run the numerical identity suite",
    "sample": "run one Monte Carlo chain",
    "compare": "cross-model equivalence run",
}


# --- entry point ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every argument error, a bad value among them, ends in one `error:` line and exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="o3cp1",
        description="Lattice spin/spinor model identities and Monte Carlo sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        for name, kwargs in options.items():
            p.add_argument(f"--{name}", dest=name, **kwargs)
    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    command = opts["command"]
    try:
        _require_output_dir(opts["out" if command == "verify" else "out-prefix"])
        if command == "verify":
            report, code = run_verify(opts)
            _write_json(opts["out"], report)
            for check in report["checks"]:
                status = "pass" if check["pass"] else "FAIL"
                print(f"[{status}] {check['name']}: value={check['value']:.6g} "
                      f"reference={check['reference']:.6g} tolerance={check['tolerance']:.2g}")
            print(f"report written to {opts['out']}")
            return code
        prefix = opts["out-prefix"]
        if command == "sample":
            run_sample(opts)
            print(f"series written to {prefix}_series.csv, summary to {prefix}_summary.json")
            return 0
        report, code = run_compare(opts)
        gated = [r for r in report["comparisons"] if r["gated"]]
        print(f"{len(report['chains'])} chains, {len(gated)} gated comparisons, "
              f"{'all pass' if report['passed'] else 'FAILURES'}")
        print(f"series written to {prefix}_series.csv, report to {prefix}_report.json")
        return code
    except (O3CP1Error, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
