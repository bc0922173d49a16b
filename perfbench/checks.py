"""Output checks, computed apart from the program.

Every function returns a list of problems (empty when the outputs are right).
References come from closed forms or from scipy quadrature written here; none
calls into o3cp1 and none compares against a stored copy of earlier output.
"""

import csv
import functools
import math
from collections import defaultdict

import numpy as np
from scipy import integrate, stats

from gammamethod import gamma_method

N_SIGMA = 5.0  # agreement bound, in autocorrelation-aware standard errors
KS_ALPHA = 1e-6  # significance of the gauge-refresh KS test (see README)
NORM_TOL = 1e-9
ENERGY_RTOL = 1e-12

EXACT_MODELS = ("o3", "cp1-pullback", "cp1-gauged-pullback")
GATED_PAIRS = (
    ("o3", "cp1-pullback"), ("o3", "cp1-gauged-pullback"),
    ("cp1-pullback", "cp1-gauged-pullback"), ("cp1-reduced", "cp1-gauged-reduced"),
)


def read_series(path):
    """Series CSV -> {chain: {observable: values in sweep order}}.

    Works for both schemas: `sample` (sweep, observable, value) files are keyed
    under chain None.
    """
    out = defaultdict(lambda: defaultdict(list))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        chained = header[0] == "chain"
        for row in reader:
            chain = row[0] if chained else None
            out[chain][row[-2]].append((int(row[-3]), float(row[-1])))
    return {c: {o: np.array([v for _, v in sorted(vals)]) for o, vals in obs.items()}
            for c, obs in out.items()}


# --- verify -------------------------------------------------------------------


def check_verify(report):
    problems = []
    if report.get("passed") is not True:
        problems.append("verify report does not say passed")
    checks = {c["name"]: c for c in report.get("checks", [])}
    wanted = ("polar-identity", "jacobian", "marginalization", "one-site-ratio",
              "measure-constant", "reduction-stages", "pushforward", "prefactor")
    for name in wanted:
        if name not in checks:
            problems.append(f"verify report lacks check {name}")
    if problems:
        return problems
    c = checks["measure-constant"]["value"]
    if abs(c - math.pi / 2) / (math.pi / 2) > 0.01:
        problems.append(f"measure constant {c!r} is not within 1% of pi/2")
    for lam_text, vals in checks["one-site-ratio"]["diagnostics"].items():
        lam = float(lam_text)
        ref = math.pi**2 * (math.sinh(lam) / lam if lam else 1.0)
        for side in ("lhs", "rhs", "reference"):
            if abs(vals[side] - ref) / ref > 1e-6:
                problems.append(f"one-site {side} at lambda={lam}: {vals[side]!r} != {ref!r}")
    g = checks["prefactor"]["inputs"]["g"]
    expected = math.pi**3 * g**2 / 2.0
    value = checks["prefactor"]["value"]
    if abs(value - expected) / expected > 1e-12:
        problems.append(f"prefactor {value!r} != pi^3 g^2/2 = {expected!r}")
    return problems


# --- two-site oracle ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def two_site_reference(model, g):
    """<n(0).n(1)> on two sites: closed form or a disk quadrature written here.

    o3 and the pullback flavours: weight exp(-(1 - cos t)/g) sin t, so the mean
    of cos t is coth(1/g) - g. Reduced flavours: w = z(0)^dag z(1) is uniform
    on the unit disk and the two links give exp(-2(2 - 2 Re w - (Im w)^2)/g);
    the observable is 2|w|^2 - 1.
    """
    if model in EXACT_MODELS:
        return 1.0 / math.tanh(1.0 / g) - g

    def weight(psi, rho):
        re, im = rho * math.cos(psi), rho * math.sin(psi)
        return rho * math.exp(-2.0 * (2.0 - 2.0 * re - im * im) / g)

    opts = dict(epsabs=0.0, epsrel=1e-11)
    num = integrate.dblquad(lambda psi, rho: (2 * rho * rho - 1) * weight(psi, rho),
                            0.0, 1.0, 0.0, 2 * math.pi, **opts)[0]
    den = integrate.dblquad(weight, 0.0, 1.0, 0.0, 2 * math.pi, **opts)[0]
    return num / den


def check_two_site(report, series, g):
    problems = []
    if report.get("passed") is not True:
        problems.append("two-site compare report does not say passed")
    oracle = report.get("two_site_oracle", [])
    if len(oracle) != len(series) or not all(row["pass"] for row in oracle):
        problems.append("the program's own two-site oracle rows do not all pass")
    for chain, obs in series.items():
        res = gamma_method(obs["corr_r1"])
        ref = two_site_reference(chain, g)
        if abs(res.mean - ref) > N_SIGMA * res.error:
            problems.append(f"{chain}: corr_r1 {res.mean:.6f} +- {res.error:.2g} "
                            f"is not within {N_SIGMA} sigma of {ref:.6f}")
    return problems


# --- correlated lattice ---------------------------------------------------------


def check_gated_pairs(series):
    problems = []
    for a, b in GATED_PAIRS:
        for name in sorted(series[a]):
            ra, rb = gamma_method(series[a][name]), gamma_method(series[b][name])
            sigma = math.hypot(ra.error, rb.error)
            if abs(ra.mean - rb.mean) > N_SIGMA * sigma:
                problems.append(f"{a} vs {b} {name}: {ra.mean:.5f} vs {rb.mean:.5f} "
                                f"differ by more than {N_SIGMA} x {sigma:.2g}")
    return problems


# --- large-lattice snapshots ----------------------------------------------------


def load_snapshot(path):
    """Snapshot CSV -> (header, values without the site column)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def hopf(zr):
    """n = z^dag sigma z from rows (Re z1, Im z1, Re z2, Im z2)."""
    a, b, c, d = zr.T
    return np.stack([2 * (a * c + b * d), 2 * (a * d - b * c),
                     a * a + b * b - c * c - d * d], axis=1)


def _grid(values, dims):
    """Sites are row-major with direction 0 fastest: grid[x_{k-1}, ..., x_0]."""
    return values.reshape(tuple(dims[::-1]) + values.shape[1:])


def _forward(grid, mu, ndim):
    return np.roll(grid, -1, axis=ndim - 1 - mu)


def energy_density(n, dims, g):
    grid = _grid(n, dims)
    total = sum(float(((_forward(grid, mu, len(dims)) - grid) ** 2).sum())
                for mu in range(len(dims)))
    return total / (4.0 * g * int(np.prod(dims)))


def check_snapshot(field_path, series, dims, g, gauge_path=None):
    problems = []
    header, data = load_snapshot(field_path)
    values = data[:, 1:]
    if len(values) != int(np.prod(dims)):
        return [f"{field_path}: {len(values)} rows for {int(np.prod(dims))} sites"]
    norm_gap = float(np.abs((values * values).sum(axis=1) - 1.0).max())
    if norm_gap > NORM_TOL:
        problems.append(f"{field_path}: a row is off unit norm by {norm_gap:.3g}")
    n = values if header[1] == "nx" else hopf(values)
    energy = series["energy"][-1]
    recomputed = energy_density(n, dims, g)
    if abs(recomputed - energy) > ENERGY_RTOL * abs(energy):
        problems.append(f"last energy row {energy!r} != {recomputed!r} from the snapshot")
    if gauge_path is not None:
        _, gdata = load_snapshot(gauge_path)
        a = np.empty(values.shape[:1] + (len(dims),))
        a[gdata[:, 0].astype(int), gdata[:, 1].astype(int)] = gdata[:, 2]
        grid = _grid(values, dims)
        z = grid[..., 0::2] + 1j * grid[..., 1::2]
        astar = np.stack([(np.conj(z) * _forward(z, mu, len(dims))).sum(axis=-1).imag
                          for mu in range(len(dims))], axis=-1).reshape(a.shape)
        x = ((a - astar) / math.sqrt(g / 2.0)).ravel()
        p = stats.kstest(x, "norm").pvalue
        if p < KS_ALPHA:
            problems.append(f"gauge refresh residuals fail KS against N(0,1): p = {p:.3g}")
    return problems
