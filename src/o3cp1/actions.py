"""Action functionals for the spin and spinor models plus gauge machinery.

All lattice actions use forward differences; the covariant difference on a
link (x, mu) is z(x+mu) - z(x) - i A_mu(x) z(x), which keeps the per-link
gauge integral exactly Gaussian:

    integral dA exp(-(A^2 - 2 A b)/g) = sqrt(pi g) exp(b^2 / g),
    b = Im z(x)^dag z(x+mu).

For unit spinors every spinor link term is a function of the overlap
w = z(x)^dag z(x+mu) (spinor_overlap, or link_overlaps for a whole field):

    pullback_term(w)    = 1 - |w|^2             = (1/4)|dn|^2, n = hopf(z)
    reduced_term(w)     = 2 - 2 Re w - (Im w)^2 = |dz|^2 - b^2
    gauge_term(A, w)    = (A - Im w)^2

and the covariant term is gauge_term + reduced_term: integrating A out leaves
the reduced term. Their (Im w)^2 cancel: the covariant term
A^2 + 2 - 2 Re w - 2 A Im w is affine in w, hence in each spinor of the link
(the local field of mc._delta_s). These kernels are the one definition of
each term; the global actions here and the local Metropolis updates in mc
both sum them (times 1/g). Each chain flavour (mc.FLAVOURS) names its global
action here, action_cp1_gauged_pullback among them; action_o3 and action_cp1_gauged
are written out independently, as references for the tests and the self-check.

Constant prefactors such as the per-link sqrt(pi g) are tracked as log
constants (see partition_constants) and never multiplied into Boltzmann
weights.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import O3CP1Error
from .fields import CP1Field, GaugeField, SpinField
from .lattice import Lattice
from .measure import gauss_legendre_quad


class ActionError(O3CP1Error, ValueError):
    """Invalid input to an action evaluator."""


class QuadratureError(O3CP1Error, RuntimeError):
    """A numeric integral failed to reach its requested accuracy."""


# marginalize_gauge_numeric integrates over GAUGE_HALF_WIDTH * sqrt(g) either
# side of the Gaussian mean b, and must reach GAUGE_REL_TOL.
GAUGE_HALF_WIDTH = 10.0
GAUGE_REL_TOL = 1e-8


def _check_g(g):
    if not (float(g) > 0):
        raise ActionError(f"coupling must be positive, got {g}")
    return float(g)


def action_o3(lat: Lattice, spin: SpinField, g) -> float:
    """S = (1/4g) sum_links |n(x+mu) - n(x)|^2; zero iff n is constant."""
    g = _check_g(g)
    spin.check(tol=1e-9)
    n = spin.n
    total = 0.0
    for mu in range(lat.ndim):
        d = n.take(lat.fwd(mu), axis=0) - n
        total += float(np.einsum("ij,ij->", d, d))
    return total / (4.0 * g)


def spinor_overlap(za, zb):
    """w = za^dag zb over the last axis (two components) of complex spinor arrays."""
    return np.conj(za[..., 0]) * zb[..., 0] + np.conj(za[..., 1]) * zb[..., 1]


def link_overlaps(lat: Lattice, zf: CP1Field):
    """w[x, mu] = z(x)^dag z(x+mu) for every link, shape (volume, ndim) complex."""
    z = zf.z
    w = np.empty((lat.volume, lat.ndim), dtype=complex)
    for mu in range(lat.ndim):
        w[:, mu] = spinor_overlap(z, z.take(lat.fwd(mu), axis=0))
    return w


def pullback_term(w):
    """Per-link o3 term of hopf(z), (1/4)|dn|^2 = 1 - |w|^2 for unit spinors."""
    return 1.0 - (w.real**2 + w.imag**2)


def reduced_term(w):
    """Per-link gauge-marginalized term |dz|^2 - (Im w)^2 = 2 - 2 Re w - (Im w)^2."""
    return 2.0 - 2.0 * w.real - w.imag**2


def gauge_term(a, w):
    """Per-link Gaussian gauge term (A - A*)^2 with A* = Im w."""
    return (a - w.imag) ** 2


def action_cp1_gauged(lat: Lattice, zf: CP1Field, gauge: GaugeField, g) -> float:
    """S = (1/g) sum_links |z(x+mu) - z(x) - i A_mu(x) z(x)|^2."""
    g = _check_g(g)
    zf.check(tol=1e-9)
    gauge.check()
    z = zf.z
    total = 0.0
    for mu in range(lat.ndim):
        cov = z.take(lat.fwd(mu), axis=0) - z - 1j * gauge.a[:, mu, None] * z
        total += float(np.sum(np.abs(cov) ** 2))
    return total / g


def action_cp1_reduced(lat: Lattice, zf: CP1Field, g) -> float:
    """Gauge-marginalized action: (1/g) sum_links [ |dz|^2 - (Im z^dag dz)^2 ]."""
    g = _check_g(g)
    zf.check(tol=1e-9)
    return float(np.sum(reduced_term(link_overlaps(lat, zf)))) / g


def action_o3_pullback(lat: Lattice, zf: CP1Field, g) -> float:
    """O(3) action of hopf(z); per link (1 - |w|^2) = (1/4)|dn|^2 with unit spinors."""
    g = _check_g(g)
    zf.check(tol=1e-9)
    return float(np.sum(pullback_term(link_overlaps(lat, zf)))) / g


def action_cp1_gauged_pullback(lat: Lattice, zf: CP1Field, gauge: GaugeField, g) -> float:
    """(1/g) sum_links [ (A - Im w)^2 + 1 - |w|^2 ]: the gauge term plus the pullback action."""
    w = link_overlaps(lat, zf)
    return float(np.sum(gauge_term(gauge.a, w))) / _check_g(g) + action_o3_pullback(lat, zf, g)


@dataclass
class MarginalResult:
    """Numeric per-link gauge integral with its diagnostics."""

    value: float
    closed_form: float
    tail_bound: float


def gauge_marginal_closed_form(b, g) -> float:
    """sqrt(pi g) * exp(b^2 / g)."""
    g = _check_g(g)
    return math.sqrt(math.pi * g) * math.exp(b * b / g)


def marginalize_gauge_numeric(b, g) -> MarginalResult:
    """Numerically integrate the gauge link weight exp(-(A^2 - 2Ab)/g) over A.

    b = Im z(x)^dag z(x+mu) is all that the link contributes. The infinite
    range is truncated to the window b +- K sqrt(g) about the Gaussian mean,
    with K = GAUGE_HALF_WIDTH, so in units of sqrt(g) every (b, g) is the
    same integral; the neglected tail is sqrt(pi g) erfc(K) exp(b^2/g),
    returned as tail_bound (verify's marginalization row reports the worst
    tail_bound / value).
    """
    g = _check_g(g)
    b = float(b)
    span = GAUGE_HALF_WIDTH * math.sqrt(g)
    value, err = gauss_legendre_quad(lambda a: np.exp(-(a * a - 2.0 * a * b) / g),
                                     b - span, b + span)
    closed = gauge_marginal_closed_form(b, g)
    tail = closed * math.erfc(GAUGE_HALF_WIDTH)
    if not err <= GAUGE_REL_TOL * abs(value):
        raise QuadratureError(
            f"gauge marginalization did not converge: "
            f"achieved error {err:.3e} vs target {GAUGE_REL_TOL * abs(value):.3e}"
        )
    return MarginalResult(value, closed, tail)


def partition_constants(lat: Lattice, g) -> dict:
    """Analytically known partition-function prefactors, kept as logs.

    On the lattice the gauge integral contributes sqrt(pi g) per link and the
    spinor-to-vector measure change pi/2 per site, so the exact constant is
    (pi g)^(n_links/2) * (pi/2)^volume. The conventional continuum bookkeeping
    instead counts a factor pi*g per gauge component per site, giving the
    formal per-site constant (pi g)^D * pi/2 (= pi^3 g^2 / 2 in D = 2); both
    are recorded, the discrepancy is a normalization convention that cancels
    in every observable.
    """
    g = _check_g(g)
    log_link = 0.5 * math.log(math.pi * g)
    log_site = math.log(math.pi / 2.0)
    return {
        "log_gauge_per_link": log_link,
        "log_measure_per_site": log_site,
        "log_total_lattice": lat.n_links * log_link + lat.volume * log_site,
        "per_site_lattice_factor": math.exp(lat.ndim * log_link + log_site),
        "per_site_formal_factor": (math.pi * g) ** lat.ndim * math.pi / 2.0,
    }


# --- the continuum kinetic identity on 1-jets --------------------------------
#
# With r = cos(u), s = sin(u) the constraint r^2 + s^2 = 1 holds identically,
# and both kinetic densities at a point are algebra in the field's 1-jet there:
# u, phi = alpha - beta and the first derivatives du, dalpha, dbeta. Every jet
# is the 1-jet of some smooth field, so the identity is checked pointwise on
# jets drawn directly. u and phi have shape (N,); du, dalpha and dbeta have
# shape (N, ndim), one column per direction.


def polar_action_density(u, du, dalpha, dbeta, g):
    """(1/g) sum_mu [ r^2 s^2 (da - db)^2 + dr^2 + ds^2 ] with r = cos(u), s = sin(u)."""
    g = _check_g(g)
    r, s = np.cos(u)[:, None], np.sin(u)[:, None]
    dr, ds = -s * du, r * du
    return ((r * s) ** 2 * (dalpha - dbeta) ** 2 + dr**2 + ds**2).sum(axis=-1) / g


def o3_action_density_from_polar(u, phi, du, dalpha, dbeta, g):
    """(1/4g) sum_mu |d_mu n|^2 with d_mu n obtained by the chain rule.

    n = (2rs cos(phi), -2rs sin(phi), r^2 - s^2) for z = (r e^{i alpha},
    s e^{i beta}); its Jacobian in (r, s, alpha, beta) is written out, so the
    comparison against polar_action_density is exact, not a finite-difference
    approximation.
    """
    g = _check_g(g)
    r, s = np.cos(u), np.sin(u)
    c, si = np.cos(phi), np.sin(phi)
    # rows: n_x, n_y, n_z; columns: d/dr, d/ds, d/dalpha, d/dbeta
    jac = np.empty(r.shape + (3, 4))
    jac[..., 0, 0] = 2 * s * c
    jac[..., 0, 1] = 2 * r * c
    jac[..., 0, 2] = -2 * r * s * si
    jac[..., 0, 3] = 2 * r * s * si
    jac[..., 1, 0] = -2 * s * si
    jac[..., 1, 1] = -2 * r * si
    jac[..., 1, 2] = -2 * r * s * c
    jac[..., 1, 3] = 2 * r * s * c
    jac[..., 2, 0] = 2 * r
    jac[..., 2, 1] = -2 * s
    jac[..., 2, 2] = 0.0
    jac[..., 2, 3] = 0.0
    grads = np.stack([-s[:, None] * du, r[:, None] * du, dalpha, dbeta], axis=-1)  # (N, ndim, 4)
    dn = np.einsum("...ab,...mb->...ma", jac, grads)  # (N, ndim, 3)
    return (dn**2).sum(axis=(-2, -1)) / (4.0 * g)


def polar_identity_max_violation(u, phi, du, dalpha, dbeta, g=1.0) -> float:
    """Max gap between the two kinetic densities over the N jets."""
    lhs = o3_action_density_from_polar(u, phi, du, dalpha, dbeta, g)
    rhs = polar_action_density(u, du, dalpha, dbeta, g)
    return float(np.abs(lhs - rhs).max())
