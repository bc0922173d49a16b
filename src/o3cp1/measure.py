"""Numerical verification of the spinor-to-vector measure identity.

The object under test is the one-site integral

    I_eps(n) = integral d^4z  delta_eps(|z|^2 - 1) *
               delta_eps(n_x - 2 r s cos(a-b)) *
               delta_eps(n_y + 2 r s sin(a-b)) *
               delta_eps(n_z - (r^2 - s^2)),

evaluated in polar coordinates (r, s, alpha, beta) with Jacobian r*s, where
delta_eps is a Gaussian nascent delta of width eps. As eps -> 0 this
converges (weakly) to a constant c times delta(n^2 - 1), and the suite
extracts c by pointwise ratios against a *consistently smoothed* reference.

Width bookkeeping for the reference: the three component mollifiers combine
into an isotropic 3D Gaussian, whose average over a sphere of directions of
radius t depends on the radii only through delta_eps(|n| - t) (up to
exponentially small image terms), while the polar Jacobian cancels the shell
measure exactly. The shell coordinate t = |z|^2 is then integrated against
delta_eps(t - 1) * delta_eps(|n| - t), the convolution of two width-eps
Gaussians, so the raw integral realizes delta(n^2 - 1) as

    ref(n, eps) = delta_{sqrt(2) eps}(|n| - 1) / (2 |n|),

with only exponentially small (exp(-1/(2 eps^2))-scale) corrections; this is
purely radial bookkeeping and does not presuppose the value of c. So the
raw ratio on the sphere is c at every width of EPS_LADDER, and verify's
measure-constant check compares each width's ratio with pi/2
(verify_constant_c). The reduction stages below pin some variables exactly,
and each stage's reference is delta(n^2 - 1) smoothed by the mollifiers
that stage keeps (stage_reference), so reduction_consistency's ratios are c
at every width too. after-S keeps the two in-plane ones, a 2D Gaussian.
With rho_z^2 = 1 - n_z^2, m = rho (cos phi, -sin phi), d^2m = rho drho dphi
and delta(rho^2 - rho_z^2) = delta(rho - rho_z) / (2 rho), its reference is

    int d^2m delta(|m|^2 - rho_z^2) delta_eps(n_x - m_x) delta_eps(n_y - m_y)
      = (1/2) int_0^{2 pi} dphi delta_eps(n_x - rho_z cos phi) delta_eps(n_y + rho_z sin phi),

that is _angular_integral(n_x, n_y, rho_z, eps, pi). Its leading Hankel term
alone, delta_eps(q - rho_z) / (q + rho_z), would leave eps^2 / (8 rho_z^2)
in the ratio.

Reduction chain (the four stages):
  raw-4d:        4D polar quadrature of I_eps as written above.
  after-R-theta: change of variables R = r^2, S = s^2, theta = a+b,
                 phi = a-b (prefactor 1/16 over the doubled rectangle),
                 theta integrated exactly and R eliminated against the
                 constraint delta:  (pi/4) * int dS int_{-2pi}^{2pi} dphi.
  after-S:       S eliminated against the n_z delta and the phi range folded
                 onto one period:  (pi/4) * int_{-pi}^{pi} dphi of the two
                 remaining deltas at in-plane radius sqrt(1 - n_z^2).
  after-phi:     the remaining delta-of-a-function expanded over its roots
                 phi0 = +/- arccos(n_x / sqrt(1 - n_z^2)) with
                 |f'(phi0)| = sqrt(1 - n_x^2 - n_z^2).

The first three stages share one angle integral, _angular_integral. With
q = hypot(n_x, n_y), psi = atan2(n_y, n_x) and kappa = rho q / eps^2,
delta_eps(n_x - rho cos phi) delta_eps(n_y + rho sin phi) factors exactly into
delta_eps(rho - q) exp(kappa (cos(phi + psi) - 1)) / (eps sqrt(2 pi)), and a
whole turn of the exp integrates to 2 pi e^-kappa I_0(kappa) (DLMF 10.32.1).
So each row costs one closed form, _i0e, and no angle grid.

Every quadrature runs at one fixed resolution, set by the module constants
N_RADIAL, WINDOW_SIGMAS and RADIAL_PAD_SIGMAS (the comment on them says why
these values suffice).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import O3CP1Error
from .fields import hopf_map, random_unit

SQRT_2PI = math.sqrt(2.0 * math.pi)
HALF_PI = math.pi / 2.0

STAGES = ("raw-4d", "after-R-theta", "after-S", "after-phi")

# Stage evaluations reject points with |f'(phi0)| < 10 eps (coalescing roots),
# and |f'| <= 1 on the sphere, so the stage ladder must sit below 0.1.
STAGE_LADDER = (0.05, 0.035, 0.025)

# Resolution of the mollified-delta quadratures, one setting for every check.
# Radial integrals use Gauss-Legendre nodes on windows of WINDOW_SIGMAS * eps
# around the delta supports, truncated at r, s <= 1 + RADIAL_PAD_SIGMAS * eps,
# with at least N_RADIAL nodes and more if they would sit over eps/4 apart.
N_RADIAL = 160
WINDOW_SIGMAS = 14.0
RADIAL_PAD_SIGMAS = 10.0

# The mollifier ladder of verify_constant_c: the ratio is checked at each of
# the three widths. The reference's corrections are exponentially small in
# 1/eps^2, so one ladder serves every run.
EPS_LADDER = (0.1, 0.05, 0.025)

# gauss_legendre_quad compares QUAD_NODES- and 2*QUAD_NODES-point rules per
# panel and stops at QUAD_MAX_PANELS panels, converged or not.
QUAD_NODES = 64
QUAD_MAX_PANELS = 50


class MeasureDomainError(O3CP1Error, ValueError):
    """Test point or quadrature configuration outside the supported domain."""


def mollified_delta(t, eps):
    """Gaussian nascent delta of width eps."""
    t = np.asarray(t, dtype=float)
    return np.exp(-t * t / (2.0 * eps * eps)) / (eps * SQRT_2PI)


def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence, for x inside (-1, 1)."""
    p_prev, p = np.ones_like(x), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _leggauss(n):
    """The n-point Gauss-Legendre rule, computed once per n and shared read-only.

    numpy's leggauss nodes take one more Newton step on P_n, and the weights
    are recomputed as 2 / ((1 - x^2) P_n'(x)^2): numpy's own rule misses the
    low moments by up to ~1e-14 for n >= 96, the refined one by <= 1e-15.
    """
    x, _ = leggauss(n)
    p, dp = _legendre(n, x)
    x = x - p / dp
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_quad(f, lo, hi, rel_tol):
    """Adaptive Gauss-Legendre integral of a vectorized f over [lo, hi].

    Each panel is integrated with the QUAD_NODES- and the 2*QUAD_NODES-point
    rule; the panel whose two values differ most is halved until the summed
    differences fall to rel_tol times the value, or QUAD_MAX_PANELS panels
    are in use. Returns (value, error): the sum of the finer values and the
    summed differences, so a caller that gets error > rel_tol * |value|
    knows the rule did not converge.
    """
    xn, wn = _leggauss(QUAD_NODES)
    x2, w2 = _leggauss(2 * QUAD_NODES)

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        fine = half * float(w2 @ f(mid + half * x2))
        return a, b, fine, abs(fine - half * float(wn @ f(mid + half * xn)))

    panels = [panel(lo, hi)]
    while True:
        value = math.fsum(p[2] for p in panels)
        error = math.fsum(p[3] for p in panels)
        if error <= rel_tol * abs(value) or len(panels) >= QUAD_MAX_PANELS:
            return value, error
        a, b, _, _ = panels.pop(max(range(len(panels)), key=lambda i: panels[i][3]))
        panels += [panel(a, 0.5 * (a + b)), panel(0.5 * (a + b), b)]


def _radial_nodes(lo, hi, eps):
    # bump the node count if the window would be under-resolved
    n = max(N_RADIAL, int(math.ceil(4.0 * (hi - lo) / eps)))
    x, w = _leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _as_point(n):
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise MeasureDomainError(f"test point must be a 3-vector, got shape {n.shape}")
    return n


def _radial_windows(n_z, eps):
    """(r, s) integration windows implied by the two radial deltas."""
    k = WINDOW_SIGMAS * eps
    cap = (1.0 + RADIAL_PAD_SIGMAS * eps) ** 2
    r2 = ((1.0 + n_z) / 2.0 - k, min((1.0 + n_z) / 2.0 + k, cap))
    s2 = ((1.0 - n_z) / 2.0 - k, min((1.0 - n_z) / 2.0 + k, cap))
    return r2, s2


def _i0e(x):
    """e^-x I_0(x) for x >= 0, the exponentially scaled Bessel function, numpy only.

    Below x = 700 it is np.i0(x) e^-x. From there on, since np.i0 overflows
    past x = 709.78 with e^x, it is the asymptotic series (DLMF 10.40.1)
    (2 pi x)^-1/2 sum_k ((2k-1)!!)^2 / (k! (8x)^k) up to k = 6. At x >= 700
    term k + 1 is (2k+1)^2 / (8x (k+1)) < 0.005 of term k, so the first term
    left out, k = 7, is below 3e-20 of the sum, and the e^-2x part that the
    series omits is below e^-1400: both far under rounding.
    """
    x = np.asarray(x, dtype=float)
    small = np.minimum(x, 700.0)
    large = np.maximum(x, 700.0)
    total = np.ones_like(large)
    for k in range(6, 0, -1):  # Horner: term k is (2k-1)^2 / (8kx) times term k - 1
        total = 1.0 + total * ((2 * k - 1) ** 2 / (8.0 * k)) / large
    return np.where(x < 700.0, np.i0(small) * np.exp(-small),
                    total / np.sqrt(2.0 * math.pi * large))


def _angular_integral(nx, ny, rho, eps, period):
    """Per rho: the phi integral of delta_eps(nx - rho cos phi) delta_eps(ny + rho sin phi).

    The phi range has length period, a whole number of turns; the module
    docstring gives the closed form.
    """
    q = math.hypot(nx, ny)
    return mollified_delta(rho - q, eps) / (eps * SQRT_2PI) * period * _i0e(rho * q / (eps * eps))


def measure_lhs(n, eps) -> float:
    """Mollified one-site integral in polar coordinates (the raw-4d stage).

    The two angle integrals reduce exactly to 2*pi times a single integral
    over phi = alpha - beta (the integrand depends on the angles only through
    their difference); phi is integrated in closed form, (r, s) on
    Gauss-Legendre windows around the delta supports.

    In a = r^2 and b = s^2 the cross terms of the two radial deltas cancel:
    delta_eps(a + b - 1) delta_eps(n_z - (a - b)) equals
    exp(-(a - (1 + n_z)/2)^2 / eps^2) exp(-(b - (1 - n_z)/2)^2 / eps^2) / (2 pi eps^2),
    so with the Jacobian r s the radial weight is the outer product of an r
    factor and an s factor.
    """
    n = _as_point(n)
    nx, ny, nz = n
    (r2lo, r2hi), (s2lo, s2hi) = _radial_windows(nz, eps)
    if r2hi <= 0.0 or s2hi <= 0.0 or r2lo >= r2hi or s2lo >= s2hi:
        return 0.0
    r, wr = _radial_nodes(math.sqrt(max(r2lo, 0.0)), math.sqrt(r2hi), eps)
    s, ws = _radial_nodes(math.sqrt(max(s2lo, 0.0)), math.sqrt(s2hi), eps)
    fr = wr * r * np.exp(-(((r * r - 0.5 * (1.0 + nz)) / eps) ** 2))
    fs = ws * s * np.exp(-(((s * s - 0.5 * (1.0 - nz)) / eps) ** 2))
    base = np.outer(fr / (2.0 * math.pi * eps * eps), fs)
    peak = base.max(initial=0.0)
    if peak <= 0.0:
        return 0.0
    # (r, s) rows below 1e-24 of the peak weight cannot move the sum
    mask = base > peak * 1e-24
    rho = 2.0 * np.outer(r, s)[mask]
    ang = 2.0 * math.pi * _angular_integral(nx, ny, rho, eps, 2.0 * math.pi)
    return float((base[mask] * ang).sum())


def verify_constant_c(points):
    """Raw-4d ratios I_eps(n) / ref(n, eps), shape (points, len(EPS_LADDER)).

    Requires at least 10 on-sphere test points. The reference is smoothed
    the same way as the integral, so every ratio is the constant itself at
    every width.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] < 10 or points.shape[1] != 3:
        raise MeasureDomainError("need at least 10 on-sphere 3-vector test points")
    off = np.abs(np.linalg.norm(points, axis=1) - 1.0).max()
    if off > 1e-9:
        raise MeasureDomainError(f"test points must lie on the unit sphere ({off:.2e} off)")
    return np.array([[reduction_stage_value(p, eps, "raw-4d").constant for eps in EPS_LADDER]
                     for p in points])


# --- reduction stages -------------------------------------------------------


def phi_roots(n):
    """Roots of f(phi) = sqrt(1 - n_z^2) cos(phi) - n_x and |f'| there.

    Returns (phi0, fprime_abs) with phi0 = arccos(n_x / sqrt(1 - n_z^2)); the
    roots are +/- phi0 and |f'(+/-phi0)| = sqrt(1 - n_x^2 - n_z^2).
    """
    n = _as_point(n)
    nx, _, nz = n
    if abs(nz) >= 1.0:
        raise MeasureDomainError("phi roots undefined at |n_z| >= 1")
    rho_z = math.sqrt(1.0 - nz * nz)
    if abs(nx) > rho_z:
        raise MeasureDomainError("no real phi roots: |n_x| > sqrt(1 - n_z^2)")
    q2 = 1.0 - nx * nx - nz * nz
    return math.acos(nx / rho_z), math.sqrt(max(q2, 0.0))


def _stage_after_R_theta(n, eps) -> float:
    nx, ny, nz = n
    k = WINDOW_SIGMAS * eps / 2.0
    s_lo = max((1.0 - nz) / 2.0 - k, 0.0)
    s_hi = min((1.0 - nz) / 2.0 + k, 1.0)
    if s_lo >= s_hi:
        return 0.0
    S, wS = _radial_nodes(s_lo, s_hi, eps)
    rho = 2.0 * np.sqrt((1.0 - S) * S)
    ang = _angular_integral(nx, ny, rho, eps, 4.0 * math.pi)
    return float(math.pi / 4.0 * (wS * mollified_delta(nz - (1.0 - 2.0 * S), eps) * ang).sum())


def _stage_after_S(n, eps) -> float:
    nx, ny, nz = n
    rho_z = math.sqrt(1.0 - nz * nz)
    return float(math.pi / 4.0 * _angular_integral(nx, ny, rho_z, eps, 2.0 * math.pi))


def _stage_after_phi(n, eps) -> float:
    _, ny, _ = n
    _, fprime = phi_roots(n)  # stage_reference's _require_generic keeps fprime >= 10 eps
    return float(
        math.pi
        / 4.0
        * (mollified_delta(ny + fprime, eps) + mollified_delta(ny - fprime, eps))
        / fprime
    )


def stage_reference(n, eps, stage) -> float:
    """Stage-consistent smoothed realization of delta(n^2 - 1).

    Each stage pins previously integrated variables exactly, so the deltas
    that remain mollified differ per stage:
      raw-4d:        radial width sqrt(2) eps (two radial deltas convolved),
      after-R-theta: radial width eps (constraint eliminated exactly),
      after-S:       in-plane circle delta, delta(rho_xy^2 - (1 - n_z^2)),
                     under the 2D Gaussian of the two in-plane mollifiers,
      after-phi:     delta in n_y alone, delta(n_y^2 - (1 - n_x^2 - n_z^2)).
    The module docstring derives raw-4d's and after-S's smoothing. The
    other quadratic arguments are expanded about their positive roots.
    after-S and after-phi share the angle closed form or the roots with
    their stage values, so their ratios are pi/2 by algebra: they test the
    stage's pi/4 prefactor and its phi period.
    """
    n = _as_point(n)
    nx, ny, nz = n
    rho = float(np.linalg.norm(n))
    if stage == "raw-4d":  # see the module docstring for the sqrt(2) eps width
        if rho == 0.0:
            raise MeasureDomainError("reference undefined at n = 0")
        return float(mollified_delta(rho - 1.0, math.sqrt(2.0) * eps) / (2.0 * rho))
    if stage == "after-R-theta":
        return float(mollified_delta(rho - 1.0, eps) / (2.0 * rho))
    if stage == "after-S":
        return float(_angular_integral(nx, ny, math.sqrt(1.0 - nz * nz), eps, math.pi))
    if stage == "after-phi":  # the only stage that divides by |f'(phi0)|
        _require_generic(n, eps)
        _, q = phi_roots(n)
        return float(
            (mollified_delta(ny + q, eps) + mollified_delta(ny - q, eps)) / (2.0 * q)
        )
    raise MeasureDomainError(f"unknown stage {stage!r}; expected one of {STAGES}")


@dataclass
class StageValue:
    stage: str
    eps: float
    value: float
    reference: float
    constant: float


def reduction_stage_value(n, eps, stage) -> StageValue:
    """One reduction stage at one width: raw value, reference, constant estimate."""
    n = _as_point(n)
    ref = stage_reference(n, eps, stage)  # rejects an unknown stage, and a singular after-phi
    # looked up per call, so that a rebound module function is the one called
    values = (measure_lhs, _stage_after_R_theta, _stage_after_S, _stage_after_phi)
    value = values[STAGES.index(stage)](n, eps)
    return StageValue(stage, eps, value, ref, value / ref)


def _require_generic(n, eps):
    """Reject points whose phi roots lie within 10 eps of coalescing (|f'(phi0)| < 10 eps)."""
    if phi_roots(n)[1] < 10.0 * eps:
        raise MeasureDomainError(
            "test point within 10 eps of the singular locus n_x^2 + n_z^2 = 1 "
            "(coalescing roots); rejected"
        )


def reduction_consistency(n):
    """Ratios value / stage_reference at n, shape (len(STAGES), len(STAGE_LADDER)).

    Every stage's reference is smoothed as that stage's integral is, so each
    ratio is the constant itself at every width, as in verify_constant_c.
    Rejects points within 10 max(STAGE_LADDER) of the singular locus.
    """
    n = _as_point(n)
    _require_generic(n, max(STAGE_LADDER))
    return np.array([[reduction_stage_value(n, eps, stage).constant for eps in STAGE_LADDER]
                     for stage in STAGES])


# --- the product rule on the spinor sphere ------------------------------------
#
# The paper's measure identity: for every f on R^3,
#     int d^4z delta(|z|^2 - 1) f(hopf(z)) = (pi/2) int d^3n delta(n^2 - 1) f(n).
# In z = (cos chi e^{i alpha}, sin chi e^{i beta}) the left measure is
# (1/8) dt dalpha dbeta with t = cos 2 chi, uniform on [-1, 1] x [0, 2 pi)^2, so
# a product rule in (t, alpha, beta) integrates over S^3, total weight pi^2.
# For f a polynomial of degree <= L in n, f(hopf(z)) has phase frequencies up
# to 2L, which 2L + 1 equally spaced phases integrate exactly, and after the
# phase sums degree <= L in t, which L + 1 Gauss-Legendre nodes integrate
# exactly. The right side of a monomial n_x^a n_y^b n_z^c is pi/2 times the
# Dirichlet integral G((a+1)/2) G((b+1)/2) G((c+1)/2) / G((a+b+c+3)/2), G the
# Gamma function, for a, b, c all even, and 0 otherwise: pi^2 times the S^2
# moment (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!. So the pushforward row
# compares the two sides exactly, constant pi/2 included, and fails a correct
# program at no seed.

PUSHFORWARD_DEGREE = 6


def _s3_rule(t_nodes):
    """Product rule on the unit spinor sphere: nodes z, shape (N, 2), and weights w.

    t_nodes Gauss-Legendre nodes in t times 2 PUSHFORWARD_DEGREE + 1 equally
    spaced phases in each of alpha and beta; the weights sum to pi^2.
    """
    phases = 2 * PUSHFORWARD_DEGREE + 1
    t, wt = _leggauss(t_nodes)
    angle = 2.0 * math.pi / phases * np.arange(phases)
    t, alpha, beta = (x.ravel() for x in np.meshgrid(t, angle, angle, indexing="ij"))
    z = np.stack([np.sqrt(0.5 * (1.0 + t)) * np.exp(1j * alpha),
                  np.sqrt(0.5 * (1.0 - t)) * np.exp(1j * beta)], axis=-1)
    w = np.repeat(wt * (2.0 * math.pi / phases) ** 2 / 8.0, phases * phases)
    return z, w


# --- one-site partition-function ratio --------------------------------------


@dataclass
class OneSiteRatio:
    lhs: float
    rhs: float
    reference: float
    rel_diff: float
    nodes: int  # of the S^3 rule that gives lhs


def one_site_ratio_test(lam) -> OneSiteRatio:
    """Compare the spinor-sphere and vector-sphere integrals of e^{-lam n_z}.

    LHS: the integral over the unit spinor sphere of e^{-lam n_z(z)}, with n
    from hopf_map on the nodes of _s3_rule with 16 nodes in t (rounding for
    |lam| <= 10); its error is estimated against the rule with 32.
    RHS: (pi/2) * (1/2) * area integral over the unit vector sphere.
    Both equal pi^2 sinh(lam)/lam; the closed form is returned as reference.
    Each side must reach a relative error of 1e-10.
    """
    lam = float(lam)
    rules = [_s3_rule(t_nodes) for t_nodes in (16, 32)]  # the second estimates the error
    lhs, finer = (float(w @ np.exp(-lam * hopf_map(z)[:, 2])) for z, w in rules)
    rhs_1d, err_r = gauss_legendre_quad(
        lambda t: np.exp(-lam * np.cos(t)) * np.sin(t), 0.0, math.pi, 1e-13
    )
    rhs = HALF_PI * 0.5 * (2.0 * math.pi) * rhs_1d
    reference = math.pi**2 * (math.sinh(lam) / lam if lam != 0.0 else 1.0)
    achieved = (abs(lhs - finer) + err_r) / max(abs(reference), 1.0)
    if not achieved <= 1e-10:
        raise MeasureDomainError(
            f"one-site quadrature achieved relative error {achieved:.3e} > 1e-10"
        )
    return OneSiteRatio(lhs, rhs, reference, abs(lhs - rhs) / abs(reference), len(rules[0][1]))


# --- pushforward moments -------------------------------------------------------


@dataclass
class PushforwardMoments:
    nodes: int
    max_gap: float  # worst |left side - right side| over the monomials
    worst: tuple  # (a, b, c) of n_x^a n_y^b n_z^c at that gap


def pushforward_uniformity(rng) -> PushforwardMoments:
    """Every moment n_x^a n_y^b n_z^c, a + b + c <= PUSHFORWARD_DEGREE, of the Hopf pushforward.

    Integrates each monomial of hopf_map(z) with _s3_rule, its grid rotated by
    an SU(2) element drawn from rng, and compares it with the right side of
    the identity (see the section comment). The rule is exact, so every gap
    is rounding for a correct map.
    """
    a0, a1, a2, a3 = random_unit(rng, 4)
    u, v = complex(a0, a1), complex(a2, a3)
    degree = PUSHFORWARD_DEGREE
    z, w = _s3_rule(degree + 1)
    z = z @ np.array([[u, -v.conjugate()], [v, u.conjugate()]]).T  # SU(2) keeps the measure
    # px[a] = n_x^a at every node, and so on
    px, py, pz = hopf_map(z).T[:, None, :] ** np.arange(degree + 1)[:, None]
    gaps = {}
    for a, b, c in itertools.product(range(degree + 1), repeat=3):
        if a + b + c > degree:
            continue
        exact = 0.0
        if a % 2 == b % 2 == c % 2 == 0:
            exact = HALF_PI * math.prod(math.gamma((k + 1) / 2) for k in (a, b, c)) / math.gamma(
                (a + b + c + 3) / 2)
        gaps[a, b, c] = abs(float(w @ (px[a] * py[b] * pz[c])) - exact)
    worst = max(gaps, key=gaps.get)
    return PushforwardMoments(len(w), gaps[worst], worst)


def random_sphere_points(rng, count, min_q=0.35, max_abs_nz=0.85):
    """Uniform unit vectors kept away from the poles and the singular locus."""
    out = []
    while len(out) < count:
        v = rng.standard_normal(3)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        v /= norm
        if abs(v[2]) <= max_abs_nz and (1.0 - v[0] ** 2 - v[2] ** 2) >= min_q**2:
            out.append(v)
    return np.array(out)
