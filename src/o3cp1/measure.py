"""Numerical verification of the spinor-to-vector measure identity.

The paper's identity, in weak form: for every f on R^3,

    int d^4z delta(|z|^2 - 1) f(hopf(z)) = (pi/2) int d^3n delta(n^2 - 1) f(n).

For a monomial f = n_x^a n_y^b n_z^c the right side is pi/2 times the
Dirichlet integral G((a+1)/2) G((b+1)/2) G((c+1)/2) / G((a+b+c+3)/2), G the
Gamma function, for a, b, c all even, and 0 otherwise: pi^2 times the S^2
moment (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!. The paper proves the identity
by a chain of changes of variables, and each stage of the chain (STAGES) is a
parametrisation of one measure on S^2:

  raw-4d:        z = (r e^{i alpha}, s e^{i beta}), d^4z = r s dr ds dalpha dbeta,
                 delta(r^2 + s^2 - 1) eliminated: with u = r^2 the measure is
                 (1/4) int_0^1 du int dalpha dbeta, and
                 n = (2 r s cos(alpha - beta), -2 r s sin(alpha - beta), r^2 - s^2).
  after-R-theta: R = r^2, S = s^2, theta = alpha + beta, phi = alpha - beta,
                 theta integrated and R eliminated:
                 (pi/4) int_0^1 dS int_{-2pi}^{2pi} dphi, with
                 n = (2 sqrt(S(1-S)) cos phi, -2 sqrt(S(1-S)) sin phi, 1 - 2S).
  after-S:       S eliminated against n_z = 1 - 2S and phi folded onto one
                 period: (pi/4) int_{-1}^{1} dn_z int_{-pi}^{pi} dphi, at in-plane
                 radius sqrt(1 - n_z^2).
  after-phi:     phi eliminated against n_x over its two roots:
                 (pi/4) int dn_z int dn_x sum_{+-} f(n_x, +-q, n_z) / q, with
                 q = sqrt(1 - n_x^2 - n_z^2).

Each stage has a product rule exact for polynomials f of degree <= L in its
own variables: after the phase sums a polynomial of degree <= L in n has
degree <= L in u, S and n_z, which L + 1 Gauss-Legendre nodes integrate
exactly; 2L + 1 equally spaced phases integrate its phase frequencies
exactly over one or two turns; and in after-phi, L + 1 Gauss-Chebyshev nodes
n_x = sqrt(1 - n_z^2) cos(theta) carry the 1/q, so no node sits on the
singular locus q = 0. So comparing every monomial of degree <= L with its
closed form (_moments) reads each stage exactly, constant pi/2 included, at
the poles and on the singular locus as everywhere else.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import O3CP1Error
from .fields import hopf_map, jacobian_polar, random_unit

HALF_PI = math.pi / 2.0

STAGES = ("raw-4d", "after-R-theta", "after-S", "after-phi")

# Every rule integrates the monomials of degree <= PUSHFORWARD_DEGREE exactly.
PUSHFORWARD_DEGREE = 6

# gauss_legendre_quad integrates with the 2*QUAD_NODES-point rule over the
# whole interval, and the QUAD_NODES-point rule estimates its error.
QUAD_NODES = 64


class MeasureDomainError(O3CP1Error, ValueError):
    """A quadrature that does not reach its accuracy."""


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


def gauss_legendre_quad(f, lo, hi):
    """Gauss-Legendre integral of a vectorized f over [lo, hi], in one panel.

    Returns (value, error): the 2*QUAD_NODES-point value and its distance
    from the QUAD_NODES-point value. A caller compares error with its own
    tolerance, so a rule that does not resolve f fails that caller's check.
    """
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    xn, wn = _leggauss(QUAD_NODES)
    x2, w2 = _leggauss(2 * QUAD_NODES)
    fine = half * float(w2 @ f(mid + half * x2))
    return fine, abs(fine - half * float(wn @ f(mid + half * xn)))


# --- product rules --------------------------------------------------------------


def _s3_nodes(t_nodes, degree=PUSHFORWARD_DEGREE):
    """(t, alpha, beta, w): a product grid for dt dalpha dbeta on [-1, 1] x [0, 2 pi)^2.

    t_nodes Gauss-Legendre nodes in t times 2 degree + 1 equally spaced
    phases in each of alpha and beta; the weights sum to 8 pi^2.
    """
    phases = 2 * degree + 1
    t, wt = _leggauss(t_nodes)
    angle = 2.0 * math.pi / phases * np.arange(phases)
    t, alpha, beta = (x.ravel() for x in np.meshgrid(t, angle, angle, indexing="ij"))
    return t, alpha, beta, np.repeat(wt * (2.0 * math.pi / phases) ** 2, phases * phases)


def _s3_rule(t_nodes):
    """Product rule on the unit spinor sphere: nodes z, shape (N, 2), and weights w.

    In z = (cos chi e^{i alpha}, sin chi e^{i beta}) the measure
    d^4z delta(|z|^2 - 1) is (1/8) dt dalpha dbeta with t = cos 2 chi, so
    _s3_nodes with 2 PUSHFORWARD_DEGREE + 1 phases gives it; the weights sum
    to pi^2.
    """
    t, alpha, beta, w = _s3_nodes(t_nodes)
    z = np.stack([np.sqrt(0.5 * (1.0 + t)) * np.exp(1j * alpha),
                  np.sqrt(0.5 * (1.0 - t)) * np.exp(1j * beta)], axis=-1)
    return z, w / 8.0


def _turns(period, degree):
    """2 degree + 1 equally spaced angles over [-period/2, period/2), and their weights."""
    phases = 2 * degree + 1
    return period * (np.arange(phases) / phases - 0.5), np.full(phases, period / phases)


def _product(*rules):
    """The product of 1-D rules (nodes, weights): the flattened node grids and weights."""
    nodes = [x.ravel() for x in np.meshgrid(*(x for x, _ in rules), indexing="ij")]
    return nodes, functools.reduce(np.multiply.outer, (w for _, w in rules)).ravel()


def measure_lhs(degree=PUSHFORWARD_DEGREE):
    """The raw-4d stage as a rule on S^2: points n, shape (N, 3), and weights w.

    The nodes are _s3_nodes' (t, alpha, beta) with t = 2u - 1, u = r^2, and
    n comes from the paper's polar formulas, not from hopf_map. The weight
    is jacobian_polar(r, s) with delta(r^2 + s^2 - 1) eliminated: dr = dt / 4r,
    and the delta leaves 1 / 2s.
    """
    t, alpha, beta, w = _s3_nodes(degree + 1, degree)
    r, s = np.sqrt(0.5 * (1.0 + t)), np.sqrt(0.5 * (1.0 - t))
    phi = alpha - beta
    n = np.stack([2.0 * r * s * np.cos(phi), -2.0 * r * s * np.sin(phi), r * r - s * s], axis=-1)
    return n, w * jacobian_polar(r, s) / (8.0 * r * s)


def _stage_after_R_theta(degree):
    """The after-R-theta stage as a rule on S^2 (see the module docstring)."""
    S, wS = _leggauss(degree + 1)
    (S, phi), w = _product((0.5 * (1.0 + S), 0.5 * wS), _turns(4.0 * math.pi, degree))
    rho = 2.0 * np.sqrt(S * (1.0 - S))
    n = np.stack([rho * np.cos(phi), -rho * np.sin(phi), 1.0 - 2.0 * S], axis=-1)
    return n, math.pi / 4.0 * w


def _stage_after_S(degree):
    """The after-S stage as a rule on S^2 (see the module docstring)."""
    (nz, phi), w = _product(_leggauss(degree + 1), _turns(2.0 * math.pi, degree))
    rho = np.sqrt(1.0 - nz * nz)
    return np.stack([rho * np.cos(phi), -rho * np.sin(phi), nz], axis=-1), math.pi / 4.0 * w


def _stage_after_phi(degree):
    """The after-phi stage as a rule on S^2, both roots n_y = +-q at every node.

    With n_x = rho cos(theta), rho = sqrt(1 - n_z^2), dn_x / q is dtheta, which
    the Gauss-Chebyshev rule, theta_k = (k + 1/2) pi / K with weights pi / K,
    integrates exactly for polynomials in n_x of degree < 2K.
    """
    k = degree + 1
    chebyshev = (math.pi / k * (np.arange(k) + 0.5), np.full(k, math.pi / k))
    (nz, theta), w = _product(_leggauss(degree + 1), chebyshev)
    nx = np.sqrt(1.0 - nz * nz) * np.cos(theta)
    q = np.sqrt(1.0 - nx * nx - nz * nz)
    roots = (q, -q)
    n = np.concatenate([np.stack([nx, ny, nz], axis=-1) for ny in roots])
    return n, np.tile(math.pi / 4.0 * w, len(roots))


@dataclass
class RuleMoments:
    nodes: int
    mass: float  # the sum of the weights: pi^2 = (pi/2) 2 pi for a correct rule
    max_gap: float  # worst |rule - (pi/2) int d^3n delta(n^2 - 1) f| over the monomials f
    worst: tuple  # (a, b, c) of n_x^a n_y^b n_z^c at that gap


def _moments(n, w, degree) -> RuleMoments:
    """Every moment n_x^a n_y^b n_z^c, a + b + c <= degree, of the rule (n, w) against its closed form."""
    # px[a] = n_x^a at every node, and so on
    px, py, pz = n.T[:, None, :] ** np.arange(degree + 1)[:, None]
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
    return RuleMoments(len(w), float(w.sum()), gaps[worst], worst)


def verify_constant_c(degree=PUSHFORWARD_DEGREE) -> RuleMoments:
    """The raw-4d stage's moments; the constant pi/2 is its mass over 2 pi, the sphere's."""
    return _moments(*measure_lhs(degree), degree)


def reduction_consistency(degree=PUSHFORWARD_DEGREE) -> dict:
    """{stage: RuleMoments} of the stages after raw-4d, each against the same closed form."""
    rules = (_stage_after_R_theta, _stage_after_S, _stage_after_phi)
    return {stage: _moments(*rule(degree), degree) for stage, rule in zip(STAGES[1:], rules)}


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
        lambda t: np.exp(-lam * np.cos(t)) * np.sin(t), 0.0, math.pi
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


def pushforward_uniformity(rng) -> RuleMoments:
    """Every moment n_x^a n_y^b n_z^c, a + b + c <= PUSHFORWARD_DEGREE, of the Hopf pushforward.

    Integrates each monomial of hopf_map(z) with _s3_rule, its grid rotated by
    an SU(2) element drawn from rng, and compares it with the right side of
    the identity (see the module docstring). The rule is exact, so every gap
    is rounding for a correct map.
    """
    a0, a1, a2, a3 = random_unit(rng, 4)
    u, v = complex(a0, a1), complex(a2, a3)
    z, w = _s3_rule(PUSHFORWARD_DEGREE + 1)
    z = z @ np.array([[u, -v.conjugate()], [v, u.conjugate()]]).T  # SU(2) keeps the measure
    return _moments(hopf_map(z), w, PUSHFORWARD_DEGREE)
