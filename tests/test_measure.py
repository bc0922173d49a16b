import math

import numpy as np
import pytest
from scipy import integrate, optimize

from o3cp1 import measure
from o3cp1.fields import hopf_map
from o3cp1.measure import (
    HALF_PI,
    STAGE_LADDER,
    MeasureDomainError,
    _as_point,
    measure_lhs,
    mollified_delta,
    one_site_ratio_test,
    phi_roots,
    pushforward_uniformity,
    random_sphere_points,
    reduction_consistency,
    reduction_stage_value,
    stage_reference,
    verify_constant_c,
)
from references import measure_lhs_unfactored


# --- references only the tests use -----------------------------------------------


def angular_pair_integral_bessel(rho, rho_xy, eps):
    """Closed form of the phi integral of the two in-plane deltas.

    2*pi * int_0^{2pi} dphi delta_eps(n_x - rho cos phi) delta_eps(n_y + rho sin phi)
      = (2*pi / eps^2) * exp(-(rho - rho_xy)^2 / (2 eps^2)) * I0e(rho rho_xy / eps^2)

    with rho_xy = hypot(n_x, n_y); scipy's i0e, an independent cross-check of
    measure._angular_integral and its numpy-only _i0e.
    """
    from scipy import special

    rho = np.asarray(rho, dtype=float)
    return (
        (2.0 * math.pi / eps**2)
        * np.exp(-((rho - rho_xy) ** 2) / (2.0 * eps**2))
        * special.i0e(rho * rho_xy / eps**2)
    )


def measure_lhs_cartesian(n, eps, steps_per_eps=3.0, window_sigmas=10.0) -> float:
    """Low-resolution 4D Cartesian-grid evaluation of the same integral.

    Brute-force cross-check of the polar route; cost grows as eps^-4, so use
    a coarse eps (around 0.15) and a single test point.
    """
    n = _as_point(n)
    nx, ny, nz = n
    half = 1.0 + window_sigmas * eps
    h = eps / steps_per_eps
    ax = np.arange(-half, half + h / 2.0, h)
    a2, a3, a4 = np.meshgrid(ax, ax, ax, indexing="ij")
    total = 0.0
    for x1 in ax:
        norm2 = x1 * x1 + a2 * a2 + a3 * a3 + a4 * a4
        w = (x1 - 1j * a2) * (a3 + 1j * a4)  # conj(z1) * z2
        hz = (x1 * x1 + a2 * a2) - (a3 * a3 + a4 * a4)
        total += float(
            (
                mollified_delta(norm2 - 1.0, eps)
                * mollified_delta(nx - 2.0 * w.real, eps)
                * mollified_delta(ny - 2.0 * w.imag, eps)
                * mollified_delta(nz - hz, eps)
            ).sum()
        )
    return total * h**4


# --- tests --------------------------------------------------------------------------


def test_on_sphere_ratio_is_half_pi():
    rng = np.random.default_rng(10)
    for p in random_sphere_points(rng, 3):
        for eps in (0.1, 0.05):
            ratio = reduction_stage_value(p, eps, "raw-4d").constant
            assert ratio == pytest.approx(HALF_PI, rel=1e-6)


def test_pole_point_ratio():
    n = np.array([0.0, 0.0, 1.0])
    assert reduction_stage_value(n, 0.05, "raw-4d").constant == pytest.approx(HALF_PI, rel=1e-6)


def test_support_off_sphere():
    assert measure_lhs(np.array([0.0, 0.0, 2.0]), 0.025) < 1e-12
    assert measure_lhs(np.array([1.4, 0.0, 0.0]), 0.025) < 1e-12


def test_rotational_invariance():
    rng = np.random.default_rng(11)
    p = random_sphere_points(rng, 1)[0]
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )
    eps = 0.05
    assert measure_lhs(rot @ p, eps) == pytest.approx(measure_lhs(p, eps), rel=1e-7)


def test_angular_integral_bessel_matches_trapezoid():
    eps = 0.05
    nx, ny = 0.4, -0.55
    rho_xy = math.hypot(nx, ny)
    n_phi = 4000
    phi = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    for rho in (0.55, 0.68, 0.8):
        direct = (
            mollified_delta(nx - rho * np.cos(phi), eps)
            * mollified_delta(ny + rho * np.sin(phi), eps)
        ).sum() * (2 * np.pi / n_phi) * 2 * np.pi
        closed = angular_pair_integral_bessel(rho, rho_xy, eps)
        assert direct == pytest.approx(closed, rel=1e-10)


def angular_sum_direct(nx, ny, rho, eps, phi):
    """The angular sum as two Gaussians per grid point, without factoring or skipping."""
    rho = np.asarray(rho, dtype=float)[:, None]
    return (
        mollified_delta(nx - rho * np.cos(phi), eps) * mollified_delta(ny + rho * np.sin(phi), eps)
    ).sum(axis=1)


def angular_integral_direct(nx, ny, rho, eps, period, start=0.0):
    """The angle integral by angular_sum_direct on a grid of spacing eps/8 from start.

    Takes measure._angular_integral's arguments so that it can stand in for it.
    Rows go 512 at a time, to bound the (rows, angles) temporaries.
    """
    n_phi = int(math.ceil(8.0 * period / eps))
    phi = np.linspace(start, start + period, n_phi, endpoint=False)
    rho = np.asarray(rho, dtype=float)
    rows = rho.reshape(-1)
    total = np.concatenate(
        [angular_sum_direct(nx, ny, rows[i : i + 512], eps, phi) for i in range(0, len(rows), 512)]
    )
    return (total * (period / n_phi)).reshape(rho.shape)


def test_i0e_matches_scipy_to_rounding():
    from scipy import special

    # both sides of the switch to the series, and the largest kappa = rho q / eps^2
    # the quadratures reach: rho q <= 2.05 at eps = 0.025
    x = np.concatenate([np.linspace(0.0, 1e5, 6000), [699.9, 700.0, 700.1, 2.05 / 0.025**2]])
    np.testing.assert_allclose(measure._i0e(x), special.i0e(x), rtol=1e-15, atol=0)


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("start, period", [(0.0, 2 * np.pi), (-2 * np.pi, 4 * np.pi)])
def test_angular_sum_matches_direct_sum_and_bessel(eps, start, period):
    # rho q / eps^2 reaches 748 at eps = 0.025, past _i0e's switch at 700
    rng = np.random.default_rng(20)
    for _ in range(3):
        nx, ny = rng.uniform(-0.7, 0.7, 2)
        q = math.hypot(nx, ny)
        rho = q + eps * np.linspace(-6.0, 6.0, 25)
        rho = rho[rho > 0]
        ang = measure._angular_integral(nx, ny, rho, eps, period)
        direct = angular_integral_direct(nx, ny, rho, eps, period, start)
        np.testing.assert_allclose(ang, direct, rtol=1e-13, atol=0)
        closed = angular_pair_integral_bessel(rho, q, eps) * period / (2 * np.pi)
        np.testing.assert_allclose(2 * np.pi * ang, closed, rtol=1e-13, atol=0)


def test_quadratures_match_the_unfactored_angular_sum(monkeypatch):
    rng = np.random.default_rng(21)
    points = random_sphere_points(rng, 2, min_q=0.55, max_abs_nz=0.8)
    stage_points = [(p, e, s) for p in points for e in STAGE_LADDER for s in measure.STAGES]

    def evaluate():
        lhs = [measure_lhs(p, 0.1) for p in points]
        return lhs + [reduction_stage_value(p, e, s).value for p, e, s in stage_points]

    closed = evaluate()
    monkeypatch.setattr(measure, "_angular_integral", angular_integral_direct)
    np.testing.assert_allclose(closed, evaluate(), rtol=1e-12, atol=0)


def test_factored_radial_weight_matches_the_two_deltas():
    # measure_lhs multiplies an r factor by an s factor. Per node the two forms
    # differ by rounding, up to 1e-13 relative in the far tails where the
    # deltas' arguments cancel; the sums, set by the bulk, agree to 1e-14
    rng = np.random.default_rng(24)
    for p in random_sphere_points(rng, 4):
        for eps in (0.15,) + measure.EPS_LADDER + STAGE_LADDER:
            assert measure_lhs(p, eps) == pytest.approx(measure_lhs_unfactored(p, eps),
                                                        rel=1e-14, abs=0)


def test_cached_gauss_legendre_rule_is_read_only():
    x, w = measure._leggauss(160)
    x_ref, w_ref = np.polynomial.legendre.leggauss(160)
    # the cached rule is numpy's, refined by one Newton step on P_n
    np.testing.assert_allclose(x, x_ref, rtol=0, atol=1e-15)
    np.testing.assert_allclose(w, w_ref, rtol=1e-10)
    assert measure._leggauss(160)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n", [64, 96, 128, 160, 400])
def test_gauss_legendre_rule_is_exact_to_rounding(n):
    # the rule integrates 1, x^2 and x^4 over [-1, 1] exactly
    x, w = measure._leggauss(n)
    for power, exact in ((0, 2.0), (2, 2.0 / 3.0), (4, 2.0 / 5.0)):
        assert abs(math.fsum(w * x**power) - exact) <= 1e-15


def test_cartesian_cross_check():
    rng = np.random.default_rng(12)
    p = random_sphere_points(rng, 1)[0]
    eps = 0.15
    polar = measure_lhs(p, eps)
    cart = measure_lhs_cartesian(p, eps)
    assert cart == pytest.approx(polar, rel=1e-6)


def test_verify_constant_default_ladder():
    rng = np.random.default_rng(13)
    points = random_sphere_points(rng, 10)
    ratios = verify_constant_c(points)
    assert ratios.shape == (10, len(measure.EPS_LADDER))
    assert np.allclose(ratios, HALF_PI, rtol=1e-6, atol=0.0)
    assert np.ptp(ratios) < 1e-8


def test_verify_constant_rotated_points():
    rng = np.random.default_rng(14)
    points = random_sphere_points(rng, 10)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )
    ratios = verify_constant_c(points @ rot.T)
    assert np.allclose(ratios, HALF_PI, rtol=1e-4, atol=0.0)


def test_verify_constant_requires_points():
    rng = np.random.default_rng(16)
    with pytest.raises(MeasureDomainError):
        verify_constant_c(random_sphere_points(rng, 5))
    off = random_sphere_points(rng, 10) * 1.2
    with pytest.raises(MeasureDomainError):
        verify_constant_c(off)


# --- reduction stages ---------------------------------------------------------


def test_phi_roots_examples():
    phi0, fprime = phi_roots([0.0, 0.8, -0.6])
    assert phi0 == pytest.approx(np.pi / 2, abs=1e-15)
    assert fprime == pytest.approx(0.8, abs=1e-15)
    _, fprime = phi_roots([0.5, 0.5, 1 / math.sqrt(2)])
    assert fprime == pytest.approx(0.5, abs=1e-14)


def test_phi_roots_against_numeric_root_finder():
    rng = np.random.default_rng(17)
    for p in random_sphere_points(rng, 20, min_q=0.3):
        nx, _, nz = p
        rho_z = math.sqrt(1 - nz * nz)
        f = lambda phi: rho_z * math.cos(phi) - nx
        phi0, fprime = phi_roots(p)
        root = optimize.brentq(f, 0.0, math.pi, xtol=1e-14)
        assert abs(root - phi0) < 1e-10
        h = 1e-6
        fprime_fd = abs((f(root + h) - f(root - h)) / (2 * h))
        assert abs(fprime_fd - fprime) < 1e-8
        assert abs(fprime - math.sqrt(1 - p[0] ** 2 - p[2] ** 2)) < 1e-10


def test_phi_roots_domain_errors():
    with pytest.raises(MeasureDomainError):
        phi_roots([0.0, 0.0, 1.0])
    with pytest.raises(MeasureDomainError):
        phi_roots([0.9, 0.1, 0.5])  # |n_x| > sqrt(1 - n_z^2)


def test_stage_values_estimate_constant():
    rng = np.random.default_rng(18)
    p = random_sphere_points(rng, 1, min_q=0.55, max_abs_nz=0.8)[0]
    for stage in measure.STAGES:
        sv = reduction_stage_value(p, 0.025, stage)
        assert sv.constant == pytest.approx(HALF_PI, rel=2e-3)


def test_stage_consistency_pairwise():
    # every pair of stages agrees at every width, nothing extrapolated
    rng = np.random.default_rng(19)
    for p in random_sphere_points(rng, 2, min_q=0.55, max_abs_nz=0.8):
        ratios = reduction_consistency(p)
        assert ratios.shape == (len(measure.STAGES), len(STAGE_LADDER))
        assert np.ptp(ratios, axis=0).max() <= 1e-13
        np.testing.assert_allclose(ratios, HALF_PI, rtol=1e-13, atol=0)


def test_raw_vs_after_R_theta_at_example_point():
    # n_y = 0 sits on the singular locus of the later stages, but the first
    # two stages are regular there and must agree at every width
    n = np.array([0.6, 0.0, 0.8])
    for eps in STAGE_LADDER:
        raw, after = (reduction_stage_value(n, eps, s).constant
                      for s in ("raw-4d", "after-R-theta"))
        assert abs(raw - after) <= 1e-13, eps
        assert raw == pytest.approx(HALF_PI, rel=1e-13, abs=0.0)


def test_stage_ratios_width_by_width():
    # each stage's reference is smoothed by the mollifiers that stage keeps,
    # so every ratio is pi/2 to rounding at every width
    rng = np.random.default_rng(20)
    for p in random_sphere_points(rng, 3, min_q=0.55, max_abs_nz=0.8):
        for eps in STAGE_LADDER:
            for stage in measure.STAGES:
                ratio = reduction_stage_value(p, eps, stage).constant
                assert abs(ratio - HALF_PI) <= 1e-13, (stage, eps, ratio)


def test_after_S_reference_is_the_smoothed_circle():
    # delta(|m|^2 - rho_z^2) under the 2D Gaussian of width eps: with
    # m = rho_z (cos t, sin t) the circle delta leaves dt / 2, and the
    # periodic trapezoid rule in t converges exponentially
    rng = np.random.default_rng(25)
    t = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    for p in random_sphere_points(rng, 3, min_q=0.55, max_abs_nz=0.8):
        rho_z = math.sqrt(1.0 - p[2] ** 2)
        for eps in STAGE_LADDER:
            direct = 0.5 * (2.0 * np.pi / t.size) * np.sum(
                mollified_delta(p[0] - rho_z * np.cos(t), eps)
                * mollified_delta(p[1] - rho_z * np.sin(t), eps))
            assert stage_reference(p, eps, "after-S") == pytest.approx(direct, rel=1e-13)


def test_stage_rejects_singular_locus():
    # on-sphere point with small |f'|: n_x^2 + n_z^2 close to 1
    n = np.array([0.6, 0.05, math.sqrt(1 - 0.36 - 0.0025)])
    with pytest.raises(MeasureDomainError):
        reduction_stage_value(n, 0.05, "after-phi")
    with pytest.raises(MeasureDomainError):
        reduction_consistency(n)


# --- one-site ratio -------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.5, 10.0])
def test_adaptive_rule_matches_scipy_quad_on_one_site_integrands(lam):
    cases = (
        (lambda chi: math.cos(chi) * math.sin(chi) * math.exp(-lam * math.cos(2 * chi)),
         0.0, math.pi / 2),
        (lambda t: math.exp(-lam * math.cos(t)) * math.sin(t), 0.0, math.pi),
    )
    for f, lo, hi in cases:
        value, error = measure.gauss_legendre_quad(np.vectorize(f), lo, hi)
        ref, _ = integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert error <= 1e-13 * abs(value)


def test_adaptive_rule_never_claims_unreached_convergence():
    # 1/sqrt(x) is singular at 0: the 64/128-point pair does not resolve it
    value, error = measure.gauss_legendre_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert error > 1e-14 * abs(value)
    # the estimate has the size of the true error (Q_2n converges slowly here too)
    assert error / 2.0 < abs(value - 2.0) < 2.0 * error


def test_adaptive_rule_nonfinite_integrand_fails_callers_check(monkeypatch):
    monkeypatch.setattr(measure, "gauss_legendre_quad", lambda *a: (math.nan, math.nan))
    with pytest.raises(MeasureDomainError):
        one_site_ratio_test(1.0)


def sinh_over_lam_oracle(lam):
    """Independent 1D integral (1/2) int_{-1}^{1} e^{-lam u} du."""
    val, _ = integrate.quad(lambda u: math.exp(-lam * u), -1.0, 1.0, epsabs=1e-14)
    return val / 2.0


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.5, -10.0, 10.0])
def test_one_site_ratio(lam):
    # the S^3 rule, 16 nodes in t and 13 x 13 phases, is exact to rounding for |lam| <= 10
    res = one_site_ratio_test(lam)
    assert res.rel_diff < 1e-6
    assert res.nodes == 2704
    assert res.lhs == pytest.approx(res.reference, rel=1e-14)
    expected = math.pi**2 * sinh_over_lam_oracle(lam)
    assert res.lhs == pytest.approx(expected, rel=1e-10)
    assert res.rhs == pytest.approx(expected, rel=1e-10)


def test_one_site_ratio_lambda_zero_is_pi_squared():
    res = one_site_ratio_test(0.0)
    assert res.lhs == pytest.approx(9.8696044, abs=1e-6)
    assert res.rhs == pytest.approx(math.pi**2, rel=1e-12)


def test_one_site_ratio_lambda_one_value():
    res = one_site_ratio_test(1.0)
    assert res.lhs == pytest.approx(math.pi**2 * 1.1752012, rel=1e-7)


def test_one_site_refuses_a_lambda_its_rule_does_not_resolve():
    with pytest.raises(MeasureDomainError, match="relative error"):
        one_site_ratio_test(50.0)


# --- pushforward ----------------------------------------------------------------


def sphere_moment_oracle(a, b, c):
    """<n_x^a n_y^b n_z^c> on the unit sphere, by scipy quadrature in polar angles."""
    def f(theta, phi):
        st = math.sin(theta)
        return (st * math.cos(phi)) ** a * (st * math.sin(phi)) ** b * math.cos(theta) ** c * st

    val, _ = integrate.dblquad(f, 0.0, 2 * math.pi, 0.0, math.pi, epsabs=1e-13, epsrel=1e-12)
    return val / (4 * math.pi)


def test_pushforward_moments_are_exact():
    # test_pushforward_passes_at_every_seed reads the row at verify's seeds 0-199
    res = pushforward_uniformity(np.random.default_rng(0))
    assert (measure.PUSHFORWARD_DEGREE, res.nodes) == (6, 7 * 13 * 13)
    assert res.max_gap < 1e-14
    assert sum(res.worst) <= 6


def test_pushforward_closed_form_moments_match_quadrature():
    # the closed form the row compares with, against an independent S^2 quadrature
    rule = measure._s3_rule(measure.PUSHFORWARD_DEGREE + 1)
    assert rule[1].sum() == pytest.approx(math.pi**2, rel=1e-15)
    n = hopf_map(rule[0])
    for a, b, c in [(0, 0, 2), (2, 2, 2), (0, 4, 0), (1, 0, 1)]:
        rule_value = rule[1] @ (n[:, 0] ** a * n[:, 1] ** b * n[:, 2] ** c)
        assert rule_value == pytest.approx(math.pi**2 * sphere_moment_oracle(a, b, c),
                                           rel=1e-12, abs=1e-13)


def test_identity_reference_positive_and_peaked():
    n = np.array([0.0, 1.0, 0.0])
    assert stage_reference(n, 0.05, "raw-4d") > stage_reference(1.2 * n, 0.05, "raw-4d") > 0.0
    with pytest.raises(MeasureDomainError, match="n = 0"):
        stage_reference(np.zeros(3), 0.05, "raw-4d")
