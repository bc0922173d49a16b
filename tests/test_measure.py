import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from o3cp1 import measure
from o3cp1.fields import hopf_map
from o3cp1.measure import (
    HALF_PI,
    MeasureDomainError,
    one_site_ratio_test,
    pushforward_uniformity,
    verify_constant_c,
)


def stage_rules(degree=measure.PUSHFORWARD_DEGREE):
    """{stage: (n, w)}: every stage's rule on S^2, in the order of measure.STAGES."""
    rules = (measure.measure_lhs, measure._stage_after_R_theta, measure._stage_after_S,
             measure._stage_after_phi)
    return {stage: rule(degree) for stage, rule in zip(measure.STAGES, rules)}


def monomials(degree):
    return [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) <= degree]


def moment(n, w, exponents):
    a, b, c = exponents
    return float(w @ (n[:, 0] ** a * n[:, 1] ** b * n[:, 2] ** c))


def random_rotation(rng):
    """The rotation of R^3 of a uniform unit quaternion."""
    q = rng.standard_normal(4)
    a, b, c, d = q / np.linalg.norm(q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


# --- the four stages --------------------------------------------------------------


def test_on_sphere_ratio_is_half_pi():
    # the raw-4d integral of 1 over the sphere's, 2 pi
    for degree in (6, 10):
        res = verify_constant_c(degree)
        assert res.mass / (2.0 * math.pi) == pytest.approx(HALF_PI, rel=0.0, abs=1e-14)
        assert res.max_gap <= 1e-13


def test_pole_point_ratio():
    # n_z^10 is largest at the poles, which the rules reach: each integrates
    # it to pi/2 times its sphere integral, (1/2) 4 pi / 11
    for stage, (n, w) in stage_rules(10).items():
        assert moment(n, w, (0, 0, 10)) == pytest.approx(HALF_PI * 2.0 * math.pi / 11.0,
                                                         rel=1e-14), stage


def test_support_off_sphere():
    # every node of every stage lies on the unit sphere, with a positive weight
    for stage, (n, w) in stage_rules().items():
        assert np.abs(np.linalg.norm(n, axis=1) - 1.0).max() <= 1e-15, stage
        assert w.min() > 0.0, stage


def test_stage_rule_node_counts():
    nodes = {stage: len(w) for stage, (_, w) in stage_rules().items()}
    assert nodes == {"raw-4d": 7 * 13 * 13, "after-R-theta": 7 * 13, "after-S": 7 * 13,
                     "after-phi": 7 * 7 * 2}


def test_rotational_invariance():
    # polynomials of degree <= 6 are closed under rotation, so each rule
    # integrates a rotated monomial as the measure does: as the unrotated rule does
    rot = random_rotation(np.random.default_rng(11))
    for stage, (n, w) in stage_rules().items():
        for e in monomials(measure.PUSHFORWARD_DEGREE):
            assert moment(n @ rot.T, w, e) == pytest.approx(moment(n, w, e), abs=1e-13), (stage, e)


def test_cartesian_cross_check():
    # measure_lhs computes n from the paper's polar formulas; hopf_map of the
    # same spinors in Cartesian components must give the same points
    t, alpha, beta, _ = measure._s3_nodes(measure.PUSHFORWARD_DEGREE + 1)
    r, s = np.sqrt(0.5 * (1.0 + t)), np.sqrt(0.5 * (1.0 - t))
    z = np.stack([r * np.cos(alpha) + 1j * r * np.sin(alpha),
                  s * np.cos(beta) + 1j * s * np.sin(beta)], axis=-1)
    np.testing.assert_allclose(measure.measure_lhs()[0], hopf_map(z), rtol=0.0, atol=1e-15)


def test_stage_values_estimate_constant():
    # every stage's mass is pi/2 times the sphere's, 2 pi
    for stage, (_, w) in stage_rules().items():
        assert w.sum() / (2.0 * math.pi) == pytest.approx(HALF_PI, rel=0.0, abs=1e-14), stage


def test_stage_consistency_pairwise():
    # every pair of stages agrees on every monomial of degree <= 6, no closed form involved
    moments = {stage: [moment(n, w, e) for e in monomials(measure.PUSHFORWARD_DEGREE)]
               for stage, (n, w) in stage_rules().items()}
    for stage in measure.STAGES:
        np.testing.assert_allclose(moments[stage], moments["raw-4d"], rtol=0.0, atol=1e-13,
                                   err_msg=stage)


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
