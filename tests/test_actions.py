import math

import numpy as np
import pytest

from scipy import integrate

from o3cp1 import actions, measure
from o3cp1.actions import (
    ActionError,
    QuadratureError,
    action_cp1_gauged,
    action_cp1_reduced,
    action_o3,
    action_o3_pullback,
    gauge_marginal_closed_form,
    link_overlaps,
    marginalize_gauge_numeric,
    o3_action_density_from_polar,
    partition_constants,
    polar_action_density,
    polar_identity_max_violation,
)
from o3cp1.fields import CP1Field, GaugeField, SpinField, hopf_map
from o3cp1.lattice import build_lattice
from references import (
    constant_spin_field,
    constant_spinor_field,
    optimal_gauge,
    probe_spinor_field,
    random_probe,
    spinor_field,
)


def phase_field(lat, theta):
    """z(x) = (e^{i theta(x)}, 0)."""
    z = np.stack([np.exp(1j * theta), np.zeros_like(theta, dtype=complex)], axis=-1)
    return spinor_field(z)


def test_coupling_validation():
    with pytest.raises(ActionError):
        action_o3(build_lattice([2]), constant_spin_field(build_lattice([2])), -1.0)


def test_action_o3_constant_zero():
    for dims in ([4], [3, 3], [2, 2, 2]):
        lat = build_lattice(dims)
        for g in (0.5, 1.0, 2.0):
            assert action_o3(lat, constant_spin_field(lat), g) == 0.0


def test_action_o3_two_site_antipodal():
    lat = build_lattice([2])
    spin = SpinField(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert action_o3(lat, spin, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_action_o3_refinement_to_continuum():
    g = 1.0
    devs = []
    for L in (8, 16, 32, 64):
        lat = build_lattice([L])
        x = np.arange(L)
        n = np.stack(
            [np.cos(2 * np.pi * x / L), np.sin(2 * np.pi * x / L), np.zeros(L)], axis=1
        )
        s = action_o3(lat, SpinField(n), g)
        devs.append(abs(s - np.pi**2 / (g * L)) / (np.pi**2 / (g * L)))
    # O(L^-2): each doubling shrinks the deviation by about 4
    ratios = [devs[i] / devs[i + 1] for i in range(3)]
    assert all(3.5 < r < 4.5 for r in ratios)


def test_action_o3_rejects_unnormalized():
    lat = build_lattice([4])
    spin = constant_spin_field(lat)
    spin.n[1] *= 2.0
    with pytest.raises(Exception):
        action_o3(lat, spin, 1.0)


def test_action_o3_rotation_invariance():
    rng = np.random.default_rng(0)
    lat = build_lattice([4, 4])
    spin = SpinField.random(lat, rng)
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
    rotated = SpinField(spin.n @ rot.T)
    assert action_o3(lat, rotated, 0.7) == pytest.approx(
        action_o3(lat, spin, 0.7), abs=1e-12
    )


def test_action_gauged_constant_and_single_link():
    lat = build_lattice([6])
    zf = constant_spinor_field(lat)
    assert action_cp1_gauged(lat, zf, GaugeField.zeros(lat), 1.0) == 0.0
    gauge = GaugeField.zeros(lat)
    gauge.a[2, 0] = 0.37
    assert action_cp1_gauged(lat, zf, gauge, 1.0) == pytest.approx(0.37**2, rel=1e-14)


def test_reduced_phase_winding_per_link():
    lat = build_lattice([6])
    theta = np.arange(6) * np.pi / 3
    zf = phase_field(lat, theta)
    s = action_cp1_reduced(lat, zf, 1.0)
    # per link: (1 - cos(pi/3))^2 = 0.25
    assert s / lat.n_links == pytest.approx(0.25, abs=1e-14)


def test_reduced_constant_zero_and_global_phase_invariance():
    rng = np.random.default_rng(1)
    lat = build_lattice([3, 3])
    assert action_cp1_reduced(lat, constant_spinor_field(lat), 2.0) == 0.0
    zf = CP1Field.random(lat, rng)
    rotated = spinor_field(np.exp(1j * 0.83) * zf.z)
    assert action_cp1_reduced(lat, rotated, 1.3) == pytest.approx(
        action_cp1_reduced(lat, zf, 1.3), abs=1e-12
    )


def test_optimal_gauge_constant_and_phase_field():
    lat = build_lattice([6])
    assert np.all(optimal_gauge(lat, constant_spinor_field(lat)).a == 0.0)
    theta = np.array([0.0, 0.4, 1.1, 1.9, 3.0, 4.6])
    zf = phase_field(lat, theta)
    astar = optimal_gauge(lat, zf).a[:, 0]
    expected = np.sin(np.roll(theta, -1) - theta)
    assert np.allclose(astar, expected, atol=1e-14)


def test_gauged_at_optimum_equals_reduced():
    rng = np.random.default_rng(2)
    for dims, g in (([4, 4], 0.7), ([5], 1.6), ([2, 2], 1.0)):
        lat = build_lattice(dims)
        zf = CP1Field.random(lat, rng)
        astar = optimal_gauge(lat, zf)
        assert action_cp1_gauged(lat, zf, astar, g) == pytest.approx(
            action_cp1_reduced(lat, zf, g), abs=1e-12
        )
    # phase-winding special case from the gauged-action contract
    lat = build_lattice([6])
    zf = phase_field(lat, np.arange(6) * 0.7)
    assert action_cp1_gauged(lat, zf, optimal_gauge(lat, zf), 1.0) == pytest.approx(
        action_cp1_reduced(lat, zf, 1.0), abs=1e-12
    )


def test_single_link_perturbation_quadratic():
    rng = np.random.default_rng(3)
    lat = build_lattice([4, 4])
    zf = CP1Field.random(lat, rng)
    g = 1.7
    base = action_cp1_gauged(lat, zf, optimal_gauge(lat, zf), g)
    for eps in (0.3, -0.52, 1.1):
        gauge = optimal_gauge(lat, zf)
        gauge.a[5, 1] += eps
        bumped = action_cp1_gauged(lat, zf, gauge, g)
        assert bumped - base == pytest.approx(eps**2 / g, rel=1e-10)


def test_optimal_gauge_is_strict_minimum():
    rng = np.random.default_rng(4)
    lat = build_lattice([3, 3])
    for _ in range(100):
        zf = CP1Field.random(lat, rng)
        g = float(rng.uniform(0.5, 2.0))
        astar = optimal_gauge(lat, zf)
        at_min = action_cp1_gauged(lat, zf, astar, g)
        site = int(rng.integers(lat.volume))
        mu = int(rng.integers(lat.ndim))
        for _ in range(10):
            gauge = GaugeField(astar.a.copy())
            gauge.a[site, mu] += float(rng.uniform(-2, 2)) or 0.1
            assert action_cp1_gauged(lat, zf, gauge, g) > at_min


def test_marginalization_trivial_values():
    # a constant field has b = 0 on every link
    assert marginalize_gauge_numeric(0.0, 1.0).value == pytest.approx(
        math.sqrt(math.pi), rel=1e-12
    )
    assert marginalize_gauge_numeric(0.0, 2.0).value == pytest.approx(
        math.sqrt(2 * math.pi), rel=1e-12
    )


def test_marginalization_known_overlap():
    res = marginalize_gauge_numeric(0.3, 1.0)
    assert res.value == pytest.approx(math.sqrt(math.pi) * math.exp(0.09), rel=1e-10)
    assert res.tail_bound < 1e-14 * res.value


def test_marginalization_random_links_match_closed_form():
    rng = np.random.default_rng(5)
    lat = build_lattice([3, 3])
    worst = 0.0
    for g in (0.5, 1.0, 2.0):
        for _ in range(30):
            zf = CP1Field.random(lat, rng)
            site = int(rng.integers(lat.volume))
            mu = int(rng.integers(lat.ndim))
            b = link_overlaps(lat, zf)[site, mu].imag
            res = marginalize_gauge_numeric(b, g)
            worst = max(worst, abs(res.value - res.closed_form) / res.closed_form)
            log_gap = abs(
                math.log(res.value) - (0.5 * math.log(math.pi * g) + b * b / g)
            )
            assert log_gap < 1e-8
    assert worst < 1e-8


@pytest.mark.parametrize("g", [0.05, 0.5, 1.0, 2.0, 10.0])
def test_adaptive_rule_matches_scipy_quad_on_marginalization_integrand(g):
    # marginalize_gauge_numeric's window, b +- K sqrt(g) about the Gaussian mean
    span = actions.GAUGE_HALF_WIDTH * math.sqrt(g)
    for b in (-1.0, -0.3, 0.0, 0.7, 1.0):
        lo, hi = b - span, b + span
        value, error = measure.gauss_legendre_quad(
            lambda a: np.exp(-(a * a - 2.0 * a * b) / g), lo, hi
        )
        ref, _ = integrate.quad(lambda a: math.exp(-(a * a - 2.0 * a * b) / g), lo, hi,
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert error <= 1e-12 * value


@pytest.mark.parametrize("g", [1e-4, 0.05, 1.0, 100.0])
def test_marginalization_matches_the_closed_form_in_one_pair(g):
    # centred on its Gaussian mean, every (b, g) is the same integral in units
    # of sqrt(g), which the one 64/128-point pair resolves; b = 0 is the one
    # overlap that keeps b^2/g < 700 at g = 1e-4
    for b in (-1.0, 0.0, 0.3, 1.0):
        if b * b / g >= 700.0:
            continue
        res = marginalize_gauge_numeric(b, g)
        assert abs(res.value - res.closed_form) <= 1e-12 * res.closed_form, (b, g)
        assert res.tail_bound == res.closed_form * math.erfc(actions.GAUGE_HALF_WIDTH)


def test_marginalization_raises_when_the_rule_does_not_converge(monkeypatch):
    monkeypatch.setattr(actions, "gauss_legendre_quad", lambda f, lo, hi: (1.0, 1e-6))
    with pytest.raises(QuadratureError):
        marginalize_gauge_numeric(0.0, 1.0)
    monkeypatch.setattr(actions, "gauss_legendre_quad", lambda f, lo, hi: (math.nan, math.nan))
    with pytest.raises(QuadratureError):
        marginalize_gauge_numeric(0.0, 1.0)


def random_jets(rng, n, ndim):
    """n random 1-jets (u, phi, du, dalpha, dbeta) over the whole sphere."""
    u = rng.uniform(0.0, math.pi / 2, n)
    phi = rng.uniform(0.0, 2 * math.pi, n)
    du, dalpha, dbeta = rng.normal(0.0, 4.0, (3, n, ndim))
    return u, phi, du, dalpha, dbeta


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_polar_identity_on_random_jets(ndim):
    u, phi, du, dalpha, dbeta = random_jets(np.random.default_rng(6), 2000, ndim)
    assert np.median(polar_action_density(u, du, dalpha, dbeta, 0.8)) > 1.0
    assert polar_identity_max_violation(u, phi, du, dalpha, dbeta, g=0.8) < 1e-10


def test_polar_identity_closed_form_case():
    # dalpha = dbeta: n moves only through u, and both densities are |du|^2 / g
    u, phi, du, dalpha, _ = random_jets(np.random.default_rng(10), 50, 2)
    g = 1.4
    expected = (du**2).sum(axis=1) / g
    np.testing.assert_allclose(polar_action_density(u, du, dalpha, dalpha, g), expected,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(o3_action_density_from_polar(u, phi, du, dalpha, dalpha, g),
                               expected, rtol=1e-12, atol=0)


def test_pullback_action_equals_o3_of_hopf():
    rng = np.random.default_rng(7)
    lat = build_lattice([4, 3])
    zf = CP1Field.random(lat, rng)
    spin = SpinField(hopf_map(zf.z))
    assert action_o3_pullback(lat, zf, 1.3) == pytest.approx(
        action_o3(lat, spin, 1.3), abs=1e-12
    )


def test_reduced_minus_pullback_gap_identity():
    # exact lattice identity: per link the gap is (1 - Re z^dag z')^2
    rng = np.random.default_rng(8)
    lat = build_lattice([4, 4])
    zf = CP1Field.random(lat, rng)
    g = 1.0
    w = link_overlaps(lat, zf)
    gap = float(np.sum((1.0 - w.real) ** 2)) / g
    assert action_cp1_reduced(lat, zf, g) - action_o3_pullback(lat, zf, g) == pytest.approx(
        gap, abs=1e-12
    )


def test_partition_constants_bookkeeping():
    g = 1.3
    lat = build_lattice([4, 4])
    consts = partition_constants(lat, g)
    assert consts["per_site_formal_factor"] == pytest.approx(
        math.pi**3 * g**2 / 2.0, rel=1e-14
    )
    assert consts["log_total_lattice"] == pytest.approx(
        lat.n_links * 0.5 * math.log(math.pi * g)
        + lat.volume * math.log(math.pi / 2.0),
        rel=1e-14,
    )


def test_probe_spinor_field_is_normalized():
    rng = np.random.default_rng(9)
    probe = random_probe(rng, ndim=2)
    lat = build_lattice([6, 6])
    zf = probe_spinor_field(probe, lat)
    zf.check(tol=1e-12)
