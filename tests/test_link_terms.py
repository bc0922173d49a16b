"""Property tests of the shared per-link kernels against the README identities.

For unit spinors z, z' on the two ends of a link and a real gauge value A:

    gauged:    |dz - iAz|^2        = (A - A*)^2 + |dz|^2 - A*^2,  A* = Im z^dag z'
    reduced:   |dz|^2 - (Im z^dag z')^2 = 2 - 2 Re w - (Im w)^2,  w = z^dag z'
    pullback:  (1/4)|hopf(z') - hopf(z)|^2 = 1 - |w|^2
    covariant: (A - A*)^2 + reduced term = A^2 + 2 - 2 Re w - 2 A Im w, any |w| <= 1

The left-hand sides are written out here, independently of the package.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from o3cp1.actions import gauge_term, pullback_term, reduced_term, spinor_overlap
from o3cp1.fields import PAULI, CP1Field, FieldError
from o3cp1.lattice import build_lattice
from references import constant_spinor_field

_coord = st.floats(-1.0, 1.0, allow_nan=False)
_raw = st.tuples(_coord, _coord, _coord, _coord).filter(
    lambda v: sum(c * c for c in v) > 1e-2
)
unit_spinors = _raw.map(
    lambda v: np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]]) / np.sqrt(sum(c * c for c in v))
)
gauge_values = st.floats(-10.0, 10.0, allow_nan=False)
disk_points = st.tuples(_coord, _coord).filter(lambda v: v[0] ** 2 + v[1] ** 2 <= 1.0).map(
    lambda v: complex(*v)
)


def pauli_vector(z):
    return np.array([np.real(np.conj(z) @ PAULI[a] @ z) for a in range(3)])


@given(unit_spinors, unit_spinors, gauge_values)
def test_gauged_identity(z, zp, a):
    dz = zp - z
    astar = np.imag(np.vdot(z, zp))
    covariant = np.sum(np.abs(dz - 1j * a * z) ** 2)
    expanded = (a - astar) ** 2 + np.sum(np.abs(dz) ** 2) - astar**2
    w = spinor_overlap(z, zp)
    assert np.isclose(covariant, expanded, rtol=0, atol=1e-10)
    assert np.isclose(covariant, gauge_term(a, w) + reduced_term(w), rtol=0, atol=1e-10)


@given(disk_points, gauge_values)
def test_covariant_term_is_affine_in_the_overlap(w, a):
    # the (Im w)^2 of the two kernels cancel, so a site's covariant action is
    # affine in its spinor: the local field of mc._delta_s
    affine = a * a + 2.0 - 2.0 * w.real - 2.0 * a * w.imag
    assert np.isclose(gauge_term(a, w) + reduced_term(w), affine, rtol=0, atol=1e-12)


@given(unit_spinors, unit_spinors)
def test_reduced_identity(z, zp):
    lhs = np.sum(np.abs(zp - z) ** 2) - np.imag(np.vdot(z, zp)) ** 2
    assert np.isclose(lhs, reduced_term(spinor_overlap(z, zp)), rtol=0, atol=1e-12)


@given(unit_spinors, unit_spinors)
def test_pullback_identity(z, zp):
    dn = pauli_vector(zp) - pauli_vector(z)
    lhs = 0.25 * np.dot(dn, dn)
    assert np.isclose(lhs, pullback_term(spinor_overlap(z, zp)), rtol=0, atol=1e-12)


def test_complex_view_shares_the_buffer():
    zf = constant_spinor_field(build_lattice([3]))
    zf.z[1] = [0.6j, -0.8]
    assert list(zf.data[1]) == [0.0, 0.6, -0.8, 0.0]
    zf.data[2] = [0.0, 0.0, 0.0, 1.0]
    assert zf.z[2, 1] == 1j
    assert zf.data.flags.c_contiguous and zf.data.dtype == np.float64
    with pytest.raises(FieldError):
        CP1Field(np.zeros((3, 3)))
