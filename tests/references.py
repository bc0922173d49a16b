"""Reference constructions that only the tests use, built on the package's API."""

import numpy as np

from o3cp1.actions import link_overlaps
from o3cp1.fields import CP1Field, GaugeField, SpinField


def constant_spin_field(lat, vec=(0.0, 0.0, 1.0)):
    """Every site carries the unit vector along vec."""
    vec = np.asarray(vec, dtype=float)
    return SpinField(np.tile(vec / np.linalg.norm(vec), (lat.volume, 1)))


def constant_spinor_field(lat, z=(1.0, 0.0)):
    """Every site carries the unit spinor along z."""
    z = np.asarray(z, dtype=complex)
    z = z / np.sqrt(np.sum(np.abs(z) ** 2))
    return CP1Field(np.tile(z.view(np.float64), (lat.volume, 1)))


def spinor_field(z):
    """CP1Field holding the complex spinor(s) z, shape (2,) or (N, 2)."""
    z = np.ascontiguousarray(np.atleast_2d(z), dtype=complex)
    return CP1Field(z.view(np.float64))


def optimal_gauge(lat, zf):
    """Minimizer of the gauged action over A: A*_mu(x) = Im z(x)^dag z(x+mu)."""
    zf.check(tol=1e-9)
    return GaugeField(link_overlaps(lat, zf).imag.copy())


def probe_spinor_field(probe, lat):
    """Sample the probe on a lattice, mapping site coords to the unit torus."""
    coords = lat.site_coords(np.arange(lat.volume)).astype(float)
    coords /= np.asarray(lat.dims, dtype=float)
    return spinor_field(probe.spinor(coords))


def probe_self_check(probe, x, h=1e-5, tol=1e-6):
    """Constraint and derivative consistency of an AnalyticFieldProbe at points x.

    The supplied derivative of r^2 + s^2 must vanish; every analytic
    derivative must match a central finite difference within O(h^2).
    Returns the worst derivative mismatch.
    """
    x = np.atleast_2d(x)
    r, s, _, _ = probe.polar(x)
    dr, ds, da, db = probe.polar_grad(x)
    constraint = np.abs(2 * r[:, None] * dr + 2 * s[:, None] * ds).max()
    assert constraint <= 1e-12, f"probe violates d(r^2+s^2) = 0: {constraint:.3e}"
    worst = 0.0
    for mu in range(probe.ndim):
        e = np.zeros(probe.ndim)
        e[mu] = h
        for fun, grad in (
            (lambda p: np.cos(probe.u.value(p)), dr),
            (lambda p: np.sin(probe.u.value(p)), ds),
            (probe.alpha.value, da),
            (probe.beta.value, db),
        ):
            fd = (fun(x + e) - fun(x - e)) / (2 * h)
            worst = max(worst, float(np.abs(fd - grad[:, mu]).max()))
    assert worst <= tol, f"probe derivative mismatch vs central diff: {worst:.3e}"
    return worst
