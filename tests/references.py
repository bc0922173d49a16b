"""Reference constructions that only the tests use, built on the package's API."""

import numpy as np

from o3cp1.actions import link_overlaps
from o3cp1.fields import CP1Field, GaugeField


def optimal_gauge(lat, zf):
    """Minimizer of the gauged action over A: A*_mu(x) = Im z(x)^dag z(x+mu)."""
    zf.check(tol=1e-9)
    return GaugeField(link_overlaps(lat, zf).imag.copy())


def probe_spinor_field(probe, lat):
    """Sample the probe on a lattice, mapping site coords to the unit torus."""
    coords = lat.site_coords(np.arange(lat.volume)).astype(float)
    coords /= np.asarray(lat.dims, dtype=float)
    return CP1Field.from_complex(probe.spinor(coords))
