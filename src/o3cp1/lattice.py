"""Hypercubic periodic lattice geometry.

Sites are indexed row-major with direction 0 fastest: for dims = [d0, d1, ...]
site = x0 + d0*(x1 + d1*(x2 + ...)). Lattice spacing is 1; all derived
quantities are in lattice units. Instances are immutable after construction
and safe to share between chains.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import O3CP1Error


class LatticeError(O3CP1Error, ValueError):
    """Invalid lattice geometry or out-of-range site/direction."""


@dataclass(frozen=True)
class Lattice:
    """Periodic hypercubic lattice with precomputed neighbor tables."""

    dims: tuple
    volume: int = field(init=False)
    ndim: int = field(init=False)
    n_links: int = field(init=False)
    # neighbors[0, mu, site] = forward neighbor, [1, mu, site] = backward: each
    # (direction, sign) table is one contiguous row, so gathers need no copy
    neighbors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise LatticeError("dims must be non-empty")
        for d in dims:
            if d < 2:
                raise LatticeError(f"every dim must be >= 2, got {d} in {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "ndim", len(dims))
        object.__setattr__(self, "volume", math.prod(dims))
        object.__setattr__(self, "n_links", self.volume * self.ndim)
        try:
            object.__setattr__(self, "neighbors", self._build_neighbors())
        except (ValueError, MemoryError) as exc:  # numpy refuses tables this large
            raise LatticeError(f"lattice of {self.volume} sites is too large: {exc}") from None

    def _build_neighbors(self):
        grid = np.arange(self.volume).reshape(self.dims[::-1])  # axis ndim-1-mu is x_mu
        nbr = np.empty((2, self.ndim, self.volume), dtype=np.int64)
        for mu in range(self.ndim):
            for k, roll in enumerate((-1, +1)):  # rolling by -1 brings site x + mu to x
                nbr[k, mu] = np.roll(grid, roll, axis=self.ndim - 1 - mu).ravel()
        nbr.setflags(write=False)
        return nbr

    def site_coords(self, site):
        """Coordinates of site index (array-friendly), direction 0 fastest."""
        site = np.asarray(site)
        out = np.empty(site.shape + (self.ndim,), dtype=np.int64)
        rem = site
        for mu, d in enumerate(self.dims):
            out[..., mu] = rem % d
            rem = rem // d
        return out

    def neighbor(self, site, mu, sign):
        """Periodic neighbor of `site` along direction mu, sign = +1 or -1."""
        if not (0 <= mu < self.ndim):
            raise LatticeError(f"direction {mu} out of range for ndim {self.ndim}")
        if sign not in (+1, -1):
            raise LatticeError(f"sign must be +1 or -1, got {sign}")
        site = int(site)
        if not (0 <= site < self.volume):
            raise LatticeError(f"site {site} out of range for volume {self.volume}")
        return int(self.neighbors[0 if sign > 0 else 1, mu, site])

    def fwd(self, mu):
        """Contiguous array of forward-neighbor indices for every site along mu."""
        if not (0 <= mu < self.ndim):
            raise LatticeError(f"direction {mu} out of range for ndim {self.ndim}")
        return self.neighbors[0, mu]


def build_lattice(dims) -> Lattice:
    """Construct a validated periodic lattice; every dim must be >= 2."""
    return Lattice(tuple(dims))
