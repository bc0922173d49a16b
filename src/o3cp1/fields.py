"""Field containers and the spinor-to-vector (Hopf) map.

A spinor field owns one C-contiguous float64 buffer of four reals per site
(Re z1, Im z1, Re z2, Im z2), so the flat sampling measure is literally the
product of those coordinates. Its complex form z is a zero-copy view of the
same memory: a write through either is seen through the other. The unit
3-vector field n and the per-link real gauge field A are plain float arrays.

Conventions: standard Pauli matrices, so n = z^dag sigma z has components
  n_x = 2 r s cos(alpha - beta)
  n_y = -2 r s sin(alpha - beta)
  n_z = r^2 - s^2
for z = (r e^{i alpha}, s e^{i beta}).

save_field_csv formats a snapshot of two or more CSV_CHUNK_ROWS blocks in two
forked worker processes and writes the blocks in order: the same bytes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import O3CP1Error
from .lattice import Lattice

NORM_TOL = 1e-12

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


class FieldError(O3CP1Error, ValueError):
    """Field constraint violation (normalization, shape, finiteness)."""


@dataclass
class SpinField:
    """Per-site unit 3-vector field, shape (volume, 3)."""

    n: np.ndarray

    @classmethod
    def random(cls, lat: Lattice, rng):
        return cls(random_unit(rng, 3, lat.volume))

    @property
    def rows(self):
        """The per-site points on S^2: n itself."""
        return self.n

    def check(self, tol=NORM_TOL):
        err = np.abs(np.einsum("ij,ij->i", self.n, self.n) - 1.0).max()
        if err > tol:
            raise FieldError(f"spin field not unit-norm: max |n^2-1| = {err:.3e}")


@dataclass
class CP1Field:
    """Per-site spinor stored as reals, shape (volume, 4): Re z1, Im z1, Re z2, Im z2."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.shape[-1:] != (4,):
            raise FieldError(f"spinor data needs 4 reals per site, got shape {self.data.shape}")

    @classmethod
    def random(cls, lat: Lattice, rng):
        return cls(random_unit(rng, 4, lat.volume))

    @property
    def z(self):
        """Complex view of `data`, shape (volume, 2); shares its memory."""
        return self.data.view(np.complex128)

    rows = z  # the per-site points on S^3, as complex spinors

    def check(self, tol=NORM_TOL):
        err = np.abs(np.einsum("ij,ij->i", self.data, self.data) - 1.0).max()
        if err > tol:
            raise FieldError(f"spinor field not unit-norm: max ||z|^2-1| = {err:.3e}")


@dataclass
class GaugeField:
    """Per-link real scalar, shape (volume, ndim); A[x, mu] lives on link (x, x+mu)."""

    a: np.ndarray

    @classmethod
    def zeros(cls, lat: Lattice):
        return cls(np.zeros((lat.volume, lat.ndim)))

    def check(self):
        if not np.all(np.isfinite(self.a)):
            raise FieldError("gauge field contains non-finite values")


def hopf_map(z):
    """Map unit spinor(s) to unit 3-vector(s): n = z^dag sigma z.

    Accepts a single complex pair, an (N, 2) complex array, or a CP1Field.
    """
    if isinstance(z, CP1Field):
        z = z.z
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    z = np.atleast_2d(z)
    re2, im2 = z.real**2, z.imag**2
    sq = re2 + im2  # |z1|^2, |z2|^2
    if np.abs(sq.sum(axis=-1) - 1.0).max() > 1e-9:
        raise FieldError("hopf_map requires unit spinors (|z| = 1 within 1e-9)")
    w = np.conj(z[..., 0]) * z[..., 1]
    n = np.empty(z.shape[:-1] + (3,), dtype=float)
    n[..., 0] = 2.0 * w.real
    n[..., 1] = 2.0 * w.imag
    n[..., 2] = sq[..., 0] - re2[..., 1] - im2[..., 1]
    return n[0] if single else n


def jacobian_polar(r, s):
    """Jacobian of (Re z1, Im z1, Re z2, Im z2) -> (r, alpha, s, beta): r*s."""
    return np.asarray(r, dtype=float) * np.asarray(s, dtype=float)


def random_unit(rng, dim, size=None):
    """Uniform sample(s) on the unit sphere in R^dim (3 for n, 4 for spinor rows)."""
    n = 1 if size is None else int(size)
    out = np.empty((n, dim))
    need = np.ones(n, dtype=bool)
    while need.any():
        draw = rng.standard_normal((int(need.sum()), dim))
        norm = np.linalg.norm(draw, axis=1)
        ok = norm > 0
        idx = np.flatnonzero(need)[ok]
        out[idx] = draw[ok] / norm[ok, None]
        need[idx] = False
    return out[0] if size is None else out


# --- snapshot files -------------------------------------------------------

# CSV column order is part of the CLI reproducibility contract
_HEADERS = {
    "spin": ["site", "nx", "ny", "nz"],
    "cp1": ["site", "re1", "im1", "re2", "im2"],
    "gauge": ["site", "mu", "a"],
}
CSV_CHUNK_ROWS = 8192


def _csv_text(start, block, per_site):
    """CSV text of the rows of `block`, the first of which is row `start` of its file."""
    rows = np.arange(start, start + len(block))
    lead = divmod(rows, per_site) if per_site else (rows,)  # site[, mu]
    cols = [map(str, c.tolist()) for c in lead] + [map(repr, c) for c in block.T.tolist()]
    return "\r\n".join(map(",".join, zip(*cols))) + "\r\n"


def save_field_csv(path, field):
    """Dump a field to CSV with full float precision, CSV_CHUNK_ROWS rows at a time.

    The bytes are csv.writer's (excel dialect: CRLF line ends, no field quoted).
    Two or more chunks go to a pool of two forked workers that closes on return.
    """
    if isinstance(field, SpinField):  # per_site: rows per site of a gauge field
        kind, values, per_site = "spin", field.n, 0
    elif isinstance(field, CP1Field):
        kind, values, per_site = "cp1", field.data, 0
    elif isinstance(field, GaugeField):
        kind, values, per_site = "gauge", field.a.reshape(-1, 1), field.a.shape[1]
    else:
        raise FieldError(f"cannot save field of type {type(field).__name__}")
    starts = range(0, len(values), CSV_CHUNK_ROWS)
    args = (starts, [values[s : s + CSV_CHUNK_ROWS] for s in starts], [per_site] * len(starts))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_HEADERS[kind]) + "\r\n")
        if len(starts) < 2:
            fh.writelines(map(_csv_text, *args))
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            fh.writelines(pool.map(_csv_text, *args))
