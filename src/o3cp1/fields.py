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

write_csv, the package's one CSV writer (snapshots and the CLI's series),
formats a file of more than CSV_CHUNK_ROWS rows on two forked workers and
writes the blocks in order, with the bytes of the csv module's writer.
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
    """Map unit spinors to unit 3-vectors, n = z^dag sigma z: (N, 2) complex to (N, 3)."""
    re2, im2 = z.real**2, z.imag**2
    sq = re2 + im2  # |z1|^2, |z2|^2
    if np.abs(sq.sum(axis=1) - 1.0).max() > 1e-9:
        raise FieldError("hopf_map requires unit spinors (|z| = 1 within 1e-9)")
    w = np.conj(z[:, 0]) * z[:, 1]
    n = np.empty((len(z), 3))
    n[:, 0] = 2.0 * w.real
    n[:, 1] = 2.0 * w.imag
    n[:, 2] = sq[:, 0] - re2[:, 1] - im2[:, 1]
    return n


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


# --- CSV files --------------------------------------------------------------

CSV_CHUNK_ROWS = 8192


def _csv_text(start, columns):
    """CSV text of a block of rows, the first of which is row `start` of its part.

    A column is a str, written on every row; an int k, the row index (k = 0)
    or its quotient and remainder by k (site and mu of k links per site); or,
    last, an array of one or more columns of values, written by repr.
    """
    *lead, values = columns
    index = np.arange(start, start + len(values))
    cols = []
    for col in lead:
        if isinstance(col, str):
            cols.append([col] * len(values))
        else:
            cols += [map(str, c.tolist()) for c in (divmod(index, col) if col else (index,))]
    cols += [map(repr, c) for c in values.reshape(len(values), -1).T.tolist()]
    return "\r\n".join(map(",".join, zip(*cols))) + "\r\n"


def write_csv(path, header, parts):
    """Write the header, then the rows of each part, a list of columns (see _csv_text).

    The bytes are the csv module writer's (excel dialect: CRLF line ends, no
    field quoted). A file of more than CSV_CHUNK_ROWS rows is formatted
    CSV_CHUNK_ROWS rows at a time by two forked workers, gone on return.
    """
    blocks = [(s, lead + [values[s : s + CSV_CHUNK_ROWS]])
              for *lead, values in parts for s in range(0, len(values), CSV_CHUNK_ROWS)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if sum(len(columns[-1]) for _, columns in blocks) <= CSV_CHUNK_ROWS:
            fh.writelines(_csv_text(*block) for block in blocks)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            fh.writelines(pool.map(_csv_text, *zip(*blocks)))


def save_field_csv(path, field):
    """Dump a field by write_csv; its column order is part of the reproducibility contract."""
    if isinstance(field, SpinField):  # per_site: rows per site of a gauge field
        header, values, per_site = ["site", "nx", "ny", "nz"], field.n, 0
    elif isinstance(field, CP1Field):
        header, values, per_site = ["site", "re1", "im1", "re2", "im2"], field.data, 0
    elif isinstance(field, GaugeField):
        header, values, per_site = ["site", "mu", "a"], field.a.reshape(-1, 1), field.a.shape[1]
    else:
        raise FieldError(f"cannot save field of type {type(field).__name__}")
    write_csv(path, header, [[per_site, values]])
