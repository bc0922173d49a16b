import csv
import multiprocessing
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from o3cp1 import cli
from o3cp1.fields import (
    CSV_CHUNK_ROWS,
    PAULI,
    CP1Field,
    FieldError,
    GaugeField,
    SpinField,
    hopf_map,
    jacobian_polar,
    random_unit,
    save_field_csv,
)
from o3cp1.lattice import build_lattice
import references
from references import constant_spin_field, constant_spinor_field
from test_tracer_names import install_tracer

# phases are undefined on the polar chart when r or s vanishes
DEGENERATE_TOL = 1e-12


@dataclass
class PolarPoint:
    """Polar view of one spinor: z = (r e^{i alpha}, s e^{i beta})."""

    r: float
    s: float
    alpha: float
    beta: float
    degenerate: bool = False


def to_polar(z) -> PolarPoint:
    """Polar decomposition of one unit spinor; undefined phases stored as 0."""
    z = np.asarray(z, dtype=complex)
    if abs(np.sum(np.abs(z) ** 2) - 1.0) > 1e-9:
        raise FieldError("to_polar requires a unit spinor")
    r = abs(z[0])
    s = abs(z[1])
    degenerate = min(r, s) < DEGENERATE_TOL
    alpha = float(np.angle(z[0])) % (2 * np.pi) if r >= DEGENERATE_TOL else 0.0
    beta = float(np.angle(z[1])) % (2 * np.pi) if s >= DEGENERATE_TOL else 0.0
    return PolarPoint(float(r), float(s), alpha, beta, degenerate)


def from_polar(p: PolarPoint):
    """Inverse of to_polar; requires r^2 + s^2 = 1."""
    if abs(p.r**2 + p.s**2 - 1.0) > 1e-9:
        raise FieldError("from_polar requires r^2 + s^2 = 1")
    return np.array([p.r * np.exp(1j * p.alpha), p.s * np.exp(1j * p.beta)], dtype=complex)


def load_field_csv(path):
    """Read back a snapshot of save_field_csv; the kind follows from the documented header."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if header == ["site", "nx", "ny", "nz"]:
        return SpinField(np.array([[float(v) for v in row[1:]] for row in rows]))
    if header == ["site", "re1", "im1", "re2", "im2"]:
        return CP1Field(np.array([[float(v) for v in row[1:]] for row in rows]))
    assert header == ["site", "mu", "a"], header
    a = np.empty((len({row[0] for row in rows}), len({row[1] for row in rows})))
    for site, mu, value in rows:
        a[int(site), int(mu)] = float(value)
    return GaugeField(a)


def pauli_sandwich(z):
    """Independent oracle: n_a = z^dag sigma_a z with explicit 2x2 matrices."""
    return np.array([np.real(np.conj(z) @ (PAULI[a] @ z)) for a in range(3)])


def test_hopf_poles():
    assert np.allclose(hopf_map(np.array([[1, 0], [0, 1]], complex)), [[0, 0, 1], [0, 0, -1]])


def test_hopf_example_against_pauli_oracle():
    r = s = 1 / np.sqrt(2)
    z = np.array([r, s * np.exp(1j * np.pi / 2)])
    expected = pauli_sandwich(z)
    assert np.allclose(expected, [0, 1, 0], atol=1e-15)
    assert np.allclose(hopf_map(z[None])[0], expected, atol=1e-15)


def test_hopf_matches_pauli_oracle_randomly():
    rng = np.random.default_rng(0)
    zs = random_unit(rng, 4, 200)
    z = zs[:, 0] + 1j * zs[:, 1], zs[:, 2] + 1j * zs[:, 3]
    z = np.stack(z, axis=-1)
    n = hopf_map(z)
    for i in range(len(z)):
        assert np.allclose(n[i], pauli_sandwich(z[i]), atol=1e-14)


def test_hopf_unimodular_and_fiber_invariance():
    rng = np.random.default_rng(1)
    zs = random_unit(rng, 4, 1000)
    z = zs[:, 0::2] + 1j * zs[:, 1::2]
    n = hopf_map(z)
    assert np.abs(np.linalg.norm(n, axis=1) - 1).max() < 1e-12
    theta = rng.uniform(0, 2 * np.pi, (len(z), 1))
    gap = np.abs(hopf_map(z) - hopf_map(np.exp(1j * theta) * z)).max()
    assert gap < 1e-14  # machine precision: the phase cancels identically


def random_su2(rng):
    """Unit quaternion -> SU(2): U = a I + i (b sx + c sy + d sz)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return a * np.eye(2) + 1j * (b * PAULI[0] + c * PAULI[1] + d * PAULI[2])


def adjoint_rotation(u):
    """R(U)_ab = (1/2) tr(sigma_a U sigma_b U^dag), the SO(3) image of U."""
    r = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            r[a, b] = 0.5 * np.real(np.trace(PAULI[a] @ u @ PAULI[b] @ u.conj().T))
    return r


def test_hopf_su2_equivariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = random_su2(rng)
        zrow = random_unit(rng, 4)
        z = zrow[0::2] + 1j * zrow[1::2]
        lhs = hopf_map((u @ z)[None])[0]
        rhs = adjoint_rotation(u) @ hopf_map(z[None])[0]
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_hopf_component_formula_via_polar():
    rng = np.random.default_rng(3)
    for _ in range(200):
        zrow = random_unit(rng, 4)
        z = zrow[0::2] + 1j * zrow[1::2]
        p = to_polar(z)
        if p.degenerate or min(p.r, p.s) < 1e-3:
            continue
        formula = np.array(
            [
                2 * p.r * p.s * np.cos(p.alpha - p.beta),
                -2 * p.r * p.s * np.sin(p.alpha - p.beta),
                p.r**2 - p.s**2,
            ]
        )
        assert np.allclose(hopf_map(z[None])[0], formula, atol=1e-12)


def test_hopf_rejects_unnormalized():
    with pytest.raises(FieldError):
        hopf_map(np.array([[1.0, 1.0]], complex))


def test_to_polar_degenerate_pole():
    p = to_polar(np.array([1.0, 0.0], complex))
    assert (p.r, p.s, p.alpha, p.beta, p.degenerate) == (1.0, 0.0, 0.0, 0.0, True)


def test_from_polar_example():
    p = PolarPoint(1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 4, (-np.pi / 4) % (2 * np.pi))
    z = from_polar(p)
    assert np.allclose(z, [(1 + 1j) / 2, (1 - 1j) / 2], atol=1e-15)


def test_polar_round_trip():
    rng = np.random.default_rng(4)
    count, worst = 0, 0.0
    while count < 10_000:
        zrow = random_unit(rng, 4)
        z = zrow[0::2] + 1j * zrow[1::2]
        p = to_polar(z)
        if min(p.r, p.s) <= 1e-3:
            continue
        worst = max(worst, np.abs(from_polar(p) - z).max())
        count += 1
    assert worst < 1e-12


def test_jacobian_polar_values():
    assert jacobian_polar(0.6, 0.8) == pytest.approx(0.48, abs=1e-15)
    assert jacobian_polar(0.0, 0.7) == 0.0
    assert jacobian_polar(1 / np.sqrt(2), 1 / np.sqrt(2)) == pytest.approx(0.5, abs=1e-15)


def fd_determinant_oracle(r, alpha, s, beta, h=1e-5):
    """Central-difference determinant of (r, alpha, s, beta) -> 4 reals."""
    def cart(p):
        return np.array(
            [p[0] * np.cos(p[1]), p[0] * np.sin(p[1]), p[2] * np.cos(p[3]), p[2] * np.sin(p[3])]
        )

    p0 = np.array([r, alpha, s, beta])
    jac = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        jac[:, j] = (cart(p0 + e) - cart(p0 - e)) / (2 * h)
    return np.linalg.det(jac)


def test_jacobian_polar_vs_fd_oracle():
    assert abs(fd_determinant_oracle(0.6, 0.3, 0.8, 1.1) - 0.48) < 1e-6
    assert abs(
        fd_determinant_oracle(1 / np.sqrt(2), 0.3, 1 / np.sqrt(2), 1.1) - 0.5
    ) < 1e-6


def test_random_unit_samples_normalized():
    rng = np.random.default_rng(5)
    zs = random_unit(rng, 4, 100_000)
    assert np.abs((zs**2).sum(axis=1) - 1).max() < 1e-12
    vs = random_unit(rng, 3, 10_000)
    assert np.abs((vs**2).sum(axis=1) - 1).max() < 1e-12


def test_pushforward_mean_nz():
    rng = np.random.default_rng(6)
    zs = random_unit(rng, 4, 100_000)
    z = zs[:, 0::2] + 1j * zs[:, 1::2]
    nz = hopf_map(z)[:, 2]
    assert abs(nz.mean()) < 3 / np.sqrt(100_000 / 3)


def test_random_spinors_map_to_the_uniform_sphere_ks():
    # the sampler's start: uniform spinors give n_z uniform on [-1, 1] and a
    # uniform azimuth, at a pinned seed (KS at significance 0.01)
    from scipy import stats

    n = hopf_map(random_unit(np.random.default_rng(0), 4, 100_000).view(np.complex128))
    azimuth = np.mod(np.arctan2(n[:, 1], n[:, 0]), 2 * np.pi)
    for x, loc, scale in ((n[:, 2], -1.0, 2.0), (azimuth, 0.0, 2 * np.pi)):
        assert stats.kstest(x, stats.uniform(loc=loc, scale=scale).cdf).pvalue > 0.01


def test_field_normalization_checks():
    lat = build_lattice([4])
    spin = constant_spin_field(lat)
    spin.check()
    spin.n[0] *= 1.5
    with pytest.raises(FieldError):
        spin.check()
    zf = constant_spinor_field(lat)
    zf.check()
    zf.data[0] *= 1.5
    with pytest.raises(FieldError):
        zf.check()
    gauge = GaugeField.zeros(lat)
    gauge.check()
    gauge.a[0, 0] = np.inf
    with pytest.raises(FieldError):
        gauge.check()


@pytest.mark.parametrize("kind", ["spin", "cp1", "gauge"])
def test_snapshot_round_trip(tmp_path, kind):
    rng = np.random.default_rng(7)
    lat = build_lattice([3, 2])
    if kind == "spin":
        field = SpinField.random(lat, rng)
        original = field.n
    elif kind == "cp1":
        field = CP1Field.random(lat, rng)
        original = field.data
    else:
        field = GaugeField(rng.standard_normal((lat.volume, lat.ndim)))
        original = field.a
    path = tmp_path / f"{kind}.csv"
    save_field_csv(path, field)
    loaded = load_field_csv(path)
    restored = {"spin": "n", "cp1": "data", "gauge": "a"}[kind]
    assert np.array_equal(getattr(loaded, restored), original)


@pytest.mark.parametrize("offset", [-1, 0, 1, 2 * CSV_CHUNK_ROWS + 100])
@pytest.mark.parametrize("field_type, width", [
    (SpinField, 3), (CP1Field, 4), (GaugeField, 1), (GaugeField, 2), (GaugeField, 3),
])
def test_snapshot_bytes_match_csv_writer(tmp_path, field_type, width, offset):
    # the chunked writer against csv.writer row by row. A gauge field writes
    # one row per link, so its rows per site are the lattice dimension (width);
    # the files have just below, exactly (where the rows divide) and just above
    # one chunk of rows, three or more chunks and part of one more, and five
    # sites. Files of two or more chunks go through the worker pool, whose
    # workers are gone when the call returns
    per_site = width if field_type is GaugeField else 1
    sites = CSV_CHUNK_ROWS // per_site + offset
    rng = np.random.default_rng(sites * 10 + width)
    values = rng.standard_normal((sites, width)) * 10.0 ** rng.integers(-300, 300, (sites, width))
    flat = values.reshape(-1)
    edge = CSV_CHUNK_ROWS * (width // per_site)  # first value of the second chunk
    for at in (0, edge - 2, flat.size - 4):  # start, chunk edge, end
        at = min(at, flat.size - 4)
        flat[at : at + 4] = [-0.0, 5e-324, 1e308, 1 / 3]
    for part in (values[:5], values):
        field = field_type(part.copy())
        save_field_csv(tmp_path / "chunked.csv", field)
        assert multiprocessing.active_children() == []
        references.save_field_csv(tmp_path / "csv_writer.csv", field)
        expected = (tmp_path / "csv_writer.csv").read_bytes()
        assert (tmp_path / "chunked.csv").read_bytes() == expected
        for text in (b",-0.0", b",5e-324", b",1e+308", b",0.3333333333333333"):
            assert text in expected


def test_pooled_snapshot_bytes_under_the_tracer(tmp_path, monkeypatch):
    # the benchmark's tracer rebinds the functions of o3cp1's modules; the
    # function the pool maps must still pickle by name, with the same bytes
    rec, mods = install_tracer(tmp_path, monkeypatch)
    rng = np.random.default_rng(5)
    values = rng.standard_normal((3 * CSV_CHUNK_ROWS + 7, 4)) * 10.0 ** rng.integers(-300, 300, 4)
    field = CP1Field(values)
    mods["fields"].save_field_csv(tmp_path / "traced.csv", field)
    assert rec.stats["fields.save_field_csv"]["count"] == 1
    assert multiprocessing.active_children() == []
    references.save_field_csv(tmp_path / "csv_writer.csv", field)
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "csv_writer.csv").read_bytes()


def edge_series(sweeps, observables, seed):
    """Series of `observables` names with -0.0, 5e-324, 1e308 and 1/3 at each block edge."""
    rng = np.random.default_rng(seed)
    series = {}
    for k in range(observables):
        values = rng.standard_normal(sweeps) * 10.0 ** rng.integers(-300, 300, sweeps)
        for at in (0, CSV_CHUNK_ROWS - 2, sweeps - 4):  # start, chunk edge, end
            at = min(at, sweeps - 4)
            values[at : at + 4] = [-0.0, 5e-324, 1e308, 1 / 3]
        series[f"obs_{k}"] = values
    return series


def write_series(tmp_path, cli_module, sweeps, observables, chains):
    """Bytes of cli's series file and of its csv.writer form; chains None: sample's schema."""
    labels = [None] if chains is None else [f"chain-{c}" for c in range(chains)]
    runs = [SimpleNamespace(model=label, series=edge_series(sweeps, observables, seed))
            for seed, label in enumerate(labels)]
    header = ["chain"] * (chains is not None) + ["sweep", "observable", "value"]
    parts = [part for r in runs for part in cli_module._series_rows(r, chain_label=r.model)]
    cli_module._write_series_csv(tmp_path / "series.csv", parts, header)
    assert multiprocessing.active_children() == []
    references.write_series_csv(tmp_path / "csv_writer.csv",
                                [(r.model, r.series) for r in runs], chains is not None)
    return (tmp_path / "series.csv").read_bytes(), (tmp_path / "csv_writer.csv").read_bytes()


@pytest.mark.parametrize("offset", [-1, 0, 1, CSV_CHUNK_ROWS + 100])
@pytest.mark.parametrize("observables", [1, 5])
@pytest.mark.parametrize("chains", [None, 1, 5])
def test_series_bytes_match_csv_writer(tmp_path, offset, observables, chains):
    # sample's schema (chains None) and compare's, with series of just below,
    # exactly, just above one chunk of sweeps and two chunks and part of a
    # third; a file of more than one chunk of rows goes through the worker pool
    sweeps = CSV_CHUNK_ROWS + offset
    written, expected = write_series(tmp_path, cli, sweeps, observables, chains)
    assert written == expected
    for text in (b",-0.0\r\n", b",5e-324\r\n", b",1e+308\r\n", b",0.3333333333333333\r\n"):
        assert text in expected


def test_pooled_series_bytes_under_the_tracer(tmp_path, monkeypatch):
    # as for snapshots: the pool must still pickle the block formatter by name
    rec, mods = install_tracer(tmp_path, monkeypatch)
    written, expected = write_series(tmp_path, mods["cli"], 2 * CSV_CHUNK_ROWS + 100, 5, 5)
    assert rec.stats["cli._write_series_csv"]["count"] == 1
    assert rec.stats["fields.write_csv"]["count"] == 1
    assert written == expected
