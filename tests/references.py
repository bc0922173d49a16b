"""Reference constructions that only the tests use, built on the package's API."""

import csv
import inspect
import textwrap

import numpy as np

from o3cp1 import actions, mc
from o3cp1.actions import gauge_term, link_overlaps, spinor_overlap
from o3cp1.fields import CP1Field, GaugeField, SpinField, hopf_map


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


def coord_index(lat, coords):
    """Site index of coordinates, direction 0 fastest: the inverse of Lattice.site_coords."""
    coords = np.asarray(coords)
    idx = np.zeros(coords.shape[:-1], dtype=np.int64)
    stride = 1
    for mu, d in enumerate(lat.dims):
        idx = idx + coords[..., mu] * stride
        stride *= d
    return idx


def shift_indices(lat, rvec):
    """Index of x + rvec (periodic) for every site x, from coordinates."""
    coords = lat.site_coords(np.arange(lat.volume))
    return coord_index(lat, (coords + np.asarray(rvec, dtype=np.int64)) % np.asarray(lat.dims))


def probe_spinor_field(probe, lat):
    """Sample the probe on a lattice, mapping site coords to the unit torus."""
    coords = lat.site_coords(np.arange(lat.volume)).astype(float)
    coords /= np.asarray(lat.dims, dtype=float)
    return spinor_field(probe(coords))


def random_fourier_scalar(rng, ndim, c0, max_total_amp, n_modes, max_mode=2):
    """f(x) = c0 + sum_j a_j cos(k_j . x + p_j) at points x of shape (N, ndim).

    Draws the amplitudes, then integer waves until no wave is zero, then the phases.
    """
    amps = rng.uniform(0.2, 1.0, n_modes)
    amps *= max_total_amp / amps.sum()
    waves = np.zeros((n_modes, ndim))
    while np.any(np.all(waves == 0, axis=1)):
        waves = rng.integers(-max_mode, max_mode + 1, (n_modes, ndim)).astype(float)
    waves *= 2.0 * np.pi
    phases = rng.uniform(0.0, 2.0 * np.pi, n_modes)
    return lambda x: c0 + (np.cos(x @ waves.T + phases) @ amps[:, None])[:, 0]


def random_probe(rng, ndim=1, n_modes=2, margin=0.15, max_mode=2, angle_amp=1.0):
    """Smooth unit-spinor field z(x) = (cos(u) e^{i alpha}, sin(u) e^{i beta}) on the unit torus.

    u, alpha and beta are random Fourier scalars, drawn in that order, with u
    inside (margin, pi/2 - margin). Returns z at points x of shape (N, ndim),
    shape (N, 2) complex.
    """
    half_range = np.pi / 4.0 - margin
    u = random_fourier_scalar(rng, ndim, np.pi / 4.0, 0.9 * half_range, n_modes, max_mode)
    alpha = random_fourier_scalar(rng, ndim, 0.0, angle_amp, n_modes, max_mode)
    beta = random_fourier_scalar(rng, ndim, 0.0, angle_amp, n_modes, max_mode)

    def spinor(x):
        ux = u(x)
        return np.stack([np.cos(ux) * np.exp(1j * alpha(x)), np.sin(ux) * np.exp(1j * beta(x))],
                        axis=-1)

    return spinor


# --- the sampler's site kernels through plain fancy indexing ------------------
#
# The package gathers with ndarray.take and writes back with compress; these
# are the same kernels written with x[idx] and boolean masks, for the tests
# that require the two to keep the same bits.


def site_table(batch, sites):
    """mc._SiteTable of `sites` in a batch of one chain, built site by site from Lattice.neighbor."""
    lat = batch.lat
    steps = [(mu, sign) for sign in (+1, -1) for mu in range(lat.ndim)]
    nbr = np.array([[lat.neighbor(x, mu, sign) for x in sites] for mu, sign in steps])
    if batch.gauge is None:
        return mc._SiteTable(sites, nbr)
    # the link to a backward neighbour y is (y, mu)
    links = np.array([[(x if sign > 0 else lat.neighbor(x, mu, -1)) * lat.ndim + mu
                       for x in sites] for mu, sign in steps])
    return mc._SiteTable(sites, nbr, links, np.repeat([1.0, -1.0], lat.ndim)[:, None])


def delta_s(batch, table, old, new):
    """mc._delta_s of a batch of one chain, with a fancy-index neighbour gather and the
    per-link kernels of the overlaps for every spinor flavour: its law's term, plus the
    gauge term if gauged."""
    (state,) = batch.states
    flavour = mc.FLAVOURS[state.model]
    nbr = batch.rows[table.nbr]
    if not flavour.spinor:
        return -((new - old) * nbr.sum(axis=0)).sum(axis=1) / (2.0 * state.g)
    pair = np.concatenate((new, old)).reshape(2, 1, len(new), 2)
    w = spinor_overlap(pair, nbr)
    terms = getattr(actions, mc.LAW_TERMS[flavour.law])(w)
    if flavour.gauged:
        terms += gauge_term(batch.gauge.take(table.links) * table.sign, w)
    s_new, s_old = terms.sum(axis=1)
    return (s_new - s_old) / state.g


def update_class(batch, table):
    """mc._update_class of a batch of one chain: the proposal and accept draws of
    standard_normal(shape) and uniform(size), a fancy-index gather and a
    boolean-mask write-back."""
    (state,) = batch.states
    buf = batch.rows
    old = buf[table.sites]
    eta = state.rng.standard_normal(old.view(np.float64).shape).view(old.dtype)
    new = old + state.delta * eta
    new /= np.sqrt((np.abs(new) ** 2).sum(axis=1, keepdims=True))
    ds = delta_s(batch, table, old, new)
    accept = state.rng.uniform(size=len(ds)) < np.exp(np.minimum(-ds, 0.0))
    buf[table.sites[accept]] = new[accept]
    return np.array([np.count_nonzero(accept)])


def measure(measurer, n):
    """mc._Measurer.measure of one snapshot n, with fancy-index gathers and Python-float sums."""
    lat = measurer.lat
    energy, corr1 = 0.0, 0.0
    for mu in range(lat.ndim):
        n_fwd = n[lat.fwd(mu)]
        d = n_fwd - n
        energy += float((d * d).sum())
        corr1 += float((n * n_fwd).sum())
    row = [energy / (4.0 * measurer.g * lat.volume)]
    for r in measurer.r_values:
        c = corr1 if r == 1 else sum(float((n * n[idx]).sum()) for idx in measurer.shifts[r])
        row.append(c / (lat.ndim * lat.volume))
    return row


def run_chain_series(lat, model, g, sweeps, seed_seq, thermalization):
    """mc.run_chain's series, each sweep measured alone: hopf_map and measure per sweep."""
    batch = mc.ChainBatch(lat, g, [model], [np.random.Generator(np.random.PCG64(seed_seq))])
    (state,) = batch.states
    measurer = mc._Measurer(lat, g, min(4, min(lat.dims) // 2))
    rates = []
    for i in range(thermalization):
        rates += mc.chain_sweep(batch)
        if (i + 1) % mc.TUNE_WINDOW == 0:
            mc.tune_proposal(state, float(np.mean(rates[-mc.TUNE_WINDOW:])))
    rows = []
    for _ in range(sweeps):
        mc.chain_sweep(batch)
        rows.append(measure(measurer, hopf_map(state.matter.z) if mc.FLAVOURS[model].spinor
                            else state.matter.n))
    data = np.array(rows)
    return {name: data[:, j] for j, name in enumerate(measurer.names())}


def link_overlaps_fancy(lat, zf):
    """actions.link_overlaps with a fancy-index gather."""
    z = zf.z
    return np.stack([spinor_overlap(z, z[lat.fwd(mu)]) for mu in range(lat.ndim)], axis=1)


# --- snapshot files through csv.writer ---------------------------------------


def save_field_csv(path, field):
    """fields.save_field_csv as csv.writer writes it, one row at a time."""
    if isinstance(field, SpinField):
        header = ["site", "nx", "ny", "nz"]
        rows = ((i, *map(repr, row.tolist())) for i, row in enumerate(field.n))
    elif isinstance(field, CP1Field):
        header = ["site", "re1", "im1", "re2", "im2"]
        rows = ((i, *map(repr, row.tolist())) for i, row in enumerate(field.data))
    else:
        header = ["site", "mu", "a"]
        rows = ((i, mu, repr(a)) for i, row in enumerate(field.a)
                for mu, a in enumerate(row.tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(path, chains, labelled):
    """cli's series file as csv.writer writes it, one row at a time.

    chains is a list of (label, series dict); labelled: compare's schema, led
    by the chain column, else sample's.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain"] * labelled + ["sweep", "observable", "value"])
        for label, series in chains:
            for name in sorted(series):
                for sweep, value in enumerate(series[name].tolist()):
                    writer.writerow([label] * labelled + [sweep, name, repr(value)])


def edit(old, new):
    """Mutant maker: the function recompiled from its source with `old`, found once, as `new`.

    The mutant keeps the function's module globals, so it reads the module's
    other names as the original does.
    """
    def mutant(function):
        source = textwrap.dedent(inspect.getsource(function))
        assert source.count(old) == 1, (function.__name__, old)
        namespace = {}
        exec(source.replace(old, new), function.__globals__, namespace)
        return namespace[function.__name__]
    return mutant
