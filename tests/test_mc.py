import ast
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from o3cp1 import actions, mc
from o3cp1.actions import link_overlaps
from o3cp1.fields import SpinField, hopf_map
from o3cp1.lattice import Lattice, build_lattice
from o3cp1.mc import (
    MODELS,
    ChainBatch,
    McError,
    chain_sweep,
    gibbs_gauge_update,
    init_chain,
    jackknife,
    metropolis_sweep,
    run_chain,
    run_chains,
    tune_proposal,
    two_site_exact,
)
import references
from references import constant_spin_field, constant_spinor_field, edit, optimal_gauge


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- jackknife ---------------------------------------------------------------


def test_jackknife_constant_series():
    mean, err = jackknife(np.full(200, 3.7), 5)
    assert mean == pytest.approx(3.7, abs=1e-14)
    assert err == pytest.approx(0.0, abs=1e-14)


def test_jackknife_alternating_series():
    mean, err = jackknife(np.tile([1.0, -1.0], 50), 2)
    assert mean == 0.0
    assert err == 0.0


def test_jackknife_requires_bins():
    with pytest.raises(McError):
        jackknife(np.arange(30.0), 2)


def test_jackknife_is_finite_near_the_float_range():
    # deviations of values near 1e301 overflow when squared: the error bar
    # must still come out finite, without a warning, and equal to the error
    # bar of the same series scaled down by an exact power of two
    small = rng_of(17).standard_normal(200) + 1024.0
    big = np.ldexp(small, 990)
    extreme = np.tile([1.7e308, -1.7e308], 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = jackknife(small, 4)
        assert jackknife(big, 4) == tuple(math.ldexp(x, 990) for x in scaled)
        mean, err = jackknife(extreme, 1)
    assert mean == 0.0 and math.isfinite(err) and err > 1e307


def test_jackknife_ar1_oracle():
    # AR(1): x_{t+1} = phi x_t + sqrt(1-phi^2) xi, unit variance;
    # exact standard error of the mean: sqrt((1+phi)/(1-phi)/N)
    phi, n = 0.7, 40_000
    rng = rng_of(123)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    noise = rng.standard_normal(n) * math.sqrt(1 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    tau_int = (1 + phi) / (2 * (1 - phi))  # about 2.8
    analytic = math.sqrt((1 + phi) / (1 - phi) / n)
    bin_size = int(40 * tau_int)  # comfortably above 5 tau
    _, err = jackknife(x, bin_size)
    assert abs(err - analytic) / analytic < 0.25


# --- sweep mechanics -----------------------------------------------------------


def sweep_site_by_site(batch):
    """Reference sweep of a batch of one: sites in index order, each through its own table.

    Returns the acceptance rate, as metropolis_sweep does.
    """
    accepted = sum(mc._update_class(batch, mc._site_table(batch, np.array([site])))
                   for site in range(batch.lat.volume))
    return int(accepted[0]) / batch.lat.volume


@pytest.mark.parametrize("dims", [
    [2], [3], [4], [5], [15], [3, 4], [4, 3], [5, 5], [2, 7], [14, 15],
    [4, 4], [6, 2], [2, 2, 2], [2, 3, 3], [3, 3, 3], [4, 6, 5],
])
def test_colour_classes_are_proper(dims):
    lat = build_lattice(dims)
    classes = mc._colour_classes(lat)
    colour = np.full(lat.volume, -1)
    for c, sites in enumerate(classes):
        assert len(sites) > 0
        assert (colour[sites] == -1).all()  # no site in two classes
        colour[sites] = c
    assert (colour >= 0).all()  # every site in some class
    for mu in range(lat.ndim):
        assert (colour != colour[lat.fwd(mu)]).all()  # no link inside a class
    coords = lat.site_coords(np.arange(lat.volume))
    if all(d % 2 == 0 for d in dims):
        parity = coords.sum(axis=1) % 2
        assert len(classes) == 2
        for p, sites in enumerate(classes):
            assert np.array_equal(sites, np.flatnonzero(parity == p))
    else:
        assert len(classes) == 3


def test_flat_target_accepts_everything():
    lat = build_lattice([4, 4])
    batch = ChainBatch(lat, 1e6, ["o3"], [rng_of(0)], delta=0.5)
    rates = [metropolis_sweep(batch)[0] for _ in range(10)]
    assert np.mean(rates) > 0.99


@pytest.mark.parametrize("model", MODELS)
def test_self_check_passes(model):
    # odd extents run three colour classes, 4x4 the two checkerboard parities
    for dims in ([3], [3, 4], [5, 5], [2, 3, 3], [4, 4]):
        lat = build_lattice(dims)
        batch = ChainBatch(lat, 0.8, [model], [rng_of(2)], delta=0.7, self_check=True)
        for _ in range(3):
            chain_sweep(batch)


@pytest.mark.parametrize("model", MODELS)
def test_delta_s_matches_full_action_difference(model):
    for dims in ([2], [4, 4], [2, 2, 2]):
        lat = build_lattice(dims)
        batch = ChainBatch(lat, 0.7, [model], [rng_of(15)], delta=1.5)
        (state,) = batch.states
        buf = batch.rows
        for site in range(lat.volume):
            table = mc._site_table(batch, np.array([site]))
            old = buf[table.sites]
            new = mc._propose(batch.states, old)
            ds = mc._delta_s(batch, table, old, new)
            before = mc.total_action(state)
            buf[site] = new[0]
            assert abs(ds[0] - (mc.total_action(state) - before)) < 1e-12


@pytest.mark.parametrize("dims", [[2], [3, 5], [8, 8], [2, 3, 2]])
def test_covariant_local_field_matches_the_overlap_kernels(dims):
    # the staple form of the cp1-gauged-reduced action change against the
    # per-link kernels of the overlaps, for every colour class; the batch
    # draws random spinors and then the gauge field by a Gibbs refresh
    lat = build_lattice(dims)
    for g, delta in ((0.35, 0.4), (1.3, 2.5)):
        batch = ChainBatch(lat, g, ["cp1-gauged-reduced"], [rng_of(31)], delta=delta)
        (state,) = batch.states
        assert np.abs(state.gauge.a).min() > 0.0
        for sites in mc._colour_classes(lat):
            table = mc._site_table(batch, sites)
            old = state.matter.rows.take(sites, axis=0)
            new = mc._propose(batch.states, old)
            ds = mc._delta_s(batch, table, old, new)
            ref = references.delta_s(batch, table, old, new)
            assert np.abs(ds - ref).max() < 1e-12, (dims, g)
            assert np.abs(ref).max() > 0.1


def test_self_check_aborts_on_bad_local_terms(monkeypatch):
    lat = build_lattice([4, 4])
    batch = ChainBatch(lat, 1.0, ["o3"], [rng_of(3)], delta=0.7, self_check=True)
    original = mc._delta_s

    def corrupted(b, table, old, new):
        return original(b, table, old, new) * 1.001

    monkeypatch.setattr(mc, "_delta_s", corrupted)
    with pytest.raises(McError):
        for _ in range(5):
            metropolis_sweep(batch)


def test_serial_and_vectorized_paths_agree_statistically():
    # the colour-class sweep against the site-by-site reference: two
    # parities on 4x4, three classes on 3x5. delta is tuned over 1000
    # thermalization sweeps as run_chain tunes it: at the tuned width a sweep
    # that updates neighbours together halves the r = 1 correlator, far
    # beyond the 4 sigma gate
    g = 1.0
    for dims in ([4, 4], [3, 5]):
        lat = build_lattice(dims)
        means = []
        for sweep in (lambda b: metropolis_sweep(b)[0], sweep_site_by_site):
            batch = ChainBatch(lat, g, ["o3"], [rng_of(11)])
            (state,) = batch.states
            rates = []
            for i in range(1000):
                rates.append(sweep(batch))
                if (i + 1) % mc.TUNE_WINDOW == 0:
                    tune_proposal(state, float(np.mean(rates[-mc.TUNE_WINDOW:])))
            vals = []
            for _ in range(3000):
                sweep(batch)
                n = state.matter.n
                vals.append(float((n * n[lat.fwd(0)]).sum()) / lat.volume)
            means.append((np.mean(vals), np.std(vals) / math.sqrt(len(vals) / 20)))
        gap = abs(means[0][0] - means[1][0])
        assert gap < 4 * math.hypot(means[0][1], means[1][1]), dims


@pytest.mark.parametrize("dims", [[2], [3, 5], [8, 8]])
@pytest.mark.parametrize("model", MODELS)
def test_sweeps_keep_the_bits_of_the_fancy_index_reference(dims, model, monkeypatch):
    # take/compress gathers and write-backs against x[idx] and boolean masks:
    # the same draws and the same arithmetic, so the same bytes
    lat = build_lattice(dims)
    states, rates = [], []
    for reference in (False, True):
        batch = ChainBatch(lat, 0.7, [model], [rng_of(21)], delta=1.0)
        (state,) = batch.states
        with monkeypatch.context() as m:
            if reference:
                batch.classes = tuple(references.site_table(batch, sites)
                                      for sites in mc._colour_classes(lat))
                m.setattr(mc, "_update_class", references.update_class)
            rates += [chain_sweep(batch)[0] for _ in range(20)]
        states.append(state)
    new, ref = states
    assert 0.0 < np.mean(rates) < 1.0  # both branches of the write-back ran
    assert new.matter.rows.tobytes() == ref.matter.rows.tobytes()
    if new.is_gauged:
        assert new.gauge.a.tobytes() == ref.gauge.a.tobytes()
        assert (link_overlaps(lat, new.matter).tobytes()
                == references.link_overlaps_fancy(lat, new.matter).tobytes())
    measurer = mc._Measurer(lat, 0.7, min(4, min(dims) // 2))
    n = hopf_map(new.matter.z) if mc.FLAVOURS[model].spinor else new.matter.n
    assert measurer.measure(n[None])[0].tolist() == references.measure(measurer, n)


# --- gauge sector ---------------------------------------------------------------


def test_gibbs_moments_constant_z():
    lat = build_lattice([10, 10])
    g = 1.3
    batch = ChainBatch(lat, g, ["cp1-gauged-reduced"], [rng_of(4)])
    (state,) = batch.states
    state.matter.data[:] = constant_spinor_field(lat).data
    samples = []
    for _ in range(500):
        gibbs_gauge_update(batch)
        samples.append(state.gauge.a.copy())
    a = np.concatenate([s.ravel() for s in samples])  # 1e5 draws
    n = a.size
    assert abs(a.mean()) < 3 * math.sqrt(g / 2 / n)
    assert abs(a.var() - g / 2) / (g / 2) < 0.05


def test_gibbs_collapses_to_optimal_gauge_at_small_g():
    lat = build_lattice([4, 4])
    g = 1e-12
    batch = ChainBatch(lat, g, ["cp1-gauged-reduced"], [rng_of(5)])
    (state,) = batch.states
    gibbs_gauge_update(batch)
    astar = optimal_gauge(lat, state.matter).a
    assert np.abs(state.gauge.a - astar).max() < 1e-5


def test_gibbs_requires_gauged_model():
    lat = build_lattice([4])
    batch = ChainBatch(lat, 1.0, ["cp1-reduced"], [rng_of(6)])
    with pytest.raises(McError):
        gibbs_gauge_update(batch)


def test_gauged_marginal_matches_reduced_chain():
    lat = build_lattice([4])
    results = run_chains(
        lat, ["cp1-reduced", "cp1-gauged-reduced"], 1.0, 20_000,
        master_seed=77, thermalization=2000,
    )
    stats = [r.estimates["corr_r1"] for r in results]
    gap = abs(stats[0][0] - stats[1][0])
    assert gap <= 3 * math.hypot(stats[0][1], stats[1][1])


# --- observables ----------------------------------------------------------------


def correlator(lat: Lattice, snapshots, rvec) -> np.ndarray:
    """Translation-averaged <n(x) . n(x+r)> per snapshot for separation vector r.

    Components of r beyond half the lattice extent are rejected (the periodic
    image would alias the separation).
    """
    rvec = np.asarray(rvec, dtype=np.int64)
    for mu, (r, d) in enumerate(zip(rvec, lat.dims)):
        if abs(int(r)) > d // 2:
            raise McError(f"separation {r} along direction {mu} exceeds {d}//2")
    idx = references.shift_indices(lat, rvec)
    return np.array(
        [float(np.einsum("ij,ij->", n, n[idx])) / lat.volume for n in snapshots]
    )


@pytest.mark.parametrize("dims", [[2], [3, 5], [8, 8], [4, 3, 6], [256, 256]])
def test_shift_tables_compose_the_forward_table(dims):
    lat = build_lattice(dims)
    measurer = mc._Measurer(lat, 1.0, 4)
    assert list(measurer.shifts) == [2, 3, 4]
    for r, tables in measurer.shifts.items():
        for mu, idx in enumerate(tables):
            expected = references.shift_indices(lat, r * np.eye(lat.ndim, dtype=int)[mu])
            assert idx.dtype == expected.dtype and np.array_equal(idx, expected), (r, mu)


def test_correlator_zero_separation_is_one():
    lat = build_lattice([4, 4])
    rng = rng_of(7)
    snaps = [SpinField.random(lat, rng).n for _ in range(5)]
    assert np.allclose(correlator(lat, snaps, [0, 0]), 1.0, atol=1e-12)


def test_correlator_rejects_long_separation():
    lat = build_lattice([4, 4])
    with pytest.raises(McError):
        correlator(lat, [constant_spin_field(lat).n], [3, 0])


def test_correlator_decoupled_sites():
    lat = build_lattice([4, 4])
    res = run_chain(lat, "o3", 1e6, 2000, np.random.SeedSequence(8), thermalization=500)
    mean, err = res.estimates["corr_r1"]
    assert abs(mean) < max(3 * err, 0.02)


def test_correlator_matches_measurer_on_snapshots():
    lat = build_lattice([4, 4])
    rng = rng_of(9)
    snaps = [SpinField.random(lat, rng).n for _ in range(3)]
    s_axis0 = correlator(lat, snaps, [1, 0])
    s_axis1 = correlator(lat, snaps, [0, 1])
    meas = mc._Measurer(lat, 1.0, 2)
    rows = meas.measure(np.array(snaps))
    assert np.allclose(rows[:, 1], (s_axis0 + s_axis1) / 2, atol=1e-12)


# --- block measurement -----------------------------------------------------------------


def block_sweeps(lat, model):
    """Sweeps per measured block of run_chain: 64 KB of o3 rows (3 reals) or spinor rows (4)."""
    return max(1, 65536 // (lat.volume * 8 * (4 if mc.FLAVOURS[model].spinor else 3)))


def spy_blocks(monkeypatch):
    """The lengths of the blocks _Measurer.measure is called with, in call order."""
    lengths, original = [], mc._Measurer.measure

    def measure(self, n):
        lengths.append(len(n))
        return original(self, n)

    monkeypatch.setattr(mc._Measurer, "measure", measure)
    return lengths


@pytest.mark.parametrize("dims", [[2], [5], [3, 4], [8, 8], [2, 2, 2]])
@pytest.mark.parametrize("model", MODELS)
def test_block_rows_keep_the_bits_of_single_snapshots(dims, model):
    lat = build_lattice(dims)
    batch = ChainBatch(lat, 0.7, [model], [rng_of(41)], delta=1.0)
    (state,) = batch.states
    snaps = []
    for _ in range(block_sweeps(lat, model) + 3):
        chain_sweep(batch)
        snaps.append(state.matter.rows.copy())
    snaps = np.array(snaps)
    spinor = mc.FLAVOURS[model].spinor
    n = hopf_map(snaps.reshape(-1, 2)).reshape(len(snaps), -1, 3) if spinor else snaps
    measurer = mc._Measurer(lat, 0.7, min(4, min(dims) // 2))
    rows = measurer.measure(n)
    assert rows.shape == (len(n), len(measurer.names()))
    for row, snapshot in zip(rows, n):
        assert row.tobytes() == np.array(references.measure(measurer, snapshot)).tobytes()


@pytest.mark.parametrize("dims", [[2], [8, 8]])
@pytest.mark.parametrize("model", MODELS)
def test_run_chain_series_keep_the_bits_of_per_sweep_measurement(dims, model, monkeypatch):
    # a partial last block, one block short, full, one over, and two and a bit
    lat = build_lattice(dims)
    b = block_sweeps(lat, model)
    for sweeps in (1, b - 1, b, b + 1, 2 * b + 3):
        with monkeypatch.context() as m:
            lengths = spy_blocks(m)
            res = run_chain(lat, model, 0.7, sweeps, np.random.SeedSequence(9), thermalization=60)
        assert lengths == [b] * (sweeps // b) + [sweeps % b] * (sweeps % b > 0), sweeps
        ref = references.run_chain_series(lat, model, 0.7, sweeps, np.random.SeedSequence(9), 60)
        assert list(res.series) == list(ref)
        for name in ref:
            assert res.series[name].tobytes() == ref[name].tobytes(), (sweeps, name)


@pytest.mark.parametrize("dims, model, b", [
    ([8, 8], "cp1-reduced", 32), ([8, 8], "o3", 42), ([2], "o3", 1365),
    ([256, 256], "o3", 1), ([256, 256], "cp1-gauged-reduced", 1),
])
def test_snapshot_buffer_holds_at_most_64_kb(dims, model, b, monkeypatch):
    # as many snapshots as fit in 64 KB, and one where a single snapshot is larger
    lat = build_lattice(dims)
    lengths = spy_blocks(monkeypatch)
    run_chain(lat, model, 0.7, b + 1, np.random.SeedSequence(4), thermalization=0)
    assert lengths == [b, 1]
    snapshot_bytes = lat.volume * 8 * (4 if mc.FLAVOURS[model].spinor else 3)
    assert b * snapshot_bytes <= 65536 or b == 1
    assert (b + 1) * snapshot_bytes > 65536


# --- proposal tuning ---------------------------------------------------------------


def test_tune_proposal_monotone():
    lat = build_lattice([4, 4])
    state = init_chain(lat, "o3", 1.0, rng_of(10), delta=0.5)
    up = tune_proposal(state, acceptance=0.9)
    assert up > 0.5
    state.delta = 0.5
    down = tune_proposal(state, acceptance=0.1)
    assert down < 0.5


@pytest.mark.parametrize("model", ["o3", "cp1-reduced"])
def test_tuning_on_a_flat_target_stops_at_the_cap(model):
    # at g = 1e6 every proposal is accepted, so each window doubles delta
    res = run_chain(build_lattice([4, 4]), model, 1e6, 100, np.random.SeedSequence(16),
                    thermalization=10 * mc.TUNE_WINDOW)
    assert res.delta == mc.DELTA_CAP
    assert res.delta_pinned == "cap"


def test_delta_frozen_without_thermalization():
    # no tuning window: the width stays the one every chain starts from
    lat = build_lattice([2])
    res = run_chain(lat, "o3", 1.0, 500, np.random.SeedSequence(3), thermalization=0)
    assert res.delta == mc.DELTA_START


# --- determinism / reproducibility ---------------------------------------------------


def test_block_draws_keep_the_bits_of_shaped_draws():
    # a batch draws each chain's proposal normals and accept uniforms into the
    # chain's block of a shared buffer; every chain's bytes rest on these
    # equalities, so a numpy that broke them would move every series
    shaped, blocked = rng_of(3), rng_of(3)
    normals = np.zeros((3, 7, 4))
    blocked.standard_normal(out=normals[1])
    assert normals[1].tobytes() == shaped.standard_normal((7, 4)).tobytes()
    uniforms = np.ones(3 * 9)
    blocked.random(out=uniforms[9:18])
    assert uniforms[9:18].tobytes() == shaped.uniform(size=9).tobytes()
    assert blocked.bit_generator.state == shaped.bit_generator.state


def test_a_batch_holds_one_row_type_at_one_coupling():
    # the lattice and the coupling are the batch's own arguments; the row type
    # is each model's
    lat = build_lattice([4])
    for models in (["o3", "cp1-reduced"], ["cp1-gauged-reduced", "o3", "o3"]):
        with pytest.raises(McError, match="one row type"):
            ChainBatch(lat, 1.0, models, [rng_of(i) for i in range(len(models))])


def owner(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("models", [MODELS[1:], MODELS[:0:-1], ["o3", "o3"]])
def test_chain_fields_are_views_of_the_batch_buffers(models):
    # the batch draws every start field into one buffer and refreshes every
    # gauged chain's links into another; each state's fields are views of
    # its copy's slices, and copy c holds the caller's chain order[c], with
    # the bytes that chain has as a batch of one
    lat = build_lattice([3, 4])
    v = lat.volume
    batch = ChainBatch(lat, 0.7, models, [rng_of(60 + i) for i in range(len(models))])
    assert sorted(batch.order) == list(range(len(models)))
    assert [s.model for s in batch.states] == [models[i] for i in batch.order]
    assert [s.is_gauged for s in batch.states] == [c >= batch.n_plain for c in range(len(models))]
    assert (batch.gauge is None) == (batch.n_plain == len(models))
    for c, state in enumerate(batch.states):
        assert owner(state.matter.rows) is batch.rows
        assert np.shares_memory(state.matter.rows, batch.rows[c * v : (c + 1) * v])
        assert state.matter.rows.tobytes() == batch.rows[c * v : (c + 1) * v].tobytes()
        alone = init_chain(lat, state.model, 0.7, rng_of(60 + batch.order[c]))
        assert state.matter.rows.tobytes() == alone.matter.rows.tobytes()
        assert owner(alone.matter.rows).nbytes == alone.matter.rows.nbytes  # a batch of one
        if state.is_gauged:
            links = batch.gauge[(c - batch.n_plain) * v : (c + 1 - batch.n_plain) * v]
            assert owner(state.gauge.a) is batch.gauge and np.shares_memory(state.gauge.a, links)
            assert state.gauge.a.tobytes() == links.tobytes() == alone.gauge.a.tobytes()
            assert owner(alone.gauge.a).nbytes == alone.gauge.a.nbytes


def assert_same_chain(res, ref):
    assert (res.model, res.delta, res.acceptance) == (ref.model, ref.delta, ref.acceptance)
    assert list(res.series) == list(ref.series)
    for name in ref.series:
        assert res.series[name].tobytes() == ref.series[name].tobytes(), (ref.model, name)
    assert res.state.matter.rows.tobytes() == ref.state.matter.rows.tobytes(), ref.model
    if ref.state.is_gauged:
        assert res.state.gauge.a.tobytes() == ref.state.gauge.a.tobytes(), ref.model


@pytest.mark.parametrize("dims, self_check", [
    ([2], False), ([8, 8], False), ([3, 4], False), ([4, 4], True), ([3, 4], True),
])
def test_a_chains_bytes_do_not_depend_on_its_batch(dims, self_check):
    # each chain alone, all five in their two batches, and the two batches in
    # two processes: two tuning windows, then measured sweeps; [3, 4] has
    # three colour classes. Reversed, the spinor batch's layout order is not
    # the callers' order, so batch.order maps every result back
    lat = build_lattice(dims)
    kwargs = dict(thermalization=2 * mc.TUNE_WINDOW, self_check=self_check)
    for models in (MODELS, MODELS[::-1]):
        batched = run_chains(lat, models, 0.6, 30, master_seed=19, **kwargs)
        parallel = run_chains(lat, models, 0.6, 30, master_seed=19, processes=2, **kwargs)
        seqs = np.random.SeedSequence(19).spawn(len(models))
        for model, seq, res_batched, res_parallel in zip(models, seqs, batched, parallel):
            alone = run_chain(lat, model, 0.6, 30, seq, **kwargs)
            assert alone.delta != mc.DELTA_START  # the chain's own tuning ran
            assert_same_chain(res_batched, alone)
            assert_same_chain(res_parallel, alone)


def test_seed_determinism():
    lat = build_lattice([4, 4])
    a = run_chains(lat, ["o3", "cp1-pullback"], 1.0, 1500, master_seed=21,
                   thermalization=200)
    b = run_chains(lat, ["o3", "cp1-pullback"], 1.0, 1500, master_seed=21,
                   thermalization=200)
    for ra, rb in zip(a, b):
        for name in ra.series:
            assert np.array_equal(ra.series[name], rb.series[name])


# --- small-system exactness -----------------------------------------------------------


def test_two_site_exact_o3_closed_form():
    # relative-angle weight gives <cos theta> = coth(1/g) - g for every o3-law flavour
    for model in (m for m in mc.MODELS if mc.LAW[m] == "o3"):
        for g in (0.01, 0.05, 0.35, 0.5, 1.0, 2.0, 10.0):
            assert two_site_exact(model, g) == pytest.approx(
                1.0 / math.tanh(1.0 / g) - g, abs=1e-14
            ), (model, g)


@pytest.mark.parametrize("g", [0.002, 0.001, 1e-4, 5e-324])
def test_two_site_exact_refuses_a_coupling_its_rule_does_not_resolve(g):
    # the 96-node rule is off coth(1/g) - g by 4.9e-9 at g = 0.002 and by 5.2e-4
    # at 1e-4; at 5e-324 the weight overflows to nan
    for model in mc.MODELS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(McError, match=f"does not resolve g = {g!r}"):
                two_site_exact(model, g)


def test_two_site_exact_reduced_independent_oracle():
    # independent oracle: w = P + iQ uniform on the unit disk, weight
    # exp(-2 (2 - 2P - Q^2)/g) per the reduced per-link form on two links
    from numpy.polynomial.legendre import leggauss

    g = 1.0
    x, wq = leggauss(200)
    rho = 0.5 * (x + 1.0)
    psi = math.pi * (x + 1.0)
    R, P = np.meshgrid(rho, psi, indexing="ij")
    s = 2.0 * (2.0 - 2.0 * R * np.cos(P) - (R * np.sin(P)) ** 2) / g
    wgt = np.outer(0.5 * wq * rho, math.pi * wq) * np.exp(-(s - s.min()))
    expected = float((wgt * (2 * R**2 - 1)).sum() / wgt.sum())
    assert two_site_exact("cp1-reduced", g) == pytest.approx(expected, abs=1e-9)


def test_two_site_sampler_matches_quadrature_quick():
    # smaller-sweep version of the acceptance criterion for fast feedback
    lat = build_lattice([2])
    for model in ("o3", "cp1-reduced"):
        res = run_chain(lat, model, 1.0, 20_000, np.random.SeedSequence(5),
                        thermalization=2000)
        mean, err = res.estimates["corr_r1"]
        assert abs(mean - two_site_exact(model, 1.0)) <= 3 * err


# --- one-site external-weight systems -------------------------------------------------
#
# A single spin (or spinor) with weight exp(-lam * n_z): Metropolis with the
# proposal on S^2 rows and on S^3 rows must both reproduce
# <n_z> = -(coth(lam) - 1/lam), the moment of the uniform distribution of n_z
# on [-1, 1] tilted by the weight. For the spinor this is
# the sampling-measure face of the spinor-to-vector equivalence.


def langevin_moment(lam):
    return -(1.0 / math.tanh(lam) - 1.0 / lam)


@pytest.mark.parametrize("seed, row, n_z", [
    (12, [[0.0, 0.0, 1.0]], lambda n: n[0, 2]),
    (13, [[1.0 + 0.0j, 0.0j]], lambda z: abs(z[0, 0]) ** 2 - abs(z[0, 1]) ** 2),
], ids=["S2", "S3"])
def test_one_site_external_weight_sampler(seed, row, n_z):
    rng = rng_of(seed)
    state = SimpleNamespace(rng=rng, delta=1.2)
    lam = 1.0
    x = np.array(row)
    total, count = 0.0, 0
    for i in range(40_000):
        new = mc._propose([state], x)
        ds = lam * (n_z(new) - n_z(x))
        if rng.uniform() < math.exp(min(-ds, 0.0)):
            x = new
        if i >= 4000:
            total += n_z(x)
            count += 1
    sigma = math.sqrt(0.25 / count) * 5  # generous band for autocorrelation
    assert abs(total / count - langevin_moment(lam)) < 5 * sigma


def test_unknown_model_rejected():
    lat = build_lattice([4])
    with pytest.raises(McError):
        init_chain(lat, "ising", 1.0, rng_of(14))
    with pytest.raises(McError):
        init_chain(lat, "o3", -1.0, rng_of(14))


def test_gauged_pullback_refuses_a_coupling_its_gauge_squares_overflow(monkeypatch):
    # at g = 1e308 (A - Im w)^2 overflows and inf - inf = nan rejected moves;
    # up to 1e300 every model accepts all moves of a wide proposal, warning-free
    lat = build_lattice([4, 4])
    with pytest.raises(McError, match="cp1-gauged-pullback"):
        init_chain(lat, "cp1-gauged-pullback", 1e308, rng_of(15), delta=4.0)
    monkeypatch.setattr(mc, "run_chain", None)  # refused before any chain runs
    with pytest.raises(McError, match="cp1-gauged-pullback"):
        run_chains(lat, ["o3", "cp1-gauged-pullback"], 1e308, 10, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, g in [(m, 1e300) for m in MODELS] + [("cp1-gauged-reduced", 1e308)]:
            batch = ChainBatch(lat, g, [model], [rng_of(15)], delta=4.0)
            assert all(chain_sweep(batch) == [1.0] for _ in range(50)), (model, g)


# --- the flavour table -------------------------------------------------------------------


def register_double_flavour(monkeypatch):
    """A spinor flavour "double" whose law's per-link term is 2 pullback_term, so its
    weight at g is the o3 law's at g/2: one record, one law term and one global action.
    Returns the couplings its global action is called with."""
    calls = []

    def action_double(lat, zf, g):
        calls.append(g)
        return 2.0 * actions.action_o3_pullback(lat, zf, g)

    monkeypatch.setitem(mc.FLAVOURS, "double",
                        mc.Flavour("double", True, False, False, "action_double"))
    monkeypatch.setitem(mc.LAW_TERMS, "double", "double_term")
    monkeypatch.setattr(actions, "double_term", lambda w: 2.0 * actions.pullback_term(w),
                        raising=False)
    monkeypatch.setattr(actions, "action_double", action_double, raising=False)
    return calls


def assert_every_caller_reads_the_double_flavour(monkeypatch):
    calls = register_double_flavour(monkeypatch)
    lat = build_lattice([3, 4])
    # a cp1-pullback copy and a double copy of one start field and one stream
    batch = ChainBatch(lat, 0.7, ["double", "cp1-pullback"], [rng_of(8), rng_of(8)])
    pullback, double = batch.states
    assert (pullback.model, double.model) == ("cp1-pullback", "double")
    table = mc._site_table(batch, mc._colour_classes(lat)[0])
    old = batch.rows.take(table.sites, axis=0)
    new = mc._propose(batch.states, old)
    ds = mc._delta_s(batch, table, old, new).reshape(2, -1)
    assert np.count_nonzero(ds[0]) and np.array_equal(ds[1], 2.0 * ds[0])  # doubling is exact
    assert mc.total_action(double) == 2.0 * mc.total_action(pullback)
    assert calls == [0.7]
    assert abs(mc.two_site_exact("double", 0.7) - mc.two_site_exact("o3", 0.35)) <= 1e-14


def test_every_caller_reads_a_registered_flavour(monkeypatch):
    assert_every_caller_reads_the_double_flavour(monkeypatch)


# one named mutant per caller of the table, each with its flavour choice hard-coded back
FLAVOUR_MUTANTS = {
    "delta-s-kernel": ("_delta_s", edit(
        "getattr(actions, LAW_TERMS[flavour.law])",
        "(actions.pullback_term if flavour.law == 'o3' else actions.reduced_term)")),
    "total-action": ("total_action", edit(
        "getattr(actions, flavour.action)", "actions.action_o3_pullback")),
    "two-site-kernel": ("two_site_exact", edit(
        "getattr(actions, LAW_TERMS[FLAVOURS[model].law])",
        "actions.pullback_term if FLAVOURS[model].law == 'o3' else actions.reduced_term")),
}


@pytest.mark.parametrize("name", list(FLAVOUR_MUTANTS))
def test_a_caller_with_its_flavour_choice_hard_coded_fails(monkeypatch, name):
    function, mutant = FLAVOUR_MUTANTS[name]
    monkeypatch.setattr(mc, function, mutant(getattr(mc, function)))
    with pytest.raises(AssertionError):
        assert_every_caller_reads_the_double_flavour(monkeypatch)


def test_a_law_without_a_term_raises(monkeypatch):
    # no fall-back to some other law's term
    monkeypatch.setitem(mc.FLAVOURS, "orphan",
                        mc.Flavour("orphan", True, False, False, "action_o3_pullback"))
    batch = ChainBatch(build_lattice([4]), 0.7, ["orphan"], [rng_of(9)])
    with pytest.raises(KeyError, match="orphan"):
        chain_sweep(batch)
    with pytest.raises(KeyError, match="orphan"):
        two_site_exact("orphan", 0.7)


def flavour_tests(path):
    """Lines of the module at path that compare with a flavour name or test a "cp1" prefix.

    cli._model_tag's cp1-gauged alias is the one allowed site.
    """
    tree = ast.parse(path.read_text())
    allowed = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               and (path.name, fn.name) == ("cli.py", "_model_tag") for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("startswith", "endswith")):
            operands = node.args
        else:
            continue
        # the operands themselves, and the items of a tuple, list or set operand
        items = [i for o in operands for i in getattr(o, "elts", [o])]
        literals = [i.value for i in items if isinstance(i, ast.Constant) and isinstance(i.value, str)]
        if id(node) not in allowed and any(v in mc.FLAVOURS or v.startswith("cp1") for v in literals):
            lines.append(f"{path.name}:{node.lineno}")
    return lines


def test_no_module_tests_a_flavour_name():
    # what a flavour is, is read from its mc.FLAVOURS record
    paths = sorted(Path(mc.__file__).parent.glob("*.py"))
    assert len(paths) > 5
    assert [line for path in paths for line in flavour_tests(path)] == []
