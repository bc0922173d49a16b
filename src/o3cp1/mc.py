"""Metropolis / Gibbs sampling of the spin and spinor models.

Five chain flavors share one engine; FLAVOURS holds what each one is:

  o3                   unit 3-vector field, kinetic action (1/4g) sum |dn|^2
  cp1-pullback         spinor field weighted by the o3 action of hopf(z); the
                       weight depends on z only through n, so observables of n
                       match the o3 chain exactly (in law)
  cp1-reduced          spinor field under the gauge-marginalized action
  cp1-gauged-reduced   joint (z, A) chain under the covariant-difference
                       action; its z-marginal is exactly cp1-reduced
  cp1-gauged-pullback  joint (z, A) chain with the matter part replaced by the
                       pullback action (the A-conditional Gaussian is
                       unchanged); its n-observables match o3 exactly

In both gauged flavors the joint weight factorizes as
exp(-(A - A*)^2/g) * exp(-S_matter(z)) with A* = Im z(x)^dag z(x+mu), so the
gauge field is resampled exactly from its Gaussian conditional
(mean A*, variance g/2).

Matter updates are single-site Metropolis with one proposal for every
flavour, a Gaussian kick x' = normalize(x + delta * eta) of the site's row:
a real unit 3-vector for o3, a complex unit spinor (a point of S^3) for the
others. The law of x' given x depends only on the angle between them, so the
proposal is symmetric on both spheres. Tuning keeps delta in
[DELTA_FLOOR, DELTA_CAP] = [1e-4, 4].

Chains are made and swept in batches (ChainBatch): chains of one row type on
one lattice at one coupling, held as the disjoint copies of one union
lattice. The batch draws each chain's start field into its copy's slice of
one buffer, and each chain's fields are views of that slice; run_chains runs
its o3 chains as one batch and its spinor chains as another, and a single
chain (init_chain, run_chain) is a batch of one. A sweep updates the colour
classes of the lattice in turn, each class of every copy at once: no two
sites of a class are neighbours, so their simultaneous updates are
independent. On lattices with every extent even the classes are the two
checkerboard parities; with an odd extent there are three (see
_colour_classes).

Each class has an index table of its sites' neighbours and, for gauged
chains, of the links joining them, over the union with copy c's entries
offset by c copies, built once per batch. Every per-site gather is
ndarray.take over a contiguous index table, and the accept write-back goes
through compress: the values of fancy indexing, with less memory traffic. A
class costs one gather, one proposal, one overlap evaluation and one accept
and write-back for the whole batch; only the action change is taken per
flavour, on the contiguous rows of its copies (_delta_s). Where the action is
affine in the site's row it is -c (x' - x).h / g with a local field h: the
neighbour sum for o3 (c = 1/2) and, for cp1-gauged-reduced (c = 2; see
actions), the staple sum_j (1 - i s_j A_j) z_j with s_j = -1 on backward
links, whose direction and 2|h|/g are the mean and concentration of the
site's von Mises-Fisher conditional on S^3. The other spinor chains apply the
per-link kernels of actions.py to the overlaps with the neighbours. One Gibbs
refresh serves every gauged copy. Self-check mode runs the same path and,
after every class, compares each checked chain's sum of accepted action
changes with the change of its full action (total_action, which uses the
independent references action_o3 and action_cp1_gauged where they apply).

A chain keeps its matter field in one slot, ChainState.matter: a SpinField
for o3, else a CP1Field whose one buffer, CP1Field.data, is read and written
through its complex view CP1Field.z. Both expose the rows the sampler moves
as .rows. The batch runner copies each measured sweep's rows into a snapshot
buffer of at most MEASURE_BLOCK_BYTES per chain and measures the buffer a
block at a time: spinor observables use hopf(z), computed once per block.

ChainResult.estimates holds each observable's jackknife (mean, error),
computed once on first use: the one place error bars are computed.

Reproducibility: a chain's generator is PCG64 seeded from
SeedSequence(master_seed).spawn(n_chains)[chain_index], and every chain of a
batch draws from its own generator, in the order a batch of one draws: first
its start field and, if gauged, the noise of its first gauge refresh; then per
class its proposal normals (Generator.standard_normal into its block) and its
accept uniforms (Generator.random into its block), per sweep then its gauge
noise. So a chain's draws and bytes do not depend on the chains it
shares a batch with, and identical configuration and master seed reproduce
identical series bit for bit, serial or parallel.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import actions
from .actions import gauge_term, spinor_overlap
from .errors import O3CP1Error
from .fields import CP1Field, GaugeField, SpinField, hopf_map
from .lattice import Lattice
from .measure import _leggauss


class Flavour(NamedTuple):
    """What a chain flavour is: every flavour branch of mc reads its record in FLAVOURS.

    law     the law of its n observables: flavours that share a law give
            identically distributed n, so compare gates exactly those pairs;
            LAW_TERMS[law] names the law's per-link term in actions
    spinor  its rows are unit spinors (S^3), else unit 3-vectors (S^2)
    gauged  it carries a gauge field, refreshed by gibbs_gauge_update
    affine  its action change takes _delta_s's affine local-field branch
    action  the name in actions of its global action (total_action)

    Records name functions rather than hold them: the benchmark's tracer
    rebinds module attributes, so each name is looked up when it is used.
    """

    law: str
    spinor: bool
    gauged: bool
    affine: bool
    action: str


FLAVOURS = {
    "o3": Flavour("o3", False, False, True, "action_o3"),
    "cp1-pullback": Flavour("o3", True, False, False, "action_o3_pullback"),
    "cp1-reduced": Flavour("reduced", True, False, False, "action_cp1_reduced"),
    "cp1-gauged-reduced": Flavour("reduced", True, True, True, "action_cp1_gauged"),
    "cp1-gauged-pullback": Flavour("o3", True, True, False, "action_cp1_gauged_pullback"),
}
LAW_TERMS = {"o3": "pullback_term", "reduced": "reduced_term"}
LAW = {model: flavour.law for model, flavour in FLAVOURS.items()}
MODELS = tuple(FLAVOURS)

SELF_CHECK_TOL = 1e-9
TARGET_ACCEPTANCE = 0.5  # proposal tuning aims here during thermalization
TUNE_WINDOW = 50  # thermalization sweeps per proposal-width adjustment
DELTA_START = 0.5  # proposal width of a new chain, until the first tuning window
DELTA_FLOOR = 1e-4  # tuning keeps the proposal width in [DELTA_FLOOR, DELTA_CAP]
DELTA_CAP = 4.0
MEASURE_BLOCK_BYTES = 65536  # a chain's snapshot buffer: max(1, this // row bytes) sweeps


class McError(O3CP1Error, RuntimeError):
    """Sampling-contract violation (bad model tag, self-check failure, ...)."""


def _binned_jackknife(vals, b):
    bins = vals.reshape(-1, b).mean(axis=1)
    n_bins = len(bins)
    leave_one_out = (bins.sum() - bins) / (n_bins - 1)
    mean = float(bins.mean())
    err = math.sqrt((n_bins - 1) / n_bins * float(((leave_one_out - mean) ** 2).sum()))
    return mean, err


def chain_bin_size(sweeps):
    """Jackknife bin of a chain of `sweeps` measured sweeps: 50 bins of at least one sweep."""
    return max(1, sweeps // 50)


def count_bins(n_values, bin_size):
    """Whole bins of n_values values at bin_size; McError below the jackknife's 20."""
    b = int(bin_size)
    if b < 1:
        raise McError(f"bin size must be >= 1, got {b}")
    n_bins = n_values // b
    if n_bins < 20:
        raise McError(
            f"jackknife needs >= 20 bins, got {n_bins} ({n_values} values at bin size {b})"
        )
    return n_bins


def jackknife(values, bin_size):
    """Binned jackknife (mean, standard error) of a series; needs >= 20 bins.

    Finite values give a finite error bar: where the sums or squares of values
    near the float range overflow, the series is scaled by an exact power of
    two first, so every error bar that was finite without scaling keeps its
    bits.
    """
    vals = np.asarray(values, dtype=float)
    b = int(bin_size)
    vals = vals[: count_bins(len(vals), b) * b]
    with np.errstate(over="ignore", invalid="ignore"):
        mean, err = _binned_jackknife(vals, b)
        if not (math.isfinite(mean) and math.isfinite(err)):
            e = math.frexp(float(np.abs(vals).max()))[1]
            mean, err = _binned_jackknife(np.ldexp(vals, -e), b)
            mean, err = math.ldexp(mean, e), math.ldexp(err, e)
    return mean, err


@dataclass
class ChainState:
    """One Markov chain: lattice, model tag, field, proposal width, rng."""

    lat: Lattice
    model: str
    g: float
    delta: float
    rng: np.random.Generator
    matter: SpinField | CP1Field  # CP1Field for a spinor flavour, else SpinField
    gauge: GaugeField = None
    self_check: bool = False

    @property
    def is_gauged(self):
        return FLAVOURS[self.model].gauged


def _check_chain(model, g):
    """McError unless `model` is a flavour whose chain can sample at coupling g."""
    if model not in FLAVOURS:
        raise McError(f"unknown model {model!r}; expected one of {tuple(FLAVOURS)}")
    if not (g > 0):
        raise McError(f"coupling must be positive, got {g}")
    # a gauged flavour off the affine branch sums 2 ndim squares (A - Im w)^2 =
    # (g/2) z^2, z standard normal (gibbs_gauge_update), for the new spinor and
    # for the old. Near g = 1e307 both overflow to inf and inf - inf = nan
    # rejects the move; up to 1e300 they stay finite while ndim z^2 < 1e8.
    flavour = FLAVOURS[model]
    if flavour.gauged and not flavour.affine and g > 1e300:
        raise McError(f"coupling {g} is too large for {model} (at most 1e300): "
                      f"its squared gauge terms overflow")


def init_chain(lat, model, g, rng, delta=DELTA_START, self_check=False) -> ChainState:
    """The chain of a batch of one (ChainBatch); its fields are views of the batch's buffers."""
    return ChainBatch(lat, g, [model], [rng], delta, self_check).states[0]


def total_action(state: ChainState) -> float:
    """Full action of the current configuration (reference for self-checks): the flavour's."""
    flavour = FLAVOURS[state.model]
    fields = (state.matter, state.gauge)[: 1 + flavour.gauged]  # a gauged action reads A too
    return getattr(actions, flavour.action)(state.lat, *fields, state.g)


# --- batches -----------------------------------------------------------------


def _tile(idx, copies, step):
    """Index array (..., k) -> (..., copies * k): block c is idx + c * step."""
    return (idx[..., None, :] + step * np.arange(copies)[:, None]).reshape(idx.shape[:-1] + (-1,))


class ChainBatch:
    """Chains of one row type on one lattice at one coupling, swept as one union lattice.

    The one place a chain is made. Chain i runs models[i] and draws from
    rngs[i]: first its uniformly random start field, into its copy's slice of
    the one buffer `rows`, then, if gauged, its links by a Gibbs refresh, into
    `gauge`. Copy c holds the caller's chain order[c], and states[c] is that
    chain, its fields views of the copy's slices. Copies are in layout order:
    plain chains, then gauged ones, the affine ones last (Flavour), so that
    each flavour's copies, the gauged copies and the copies whose action
    change reads the overlaps are contiguous.
    """

    def __init__(self, lat, g, models, rngs, delta=DELTA_START, self_check=False):
        for model in models:
            _check_chain(model, g)
        if len({FLAVOURS[model].spinor for model in models}) > 1:
            raise McError("a batch holds chains of one row type")
        self.order = sorted(range(len(models)), key=lambda i: (
            FLAVOURS[models[i]].gauged, FLAVOURS[models[i]].affine, models[i]))
        models = [models[i] for i in self.order]
        flavours = [FLAVOURS[model] for model in models]
        self.lat, self.g, volume = lat, float(g), lat.volume
        self.spinor = flavours[0].spinor
        self.n_plain = sum(not f.gauged for f in flavours)  # the first gauged copy
        self.n_overlap = sum(not f.affine for f in flavours)
        self.kernels = []  # [model, first copy, end copy] of each flavour that reads overlaps
        for c, model in enumerate(models[: self.n_overlap]):
            if self.kernels and self.kernels[-1][0] == model:
                self.kernels[-1][2] = c + 1
            else:
                self.kernels.append([model, c, c + 1])
        field = CP1Field if self.spinor else SpinField
        self.rows = np.empty((len(models) * volume, 2 if self.spinor else 3),
                             np.complex128 if self.spinor else np.float64)
        self.states = []
        for c, (model, i) in enumerate(zip(models, self.order)):
            view = self.rows[c * volume : (c + 1) * volume]
            view[:] = field.random(lat, rngs[i]).rows
            self.states.append(ChainState(
                lat=lat, model=model, g=self.g, delta=float(delta), rng=rngs[i],
                matter=CP1Field(view.view(np.float64)) if self.spinor else SpinField(view),
                self_check=self_check))
        self.gauge = None  # (gauged copies * volume, ndim)
        gauged = self.states[self.n_plain :]
        if gauged:
            self.gauge = np.empty((len(gauged) * volume, lat.ndim))
            for c, s in enumerate(gauged):
                s.gauge = GaugeField(self.gauge[c * volume : (c + 1) * volume])
            # per direction, the forward neighbour of each row of the gauged copies
            self.gauged_fwd = _tile(lat.neighbors[0], len(gauged), volume)
            gibbs_gauge_update(self)
        self.classes = None  # one _SiteTable per colour class, built by the first sweep

    @property
    def model(self):
        """The chains' model tag, or None when they differ (timing spans key on it)."""
        models = {s.model for s in self.states}
        return models.pop() if len(models) == 1 else None


# --- local updates -----------------------------------------------------------


class _SiteTable(NamedTuple):
    """Index table of one colour class on a batch's union lattice.

    sites holds the class's k sites in each copy, copy by copy, as union
    indices. nbr[j, i] is the neighbour of sites[i] forward along direction j
    for j < ndim, backward along j - ndim after that. For the gauged copies,
    the last ones, links[j, i] is the flat index into the batch's gauge buffer
    of the link joining the i-th gauged row to its neighbour, and sign[j] the
    sign of Im w on it (-1 on backward links, whose overlap is conjugated).
    """

    sites: np.ndarray
    nbr: np.ndarray
    links: np.ndarray = None
    sign: np.ndarray = None


def _site_table(batch, sites):
    """The _SiteTable of the lattice sites `sites` in every copy of the batch."""
    lat, copies = batch.lat, len(batch.states)
    nbr = lat.neighbors.take(sites, axis=2).reshape(2 * lat.ndim, len(sites))
    union = _SiteTable(_tile(sites, copies, lat.volume), _tile(nbr, copies, lat.volume))
    if batch.gauge is None:
        return union
    mu = np.arange(lat.ndim)[:, None]
    links = np.concatenate([sites * lat.ndim + mu, nbr[lat.ndim :] * lat.ndim + mu])
    return union._replace(links=_tile(links, copies - batch.n_plain, lat.n_links),
                          sign=np.repeat([1.0, -1.0], lat.ndim)[:, None])


def _delta_s(batch, table, old, new):
    """Action change of moving each row of `table` from `old` to `new`.

    One gather of the neighbours serves every chain and both values. The
    first rows, those of the flavours off the affine branch, take the
    overlaps w = z(x)^dag z(y) together, and each flavour applies its law's
    per-link term (LAW_TERMS), plus the gauge term if gauged, to its rows.
    The other rows take the affine branch -c (x' - x).h / g (module notes).
    """
    k = len(table.sites) // len(batch.states)
    m = batch.n_overlap * k
    nbr = batch.rows.take(table.nbr, axis=0)
    if batch.gauge is not None:
        a = batch.gauge.take(table.links) * table.sign  # the gauged copies' rows
    if m:
        pair = np.concatenate((new[:m], old[:m])).reshape(2, 1, m, 2)
        w = spinor_overlap(pair, nbr[:, :m])  # (2, 2 ndim, m): new, old
    if m < len(new):
        nb = nbr[:, m:].view(np.float64)  # (2 ndim, rows, 3 or 4) reals
        h = nb.sum(axis=0)
        if batch.spinor:  # cp1-gauged-reduced: h += -i sum_j s_j A_j z_j
            ha = np.einsum("jk,jkd->kd", a[:, m - batch.n_plain * k :], nb)
            h += (ha.view(np.complex128) * -1j).view(np.float64)
        del nb
    # the gather is the largest array here; held through the arithmetic below,
    # it made malloc return and refault about 6 MB per colour class on 256x256
    del nbr
    ds = np.empty(len(new))
    if m < len(new):
        c = 2.0 if batch.spinor else 0.5
        ds[m:] = -c * ((new[m:] - old[m:]).view(np.float64) * h).sum(axis=1) / batch.g
    if m:
        terms = np.empty(w.shape)
        for model, first, end in batch.kernels:
            flavour = FLAVOURS[model]
            rows = slice(first * k, end * k)
            terms[:, :, rows] = getattr(actions, LAW_TERMS[flavour.law])(w[:, :, rows])
            if flavour.gauged:
                links = slice((first - batch.n_plain) * k, (end - batch.n_plain) * k)
                terms[:, :, rows] += gauge_term(a[:, links], w[:, :, rows])
        s_new, s_old = terms.sum(axis=1)
        ds[:m] = (s_new - s_old) / batch.g
    return ds


def _propose(states, old):
    """Gaussian kick, renormalized: x' = normalize(x + delta * eta), row by row.

    Rows are real unit 3-vectors (S^2) or complex unit spinors (S^3, eta with
    independent standard normal real and imaginary parts). The rows come in
    len(states) equal blocks, one per chain, each drawing eta from its own
    stream at its own delta. The law of x' given x depends only on the angle
    between them: the proposal is symmetric.
    """
    k = len(old) // len(states)
    eta = np.empty(old.view(np.float64).shape)
    for c, s in enumerate(states):
        block = eta[c * k : c * k + k]
        s.rng.standard_normal(out=block)
        block *= s.delta
    new = old + eta.view(old.dtype)
    new /= np.sqrt((np.abs(new) ** 2).sum(axis=1, keepdims=True))
    return new


def _update_class(batch, table):
    """Metropolis-update one colour class of every copy; returns the accept count per copy.

    Each chain draws its proposals and then its accept uniforms from its own
    stream, so its draws and bytes do not depend on its batch-mates. In
    self-check mode the sum of a chain's accepted action changes must match
    its full-action difference across the class.
    """
    states, buf = batch.states, batch.rows
    k = len(table.sites) // len(states)
    before = {c: total_action(s) for c, s in enumerate(states) if s.self_check}
    old = buf.take(table.sites, axis=0)
    new = _propose(states, old)
    ds = _delta_s(batch, table, old, new)
    u = np.empty(len(ds))
    for c, s in enumerate(states):
        s.rng.random(out=u[c * k : c * k + k])
    accept = u < np.exp(np.minimum(-ds, 0.0))
    buf[table.sites.compress(accept)] = new.compress(accept, axis=0)
    for c, action in before.items():
        rows = slice(c * k, c * k + k)
        gap = abs((total_action(states[c]) - action) - float(ds[rows][accept[rows]].sum()))
        if gap > SELF_CHECK_TOL:
            raise McError(
                f"local action change disagrees with full recomputation by "
                f"{gap:.3e} in the colour class of {k} site(s) from site "
                f"{table.sites[c * k] - c * batch.lat.volume} (model {states[c].model})"
            )
    return accept.reshape(len(states), k).sum(axis=1)


def _colour_classes(lat: Lattice):
    """Sites of each colour class, in update order; no link joins two of one class.

    Per direction a site's label is x mod 2, except 2 at the last site of an
    odd extent. Its class is the label sum mod 2 when every extent is even
    (the checkerboard parities) and mod 3 otherwise: a step along one
    direction changes one label by 1 or 2 (the wrap of an odd extent), never
    by a multiple of 3, and by exactly 1 when every extent is even.
    """
    coords = lat.site_coords(np.arange(lat.volume))
    dims = np.asarray(lat.dims)
    labels = coords % 2
    labels[(coords == dims - 1) & (dims % 2 == 1)] = 2
    n_classes = 2 if (dims % 2 == 0).all() else 3
    colour = labels.sum(axis=1) % n_classes
    return [np.flatnonzero(colour == c) for c in range(n_classes)]


def metropolis_sweep(batch: ChainBatch) -> list:
    """One full-lattice sweep of single-site proposals of every chain of the batch.

    Returns each chain's acceptance rate, in batch.states order.
    """
    if batch.classes is None:
        batch.classes = tuple(_site_table(batch, s) for s in _colour_classes(batch.lat))
    accepted = sum(_update_class(batch, table) for table in batch.classes)
    return [int(a) / batch.lat.volume for a in accepted]


def gibbs_gauge_update(batch: ChainBatch):
    """Resample every link of the batch's gauged chains from its Gaussian conditional N(A*, g/2)."""
    if batch.gauge is None:
        raise McError(f"gauge update requires a gauged model, got {batch.states[0].model}")
    z = batch.rows[batch.n_plain * batch.lat.volume :]
    astar = np.empty(batch.gauge.shape)
    for mu, fwd in enumerate(batch.gauged_fwd):
        astar[:, mu] = spinor_overlap(z, z.take(fwd, axis=0)).imag
    noise = np.empty(astar.shape)
    volume, scale = batch.lat.volume, math.sqrt(batch.g / 2.0)
    for c, s in enumerate(batch.states[batch.n_plain :]):
        block = noise[c * volume : (c + 1) * volume]
        s.rng.standard_normal(out=block)
        block *= scale
    batch.gauge[:] = astar + noise


def chain_sweep(batch: ChainBatch) -> list:
    """Matter sweep plus, for the gauged chains, an exact gauge refresh; returns the rates."""
    rates = metropolis_sweep(batch)
    if batch.gauge is not None:
        gibbs_gauge_update(batch)
    return rates


def tune_proposal(state: ChainState, acceptance):
    """Multiplicative proposal-width adjustment toward TARGET_ACCEPTANCE.

    The width changes by at most a factor 2 per call. Only valid during
    thermalization; the driver freezes delta afterwards.
    """
    factor = min(max(acceptance / TARGET_ACCEPTANCE, 0.5), 2.0)
    state.delta = min(max(state.delta * factor, DELTA_FLOOR), DELTA_CAP)
    return state.delta


# --- observables -------------------------------------------------------------


class _Measurer:
    """Per-sweep scalar observables: energy density and axis-averaged correlators."""

    def __init__(self, lat: Lattice, g, r_max):
        self.lat = lat
        self.g = g
        self.r_values = [r for r in range(1, r_max + 1)]
        # r = 1 reuses the forward-neighbour gather of the energy term; the
        # table of r steps along mu is the forward table composed r times
        self.shifts = {r: [] for r in self.r_values if r > 1}
        for mu in range(lat.ndim):
            fwd = idx = lat.fwd(mu)
            for r in self.shifts:
                idx = fwd.take(idx)
                self.shifts[r].append(idx)

    def names(self):
        return ["energy"] + [f"corr_r{r}" for r in self.r_values]

    def measure(self, n):
        """One row of names() per snapshot of the block n, shape (B, volume, 3).

        Each snapshot's sums run in the order of a single-snapshot measurement,
        so a row has the bits it would have if measured alone.
        """
        lat, b = self.lat, len(n)
        energy, corr1 = 0.0, 0.0
        for mu in range(lat.ndim):
            n_fwd = n.take(lat.fwd(mu), axis=1)
            d = n_fwd - n
            energy += (d * d).reshape(b, -1).sum(axis=1)
            corr1 += (n * n_fwd).reshape(b, -1).sum(axis=1)
        cols = [energy / (4.0 * self.g * lat.volume)]
        for r in self.r_values:
            c = corr1 if r == 1 else sum((n * n.take(idx, axis=1)).reshape(b, -1).sum(axis=1)
                                          for idx in self.shifts[r])
            cols.append(c / (lat.ndim * lat.volume))
        return np.stack(cols, axis=1)


@dataclass
class ChainResult:
    model: str
    dims: tuple
    g: float
    sweeps: int
    thermalization: int
    delta: float
    acceptance: float
    series: dict  # name -> values, one per measured sweep
    bin_size: int  # the jackknife bin of every observable
    state: ChainState = field(repr=False, default=None)

    @cached_property
    def estimates(self):
        """name -> jackknife (mean, error); McError with fewer than 20 bins."""
        return {name: jackknife(values, self.bin_size) for name, values in self.series.items()}

    @property
    def delta_pinned(self):
        """The tuning bound the frozen proposal width sits at: "floor", "cap" or None.

        A chain pinned at the floor barely moved: its error bars say nothing.
        """
        if self.delta <= DELTA_FLOOR:
            return "floor"
        if self.delta >= DELTA_CAP:
            return "cap"
        return None

    def summary(self):
        out = {
            "model": self.model,
            "dims": list(self.dims),
            "g": self.g,
            "sweeps": self.sweeps,
            "thermalization": self.thermalization,
            "delta": self.delta,
            "delta_pinned": self.delta_pinned,
            "acceptance": self.acceptance,
            "observables": {},
        }
        try:
            estimates = self.estimates
        except McError:  # too few bins for a jackknife error bar
            estimates = {name: (float(np.mean(v)), None) for name, v in self.series.items()}
        for name, values in sorted(self.series.items()):
            mean, error = estimates[name]
            out["observables"][name] = {
                "bins": len(values) // self.bin_size, "bin_size": self.bin_size,
                "mean": mean, "error": error,
            }
        return out


def default_thermalization(sweeps: int) -> int:
    """Fixed-fraction thermalization: 10% of sweeps, at least 1000."""
    return max(sweeps // 10, 1000)


def run_chain(
    lat: Lattice,
    model: str,
    g: float,
    sweeps: int,
    seed_seq: np.random.SeedSequence,
    thermalization=None,
    self_check=False,
) -> ChainResult:
    """Thermalize (tuning the proposal), then sweep and measure every sweep.

    A batch of one chain; see _run_batch.
    """
    return _run_batch(lat, [model], g, sweeps, [seed_seq], thermalization, self_check)[0]


def _run_batch(lat, models, g, sweeps, seed_seqs, thermalization=None, self_check=False):
    """One ChainResult per model, the chains swept together as one ChainBatch.

    Chain i's generator is PCG64(seed_seqs[i]). The proposal width starts at
    DELTA_START and is tuned per chain; it is frozen at the end of
    thermalization, before any measurement. Observables: o3-pullback energy
    density and direction-averaged correlators at integer separations
    r = 1..min(dims)//2, capped at 4. Measured sweeps are snapshotted into a
    buffer of MEASURE_BLOCK_BYTES per chain and measured when it is full and
    after the last sweep. Overflow is silent: at a subnormal g an infinite
    action change still decides the step, and the energy reads inf.
    """
    batch = ChainBatch(lat, g, models, [np.random.Generator(np.random.PCG64(seq))
                                        for seq in seed_seqs], self_check=self_check)
    therm = default_thermalization(sweeps) if thermalization is None else thermalization
    measurer = _Measurer(lat, g, min(4, min(lat.dims) // 2))
    names = measurer.names()
    rows, copies, volume = batch.rows, len(batch.states), lat.volume
    try:  # before thermalization, so that a series too long to hold fails at once
        data = [np.empty((sweeps, len(names))) for _ in range(copies)]
    except (MemoryError, ValueError):
        raise McError(f"cannot allocate the series of {sweeps} sweeps") from None

    per_copy = rows.nbytes // copies
    snaps = np.empty((max(1, MEASURE_BLOCK_BYTES // per_copy),) + rows.shape, rows.dtype)
    with np.errstate(over="ignore"):
        windows = [[] for _ in batch.states]  # each chain's rates since its last tuning
        for i in range(therm):
            for window, rate in zip(windows, chain_sweep(batch)):
                window.append(rate)
            if (i + 1) % TUNE_WINDOW == 0:
                for state, window in zip(batch.states, windows):
                    tune_proposal(state, float(np.mean(window)))
                    window.clear()

        acc = [0.0] * copies
        for i in range(sweeps):
            for c, rate in enumerate(chain_sweep(batch)):
                acc[c] += rate
            k = i % len(snaps)
            snaps[k] = rows
            if k == len(snaps) - 1 or i == sweeps - 1:
                block = snaps[: k + 1]
                if batch.spinor:
                    block = hopf_map(block.reshape(-1, 2)).reshape(k + 1, copies * volume, 3)
                for c, series in enumerate(data):
                    series[i - k : i + 1] = measurer.measure(block[:, c * volume : (c + 1) * volume])
    results = [None] * copies
    for c, (state, series) in enumerate(zip(batch.states, data)):
        results[batch.order[c]] = ChainResult(
            model=state.model,
            dims=lat.dims,
            g=g,
            sweeps=sweeps,
            thermalization=therm,
            delta=state.delta,
            acceptance=acc[c] / sweeps,
            series={name: series[:, j].copy() for j, name in enumerate(names)},
            bin_size=chain_bin_size(sweeps),
            state=state,
        )
    return results


def run_chains(lat, models, g, sweeps, master_seed, processes=1, **kwargs):
    """Run one chain per model tag: the o3 chains as one batch, the spinor chains as another.

    Chain i draws its generator from SeedSequence(master_seed).spawn(len(models))[i],
    and its draws and bytes do not depend on the chains it shares a batch
    with, so results are reproducible and identical between serial runs,
    parallel runs (one process per batch, up to `processes`) and run_chain.
    """
    for model in models:  # refuse a bad chain before any chain samples
        _check_chain(model, g)
    seqs = np.random.SeedSequence(master_seed).spawn(len(models))
    batches = {}  # row type -> indices of its chains
    for i, model in enumerate(models):
        batches.setdefault(FLAVOURS[model].spinor, []).append(i)
    tasks = [([models[i] for i in idx], [seqs[i] for i in idx]) for idx in batches.values()]
    if processes <= 1 or len(tasks) == 1:
        done = [_run_batch(lat, batch, g, sweeps, batch_seqs, **kwargs)
                for batch, batch_seqs in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(processes, len(tasks))) as pool:
            futures = [pool.submit(_run_batch, lat, batch, g, sweeps, batch_seqs, **kwargs)
                       for batch, batch_seqs in tasks]
            done = [future.result() for future in futures]
    results = [None] * len(models)
    for idx, batch_results in zip(batches.values(), done):
        for i, result in zip(idx, batch_results):
            results[i] = result
    return results


# --- small-system quadrature references ---------------------------------------
#
# On the two-site chain every model's <n(0) . n(1)> reduces to one integral of
# its own Boltzmann weight over the unit disk of w, on an n x n Gauss-Legendre
# grid. Both links join the same two sites, so the action is twice one per-link
# kernel of actions.py over g, evaluated on the whole grid. The weight narrows
# as g falls: the 96-node grid resolves g >= 0.0035 and is the one used;
# the 192-node grid only checks it.


def _two_site_quadrature(term, g, n):
    x, wq = _leggauss(n)
    rho = 0.5 * (x + 1.0)  # |w| in [0, 1]
    psi = 0.5 * (x + 1.0) * 2.0 * math.pi
    w = np.multiply.outer(rho, np.cos(psi) + 1j * np.sin(psi))
    with np.errstate(all="ignore"):  # a g too small to resolve ends in the check below
        s_vals = 2.0 * term(w) / g
        wgt = np.outer(0.5 * wq * rho, 0.5 * 2.0 * math.pi * wq)
        weight = wgt * np.exp(-(s_vals - s_vals.min()))
        obs = 2.0 * rho[:, None] ** 2 - 1.0
        return float(np.sum(weight * obs) / np.sum(weight))


def two_site_exact(model: str, g: float) -> float:
    """<n(0) . n(1)> on dims [2] by direct quadrature of the model's weight.

    By invariance the weight depends only on w = z(0)^dag z(1), and the flat
    spinor-sphere measure pushes to the uniform disk |w| <= 1 (the marginal
    of one unit spinor component). S = 2 term(w) / g with the per-link term
    of the flavour's law (LAW_TERMS), and n(0).n(1) = 2|w|^2 - 1. Gauged
    flavors share their matter marginal's value exactly. McError when the 96-
    and 192-node rules differ by more than 1e-12 or either is not finite:
    the rule does not resolve g.
    """
    if model not in FLAVOURS:
        raise McError(f"no two-site reference for model {model!r}")
    term = getattr(actions, LAW_TERMS[FLAVOURS[model].law])
    value, check = (_two_site_quadrature(term, g, n) for n in (96, 192))
    gap = abs(value - check)
    if not gap <= 1e-12:  # also catches a nan
        raise McError(f"the two-site reference does not resolve g = {float(g)!r}: its 96- and "
                      f"192-node rules differ by {gap:.1e} (more than 1e-12)")
    return value
