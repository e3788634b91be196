"""Staggered central time steps and the marching driver.

Both schemes evolve cell averages onto the opposite-parity grid:

    first order:   v = (uL + uR)/2 - lam*(f(kR, uR) - f(kL, uL))
    second order:  v = (uL + uR)/2 - (sR - sL)/8
                       - lam*(f(kR, mR) - f(kL, mL))

with limited slopes s, mid-time values m = u - (lam/2) f_u(k, u) s, and
lam = dt/dx held fixed.  The second-order update is algebraically a
first-order step plus differenced correction terms

    a = lam*(f(k, m) - f(k, u)) + s/8,

which `predictor_corrector_step` evaluates directly.  Boundaries absorb: a
ghost cell repeats its edge cell with slope 0.  A Base step needs no ghost, and
the rows a Half step reads hold one ghost slot at each end, so every step is the
one update over all staggered pairs of its row.  Each step lands exactly on
the natural grid of the new parity (n values on Base, n-1 on Half).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .diagnostics import (ESTIMATES, DiagnosticsCollector, DiagnosticsReport, _correction_bound,
                          _greatest, _interleave, _least, computed_estimates)
from .flux_model import Coefficient, FluxModel
from .grid import Mesh, Parity, StaggeredState, cell_average_coefficient, extend_absorbing
from .limiter import LimiterConfig, slopes

log = logging.getLogger(__name__)

CFL_TOL = 1e-12
MAX_STEPS = 10**9  # the largest bench or example run takes 38,400 steps; 1e9 would take hours
# a march block holds max(1, _BLOCK_VALUES // n_cells) pairs of steps, and max(1, _FOLD_VALUES
# // n_cells) when a collector folds it: the collector's per-cell terms of a whole block, 11 per
# cell for the LF Kruzkov residuals, would take megabytes at the larger size
_BLOCK_VALUES, _FOLD_VALUES = 16384, 1024
# plateau cells a windowed step keeps inside its slice at each end, and a span's pieces beyond
# the reach of its pairs
_MARGIN = 2
# by second order, the fewest cells of a plateau between the far fields that a march cuts out
# of its steps: where a step of several ranges broke even with one slice over the plateau when
# each step joined the ranges' slices; stepped span by span, a plateau pays from fewer cells
_PLATEAU = {False: 2200, True: 550}
_STRIP = 4  # cells of the strip that checks that a step maps a plateau to itself
# the most cells a range of values that may differ from the plateaus can gain on the left
# and on the right with a step from Base and with one from Half: a Half value is stepped from
# Base cells j-1 ... j+2 (LF: j, j+1), a Base value from Half values j-2 ... j+1 (LF: j-1, j)
_GROWTH = {False: ((1, 0), (0, 1)), True: ((2, 1), (1, 2))}  # keyed by second order


class Scheme(Enum):
    LAX_FRIEDRICHS = "lax-friedrichs"
    NESSYAHU_TADMOR = "nessyahu-tadmor"


class CflLevel(Enum):
    MAX_PRINCIPLE = "max-principle"
    ONE_SIDED = "one-sided"
    CUBIC_ESTIMATE = "cubic-estimate"
    MANUAL = "manual"


class CflError(RuntimeError):
    """Raised when lam * sup|f_u| exceeds the admissible bound."""

    def __init__(self, kappa_used: float, kappa_bound: float, level: CflLevel):
        self.kappa_used = kappa_used
        self.kappa_bound = kappa_bound
        self.level = level
        super().__init__(
            f"CFL violation: kappa_used={kappa_used:.6g} exceeds "
            f"kappa_bound={kappa_bound:.6g} at level {level.value}")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection, mesh ratio lam = dt/dx, limiter, and estimates (`computed_estimates`)."""

    scheme: Scheme = Scheme.NESSYAHU_TADMOR
    limiter: LimiterConfig = field(default_factory=LimiterConfig)
    lam: float = 0.05
    cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE
    collect_diagnostics: bool | str = True
    window_x: float | None = None

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")
        if self.window_x is not None and not 0 <= self.window_x < math.inf:
            raise ValueError(f"window_x = {self.window_x!r} is not in [0, inf)")
        if self.collect_diagnostics not in (True, False, "all"):
            raise ValueError(f"collect_diagnostics {self.collect_diagnostics!r}: not bool or 'all'")


def cfl_bound(model: FluxModel, level: CflLevel) -> float:
    """Admissible kappa = lam * sup|f_u| for the requested guarantee level.

    MAX_PRINCIPLE keeps the solution inside [u_lo, u_hi]; ONE_SIDED
    additionally yields the one-sided jump decay; CUBIC_ESTIMATE the cubic
    and quadratic accumulator bounds.  MANUAL returns infinity and leaves
    the choice to the caller.
    """
    if level is CflLevel.MANUAL:
        return math.inf
    if level is CflLevel.MAX_PRINCIPLE:
        return (math.sqrt(2.0) - 1.0) / 2.0
    one_sided = min(model.gamma1 / (7500.0 * model.gamma2), 1.0 / 4000.0)
    if level is CflLevel.ONE_SIDED:
        return one_sided
    c = model.c_u0
    chi = 228.0 + 13.0 * c + 174.0 * c * model.gamma2 + 12.0 * c**2 * model.gamma2
    return min(one_sided, 7.0 / (85.0 + 16.0 * c), model.gamma1 / (model.gamma2 * chi))


def _check_cfl(model: FluxModel, lam: float, level: CflLevel) -> tuple[float, float]:
    kappa_used = lam * model.sup_fu
    kappa = cfl_bound(model, level)
    if level is not CflLevel.MANUAL and not kappa_used <= kappa + CFL_TOL:  # NaN included
        raise CflError(kappa_used, kappa, level)
    return kappa_used, kappa


class _Averages(dict):
    """The averaged coefficient of each parity, computed on its first read and read-only, so
    that every state can share it and a single step averages only the parity it lands on."""

    def __init__(self, mesh: Mesh, coeff: Coefficient):
        super().__init__()
        self.mesh, self.coeff = mesh, coeff

    def __missing__(self, parity: Parity) -> np.ndarray:
        k = self[parity] = cell_average_coefficient(self.mesh, self.coeff, parity)
        k.flags.writeable = False
        return k


class _Stepper:
    """The step kernel of one march, on arrays; `limiter` None selects the first-order scheme.

    Built once per run: the averaged-coefficient arrays (`_Averages`) and one difference
    buffer.  A step takes every staggered pair of a row: a Base row of n values gives the
    n - 1 Half values, and a Half row with a ghost slot at each end (n + 1 entries, the
    slots holding copies of its edge values, as absorbing ghost cells would) gives the n
    Base values.  A step onto Half fills the slots of the row it writes, which must not
    alias the row it reads.  With `corrections` False the second-order step skips f(k, u)
    and the corrections a_j, which only the report reads, and returns None for them.
    """

    def __init__(self, model: FluxModel, coeff: Coefficient, mesh: Mesh, lam: float,
                 limiter: LimiterConfig | None, *, corrections: bool = True):
        self.model, self.mesh, self.lam, self.limiter = model, mesh, lam, limiter
        self.corrections = corrections
        self.kbar = _Averages(mesh, coeff)
        self.diff = np.empty(mesh.n_cells)

    def views(self, u: np.ndarray, v: np.ndarray) -> tuple:
        """What a step from the row `u` into the row `v` takes: `u`, the left and the right value
        of each pair, `v`, the values the pairs give (on Half, `v` without slots), a buffer."""
        pairs = len(u) - 1
        return u, u[:-1], u[1:], v, v[1:-1] if len(v) > pairs else v, self.diff[:pairs]

    def step(self, kbar: np.ndarray, views: tuple):
        """One step of the held scheme from the row of `views` with `kbar` on its cells: the
        corrections a_j and the slopes there of a second-order step (else None, None)."""
        u, left, right, v, inner, diff = views
        lam, model = self.lam, self.model
        sig = a = None
        if self.limiter is None:
            f = np.asarray(model.eval(kbar, u), dtype=float)
        else:  # f at the mid-time values; fewer than 3 take slope 0
            sig = slopes(u, self.mesh.dx, self.limiter) if len(u) > 2 else np.zeros(len(u))
            mid = mid_time_values(u, kbar, sig, model, lam)
            f = np.asarray(model.eval(kbar, mid), dtype=float)
            if self.corrections:
                a = lam * (f - np.asarray(model.eval(kbar, u), dtype=float)) + sig / 8.0
        np.multiply(np.add(left, right, out=inner), 0.5, out=inner)
        if sig is not None:
            inner -= np.multiply(np.subtract(sig[1:], sig[:-1], out=diff), 0.125, out=diff)
        inner -= np.multiply(np.subtract(f[1:], f[:-1], out=diff), lam, out=diff)
        if inner is not v:  # on Half: the slots repeat the edge values
            v[0], v[-1] = v[1], v[-2]
        return a, sig

    def advance(self, state: StaggeredState, v: np.ndarray) -> StaggeredState:
        """Wrap values stepped from `state` into a state on the flipped parity."""
        parity = Parity.HALF if state.parity is Parity.BASE else Parity.BASE
        return StaggeredState(state.mesh, v, self.kbar[parity], parity,
                              state.time + self.lam * state.mesh.dx, state.step_index + 1)


def _step_state(stepper: _Stepper, state: StaggeredState) -> tuple:
    """One step of `state` into fresh arrays through the march's kernel, a Half state padded
    with a ghost cell at each end: the new state, and the corrections on `state`'s cells."""
    half = state.parity is Parity.HALF
    u, k = extend_absorbing(state, 1) if half else (state.values, state.kbar)
    v = np.empty(len(u) - 1 if half else len(u) + 1)
    a, _ = stepper.step(k, stepper.views(u, v))
    return stepper.advance(state, v if half else v[1:-1]), a[1:-1] if half and a is not None else a


def lf_step(state: StaggeredState, model: FluxModel, coeff: Coefficient, lam: float,
            cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE) -> StaggeredState:
    """One first-order staggered step onto the opposite-parity grid."""
    SchemeConfig(lam=lam)  # refuses a lam that is not positive and finite
    _check_cfl(model, lam, cfl_level)
    return _step_state(_Stepper(model, coeff, state.mesh, lam, None), state)[0]


def mid_time_values(u: np.ndarray, k: np.ndarray, sig: np.ndarray, model: FluxModel,
                    lam: float) -> np.ndarray:
    """Half-step predicted values u - (lam/2) f_u(k, u) * sig, cell by cell."""
    if len(sig) != len(u):
        raise ValueError("slopes must align with state values")
    return u - 0.5 * lam * np.asarray(model.d_u(k, u), dtype=float) * sig


def nt_step(state: StaggeredState, model: FluxModel, coeff: Coefficient,
            cfg: SchemeConfig) -> tuple[StaggeredState, np.ndarray]:
    """One second-order staggered step; also returns the correction terms a_j.

    With the Zero limiter the update reduces to the first-order step
    exactly, and the corrections vanish.
    """
    _check_cfl(model, cfg.lam, cfg.cfl_level)
    return _step_state(_Stepper(model, coeff, state.mesh, cfg.lam, cfg.limiter), state)


def predictor_corrector_step(state: StaggeredState, model: FluxModel, coeff: Coefficient,
                             cfg: SchemeConfig) -> StaggeredState:
    """Second-order step evaluated as first-order predictor plus corrections.

    Computes v = v_first_order - a[right] + a[left]; an exact algebraic
    rearrangement of the direct update, so outputs agree to rounding.
    """
    _check_cfl(model, cfg.lam, cfg.cfl_level)
    stepper = _Stepper(model, coeff, state.mesh, cfg.lam, cfg.limiter)
    ev, ek = extend_absorbing(state, 2)
    sig = slopes(ev, state.mesh.dx, cfg.limiter)
    f_mid = np.asarray(model.eval(ek, mid_time_values(ev, ek, sig, model, cfg.lam)), dtype=float)
    f_now = np.asarray(model.eval(ek, ev), dtype=float)
    a = cfg.lam * (f_mid - f_now) + sig / 8.0
    ubar = 0.5 * (ev[1:-2] + ev[2:-1]) - cfg.lam * (f_now[2:-1] - f_now[1:-2])
    v = ubar - (a[2:-1] - a[1:-2])
    return stepper.advance(state, v[1:-1] if state.parity is Parity.BASE else v)


def snap_steps(t_start: float, t_end: float, dt: float) -> int:
    """Largest even step count whose end time does not exceed t_end, at most MAX_STEPS."""
    if t_end < t_start:
        raise ValueError("t_end must not precede the state's current time")
    if not (steps := (t_end - t_start) / dt) <= MAX_STEPS:  # NaN and inf included
        raise ValueError(f"(t_end - t_start) / dt = {steps!r} exceeds MAX_STEPS = {MAX_STEPS}")
    n = int(math.floor(steps + 1e-9))
    return n - (n % 2)


def _extremes(stepped: tuple, a_blocks: tuple, axis: int | None = -1) -> tuple:
    """Each step's least and greatest value (`stepped`) and greatest |correction| (`a_blocks`)
    in step order, one reduction per row of the 2-d blocks of the steps from Base and from Half
    (the steps alternate, Base first); empty without blocks.  With `axis` None, one reduction
    per block instead, which folds to the same extremes unless one is a NaN or a zero."""
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    return tuple([reduce(b, axis=None) for b in blocks] if axis is None else
                 _interleave(*(reduce(b, axis=axis).tolist() for b in blocks)) if blocks else []
                 for reduce, blocks in ((lowest, stepped), (highest, stepped), (highest, a_blocks)))


def _folded(acc: tuple, extremes: tuple) -> tuple:
    """(u_min, u_max, correction_max) `acc` folded with the `_extremes` of the next steps."""
    lows, highs, peaks = extremes
    return _least(acc[0], lows), _greatest(acc[1], highs), _greatest(acc[2], peaks)


def _run(a: np.ndarray) -> int:
    """How many leading entries of `a` have the bits of its first entry."""
    bits = np.ascontiguousarray(a, dtype=float).view(np.uint64)
    differ = np.flatnonzero(bits != bits[0])
    return int(differ[0]) if len(differ) else len(bits)


def _widened(lo: int, hi: int, growth: tuple, bits: np.ndarray, left: int, right: int) -> tuple:
    """The range of cells of a stepped row (`bits`, its values as uint64) that can differ from
    the plateaus `left` and `right` around it: the range [lo, hi) of the row stepped from,
    widened on each side by the `growth` the stencil allows, less the outer cells that hold
    their plateau's bits."""
    for j in range(max(lo - growth[0], 0), lo):
        if bits[j] != left:
            lo = j
            break
    for j in range(min(hi + growth[1], len(bits)) - 1, hi - 1, -1):
        if bits[j] != right:
            hi = j + 1
            break
    return lo, hi


def _pieces(ranges: list, plateaus: list, r: int, n: int) -> tuple:
    """The `ranges` and their `plateaus`, two ranges merged where their pieces meet, and the
    pieces [lo - r, hi + r) of the ranges within the mesh's n cells."""
    merged, kept = [ranges[0]], plateaus[:2]
    for (lo, hi), right in zip(ranges[1:], plateaus[2:]):
        if lo - merged[-1][1] <= 2 * r:
            merged[-1], kept[-1] = (merged[-1][0], hi), right
        else:
            merged.append((lo, hi))
            kept.append(right)
    return merged, kept, [(max(lo - r, 0), min(hi + r, n)) for lo, hi in merged]


def _span_pairs(ranges: list, plateaus: list, reach: int, rows: int, n: int) -> int:
    """The most step pairs e, up to `rows`, for which the pieces of `ranges` with R = e * reach
    + _MARGIN plateau cells on each side hold fewer cells than the one slice over all of them
    with _MARGIN; 0 when not even one pair's do."""
    hull = min(ranges[-1][1] + _MARGIN, n) - max(ranges[0][0] - _MARGIN, 0)
    e = 0
    while e < rows and sum(b - a for a, b in _pieces(ranges, plateaus, (e + 1) * reach
                                                     + _MARGIN, n)[2]) < hull:
        e += 1
    return e


def _redrawn(ranges: list, plateaus: list, cuts: list, bits: np.ndarray) -> list:
    """The `ranges` of a span, each widened to the outermost cell of its piece (`cuts`: its
    cells [a, b) and where they start in the joined row) that differs from the plateau beside it
    in the joined Base row (`bits`, its values as uint64) the span ends with."""
    redrawn = []
    for (lo, hi), (a, b, at), left, right in zip(ranges, cuts, plateaus, plateaus[1:]):
        shift = a - at  # a cell's index in the mesh less its index in the joined row
        lo, hi = _widened(lo - shift, hi - shift, (lo - a, b - hi), bits, left, right)
        redrawn.append((lo + shift, hi + shift))
    return redrawn


def _maps_to_itself(stepper: _Stepper, c: float, k: float, parity: Parity) -> bool:
    """Whether a step maps a strip of the value `c` with coefficient `k` on `parity`'s grid
    (on Half, _STRIP - 2 values and their slots) to `c`, bit for bit, with +0.0 corrections.
    Never for NaN; not for +-inf or 1e308, where `c + c` or f is not finite."""
    u, v = np.full(_STRIP, c), np.empty(_STRIP + 1 if parity is Parity.BASE else _STRIP - 1)
    with np.errstate(all="ignore"):
        a, _ = stepper.step(np.full(len(u), k), stepper.views(u, v))
    bits = np.float64(c).view(np.uint64)
    return (c == c and bool((v.view(np.uint64) == bits).all())
            and (a is None or not a.view(np.uint64).any()))


def _far_fields(stepper: _Stepper, u: np.ndarray, kbar: np.ndarray) -> tuple | None:
    """The sorted ranges [lo, hi) of Base cells of a march from Base values `u` with `kbar`
    that can differ from the plateaus around them, and those plateaus' bits (one left of each
    range, one right of the last); None when the march must step the whole mesh from the
    start (no far field, one that a step does not map to itself, or one range whose stepped
    window covers the mesh).  The far fields are the longest runs from the edges where `u` and
    the averaged coefficient of both parities hold one value each, bit for bit, with a cell
    between them; between them, so is each run of at least _PLATEAU cells that hold one value
    with both neighbours, a cell apart from the far fields, and that a step maps to itself."""
    n, k_base, k_half = len(u), stepper.kbar[Parity.BASE], stepper.kbar[Parity.HALF]
    if kbar is not k_base and kbar.tobytes() != k_base.tobytes():
        return None
    # a Half value lies between Base cells j and j+1, so a Half run of r covers r + 1 cells
    left = min(_run(u), _run(k_base), _run(k_half) + 1)
    right = min(_run(u[::-1]), _run(k_base[::-1]), _run(k_half[::-1]) + 1)
    # keep a cell between them: a stencil that does not reach it lies in one far field
    left = min(left, n - 1 - min(right, n - 1))
    right = min(right, n - 1 - left)
    lo, hi = left, n - right

    def kept(j: int) -> bool:  # a step maps the plateau of cell j to itself on both parities
        return all(_maps_to_itself(stepper, u[j], k[j], parity)
                   for parity, k in ((Parity.BASE, k_base), (Parity.HALF, k_half)))

    ub, kb, kh = (np.ascontiguousarray(a, dtype=float).view(np.uint64)
                  for a in (u, k_base, k_half))
    m = max(hi - lo - 2, 0)  # the cells lo + 1 ... hi - 2 and their neighbours
    prev, mid, nxt = (slice(lo + d, lo + d + m) for d in range(3))
    inner = ((ub[prev] == ub[mid]) & (ub[mid] == ub[nxt]) & (kb[prev] == kb[mid])
             & (kb[mid] == kb[nxt]) & (kh[prev] == kh[mid]))
    edges = (np.flatnonzero(np.diff(inner, prepend=False, append=False)) + lo + 1).tolist()
    fewest = _PLATEAU[stepper.limiter is not None]
    cut = [(a, b) for a, b in zip(edges[::2], edges[1::2]) if b - a >= fewest and kept(a)]
    if not cut and lo <= _MARGIN and hi >= n - _MARGIN:
        return None
    if not all(kept(edge) for size, edge in ((left, 0), (right, -1)) if size):
        return None
    bounds = [lo, *sum(cut, ()), hi]
    return (list(zip(bounds[::2], bounds[1::2])),
            [int(ub[j]) for j in (0, *(a for a, _ in cut), -1)])


def march(initial: StaggeredState, model: FluxModel, coeff: Coefficient,
          cfg: SchemeConfig, t_end: float, *, snapshots: dict | None = None,
          report: bool = True) -> tuple[StaggeredState, DiagnosticsReport]:
    """Advance to the even-step snap of t_end; return the final state and the report.

    The loop walks pairs of steps on arrays and builds a state only where one is read: the
    final state and the state at each step index that is a key of `snapshots` (march sets
    its value).  A pair writes the next row of each of two blocks the march owns, of
    max(1, 16384 // n_cells) rows, or of max(1, 1024 // n_cells) when a collector folds them
    (of 1 row without a report, unless the march steps several ranges): the Half values with
    a ghost slot at each end, and the Base values after a head row, the state a block starts
    from (without a collector, a block starts from the last row of the one before).  The
    views of a row that a step of the whole mesh takes are built once per row.  A kept state
    holds a copy, the final state too (so that it keeps no block alive), and the initial
    values are never written.

    A step changes a value only inside its stencil, so the march steps only the cells
    that can differ from the plateaus of the initial data (`_far_fields`): runs of cells
    where the values and the averaged coefficient of both parities each hold one value, bit
    for bit, that a step maps to itself (not so for NaN, +-inf or 1e308), found once per
    march.  They are the far fields at the edges and, between them, runs of at least
    `_PLATEAU` cells, a break-even per scheme; without a far field, or with one that a step
    changes, the march steps the whole mesh.  Otherwise the blocks start out holding the
    initial values and the window is a sorted list of ranges between plateaus.

    One range is stepped step by step, in place: the kernel takes its slice with _MARGIN = 2
    plateau cells more at each end, so that its edges compute what the whole step computes
    there (a slice of a Half row takes its ends' real neighbours for the slots: plateau
    bits, equal to them).  After each step the range gains at most the stencil's reach on
    each side (`_GROWTH`), less the outer cells of that gain that hold their plateau's bits,
    so it never shrinks (`_widened`).  Several ranges are stepped span by span, a span being
    e pairs of steps within a block, e fixed per march (`_span_pairs`: the most, up to the
    block's pairs, for which the pieces below hold fewer cells than one slice over all the
    ranges; with none, the march steps them as one range).  At a span's start the pieces
    [lo - R, hi + R) of the ranges, R = e * reach + _MARGIN (reach: 3 cells a pair for NT, 1
    for LF), are joined end to end into a row of blocks of the march's own, two ranges merged
    once their pieces meet (`_pieces`).  That row is the mesh with each plateau between two
    ranges cut down to 2R cells, which no change crosses within the span, and a plateau maps
    to itself, so the kernel steps it like the whole mesh, through views built once per
    span.  At the span's end the march folds the extremes over the joined rows, which hold
    every plateau's value and every cell that changed, writes the rows into the whole rows
    only for the collector, a snapshot or the next span's start (the last Base row), and
    redraws each range to the outermost cell of its piece whose bits differ from the plateau
    beside it (`_redrawn`).  Once one slice or piece covers the mesh the march steps the whole
    arrays.  Only the march knows the window: its blocks hold whole rows (those of the
    corrections and slopes start as zeros, the +0.0 that a plateau's step gives), and the
    collector reads them whole.  States, snapshots and the report are the same bits as those
    of a march that steps the whole mesh.

    The target time snaps to the nearest even multiple of dt = lam*dx at or
    below t_end (recorded in the report), so the final state is always on
    Base parity.  The report's `u_min`/`u_max` and `correction_max` are NaN once
    any state or correction holds a NaN.  `march` folds these itself, once per filled
    block and after the last step: a reduction per row (the NT corrections' magnitudes
    go into blocks of their own), then the row values in step order, so the result does
    not depend on the block size.  A span of several ranges takes one reduction per joined
    block instead, which gives the same bits unless an extreme is a NaN or a zero, whose
    bits a reduction picks by where it lies: then the march writes the span's rows into the
    whole rows and folds those row by row.  The report holds None for each estimate not in
    `computed_estimates(cfg)`; without `correction_max` the NT step skips its corrections.
    For the other estimates the march hands the block's rows, and the NT slopes it keeps in
    blocks of their own, to a `DiagnosticsCollector`, which folds those checks over them,
    and copies the last Base row into the head row.

    `report` False says that nothing reads the report's folded fields: the march takes
    no extremes and computes no estimate.  `u_min` and `u_max` then keep their
    never-observed defaults, the run facts (scheme, `lam`, `dx`, `steps`,
    `snapped_time`, the CFL fields) are still set, and `cfg.collect_diagnostics` is
    refused with ValueError.
    """
    if initial.mesh.n_cells < 2:
        raise ValueError("marching needs at least 2 cells")
    if initial.parity is not Parity.BASE:
        raise ValueError("march starts from Base-parity states")
    if not report and cfg.collect_diagnostics:
        raise ValueError("collect_diagnostics fills the report, so it needs report=True")
    kappa_used, kappa = _check_cfl(model, cfg.lam, cfg.cfl_level)
    if cfg.cfl_level is CflLevel.MANUAL:
        log.warning("manual CFL level: lam*sup|f_u| = %.6g is not checked", kappa_used)
    mesh, dt, n = initial.mesh, cfg.lam * initial.mesh.dx, initial.mesh.n_cells
    n_steps = snap_steps(initial.time, t_end, dt)
    second_order = cfg.scheme is Scheme.NESSYAHU_TADMOR
    computed = computed_estimates(cfg) if report else set()
    collect = bool(computed - {"correction"})  # the collector takes every estimate but that
    stepper = _Stepper(model, coeff, mesh, cfg.lam, cfg.limiter if second_order else None,
                       corrections="correction" in computed)
    rep = DiagnosticsReport(scheme=cfg.scheme.value, lam=cfg.lam, dx=mesh.dx, steps=n_steps,
                            cfl_level=cfg.cfl_level.value, kappa_used=kappa_used,
                            kappa_bound=kappa)
    u, kbar, time, index = initial.values, initial.kbar, initial.time, initial.step_index
    end = index + n_steps
    found = _far_fields(stepper, u, kbar) if n_steps else None  # the cells that can differ
    window = ranges = None  # one range [lo, hi), stepped step by step; several, span by span
    rows = max(1, (_FOLD_VALUES if collect else _BLOCK_VALUES) // n)
    if found is not None:
        ranges, plateaus = found
        growth = _GROWTH[second_order]
        reach = sum(g[0] for g in growth)  # the cells a pair of steps reaches on each side
        if len(ranges) == 1 or not (pairs := _span_pairs(ranges, plateaus, reach,
                                                         min(rows, n_steps // 2), n)):
            window, plateaus, ranges = (ranges[0][0], ranges[-1][1]), plateaus[::len(ranges)], None
    rows = rows if report or ranges else 1
    collector = DiagnosticsCollector(model, coeff, cfg, mesh, rep) if collect else None
    snapshots = {} if snapshots is None else snapshots
    if initial.step_index in snapshots:
        snapshots[initial.step_index] = initial
    k_base, k_half = stepper.kbar[Parity.BASE], stepper.kbar[Parity.HALF]
    k_slotted = np.pad(k_half, 1, mode="edge")  # the coefficient of a ghost-slotted Half row
    step = stepper.step
    # the blocks of the Base states (n values, after a head row) and of the Half states (n - 1
    # values and a ghost slot at each end); |corrections| and slopes are on the cells stepped from
    base_rows, half_rows = np.zeros((rows + 1, n)), np.zeros((rows, n + 1))
    stepped = half_rows[:, 1:-1], base_rows[1:]
    # zeros: the correction and the slope of a cell outside the window are +0.0
    a_blocks = ((np.zeros((rows, n)), np.zeros((rows, n + 1)))
                if stepper.corrections and second_order else ())
    sig_blocks = ((np.zeros((rows, n)), np.zeros((rows, n + 1)))
                  if collect and second_order else ())
    if found is not None:  # no step writes a value outside its ranges: fill in the plateaus
        base_rows[:], half_rows[:, :-1], half_rows[:, -1] = u, u, u[-1]
        stepped_bits = tuple(b.view(np.uint64) for b in stepped)
    if ranges is not None:  # a span's rows, joined: by block row, as the blocks
        j_base, j_half = np.empty((rows + 1, n)), np.empty((rows, n + 1))
        j_k = np.empty(n), np.empty(n + 1)
        j_a, j_sig = (tuple(np.empty(b.shape) for b in blocks) for blocks in (a_blocks, sig_blocks))
        outputs = (half_rows, j_half), (base_rows[1:], j_base[1:])  # the rows pair r writes

        def expand(r0: int, r1: int, blocks: tuple) -> None:
            """Write rows r0 ... r1 - 1 of each joined block of (whole, joined) `blocks` into
            the cells of the span's pieces in its whole rows."""
            for whole_rows, joined_rows in blocks:
                for a, b, at in cuts:
                    whole_rows[r0:r1, a:b] = joined_rows[r0:r1, at:at + b - a]
                if whole_rows.shape[1] > n:  # a Half row: the slot after the last piece
                    whole_rows[r0:r1, b] = joined_rows[r0:r1, size]

    # across the whole mesh, Base row r steps into Half row r and that into Base row r + 1; a
    # block starts from the head row (without a collector, from the last row of the one before)
    head = 0 if collector is not None else rows
    base_rows[head] = u
    whole = [(stepper.views(base_rows[head if r == 0 else r], half_rows[r]),
              stepper.views(half_rows[r], base_rows[r + 1]))
             for r in range(min(rows, n_steps // 2))]
    lands, every = ((k_half, Parity.HALF), (k_base, Parity.BASE)), slice(None)
    acc = (np.minimum.reduce(u), np.maximum.reduce(u), 0.0) if report else None
    row, start, head_kbar = 0, 0, kbar  # start: the first row of the span, or of the block
    for _ in range(n_steps // 2):
        if ranges is not None and row == start:  # a span starts: join the pieces of its row
            ranges, plateaus, pieces = _pieces(ranges, plateaus, pairs * reach + _MARGIN, n)
            if pieces == [(0, n)]:  # the window covers the mesh from here on
                ranges = None
            else:  # cuts: each piece's cells [a, b) and where they start in the joined row
                cuts, size, stop = [], 0, min(row + pairs, rows)
                for a, b in pieces:
                    cuts.append((a, b, size))
                    j_base[row, size:size + b - a] = base_rows[head if row == 0 else row][a:b]
                    j_k[0][size:size + b - a], j_k[1][size:size + b - a] = k_base[a:b], \
                        k_slotted[a:b]
                    size += b - a
                j_k[1][size] = k_slotted[b]  # a Half row's slot after the last piece
                j_ks, j_cells = (j_k[0][:size], j_k[1][:size + 1]), (slice(size), slice(size + 1))
                j_views = [(stepper.views(j_base[r, :size], j_half[r, :size + 1]),
                            stepper.views(j_half[r, :size + 1], j_base[r + 1, :size]))
                           for r in range(row, stop)]
        joined = ranges is not None
        pair, ks = (j_views[row - start], j_ks) if joined else (whole[row], (kbar, k_slotted))
        for from_half, views, k in zip((0, 1), pair, ks):
            cells, a_rows, sig_rows = every, a_blocks, sig_blocks
            if joined:
                cells, a_rows, sig_rows = j_cells[from_half], j_a, j_sig
            elif window is not None:  # step the cells [lo, hi) that reach the changing ones
                lo, hi = max(window[0] - _MARGIN, 0), min(window[1] + _MARGIN, n - from_half)
                if lo or hi < n - from_half:  # a Half row's pairs take its slots' neighbours
                    cells = slice(lo, hi + 2 * from_half)
                    k, views = k[cells], stepper.views(views[0][cells], views[3][lo:hi + 1])
                else:  # the window covers the mesh from here on
                    window = None
            corrections, sig = step(k, views)
            if window is not None:  # a step of the window
                window = _widened(*window, growth[from_half], stepped_bits[from_half][row],
                                  *plateaus)
            if corrections is not None:  # an NT step that computes `correction_max`
                np.abs(corrections, out=a_rows[from_half][row][cells])
            if sig_rows:  # an NT step with a collector
                sig_rows[from_half][row][cells] = sig
            time += dt
            index += 1
            if index in snapshots:  # the values without the slots
                if joined:
                    expand(row, row + 1, outputs[from_half:from_half + 1])
                kept = whole[row][from_half][4]
                snapshots[index] = StaggeredState(mesh, kept.copy(), *lands[from_half], time,
                                                  index)
        kbar = k_base
        row += 1
        if joined and (row == stop or index == end):  # the span ends
            if report:
                extremes = _extremes((j_half[start:row, 1:size], j_base[start + 1:row + 1, :size]),
                                     tuple(b[start:row, :size + h] for h, b in enumerate(j_a)),
                                     None)
                lows, highs, peaks = extremes
                # the bits of a NaN or of a zero of u that a reduction gives depend on where it
                # lies, so those extremes are taken row by row from the whole rows
                if any(x != x or x == 0 for x in lows + highs) or any(x != x for x in peaks):
                    expand(start, row, outputs + tuple(zip(a_blocks, j_a)))
                    extremes = _extremes(tuple(b[start:row] for b in stepped),
                                         tuple(b[start:row] for b in a_blocks))
                acc = _folded(acc, extremes)
            if collector is not None:
                expand(start, row, outputs + tuple(zip(sig_blocks, j_sig)))
            else:  # the last Base row, which the next span starts from
                expand(row - 1, row, outputs[1:])
            ranges = _redrawn(ranges, plateaus, cuts, j_base[row, :size].view(np.uint64))
            start = row
        if row == rows or index == end:
            if report and start < row:
                acc = _folded(acc, _extremes(tuple(b[start:row] for b in stepped),
                                             tuple(b[start:row] for b in a_blocks)))
            if collector is not None:
                collector.observe(base_rows[:row + 1], half_rows[:row],
                                  [head_kbar, k_slotted] + [k_base, k_slotted] * (row - 1),
                                  tuple(b[:row] for b in sig_blocks) or None)
                base_rows[0], head_kbar = base_rows[row], k_base  # heads the next block
            u, row, start = base_rows[row], 0, 0
    if report:
        rep.u_min, rep.u_max, rep.correction_max = map(float, acc)
    for key in (k for name in ESTIMATES.keys() - computed for k in ESTIMATES[name]):
        setattr(rep, key, None)
    rep.snapped_time = time
    if second_order and n_steps:
        rep.correction_bound = _correction_bound(cfg, model, mesh.dx)
    if end in snapshots:  # the initial state itself when no step is taken
        return snapshots[end], rep
    return (StaggeredState(mesh, u.copy(), k_base, Parity.BASE, time, end) if n_steps
            else initial), rep
