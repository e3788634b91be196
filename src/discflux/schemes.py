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
                          _greatest, _least, computed_estimates)
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
# the fewest cells of a plateau away from the edges that a march cuts out of its steps: the
# smallest plateau at which cutting one out measured a saving under both schemes
_PLATEAU = 600
_STRIP = 4  # cells of the strip that checks that a step maps a plateau to itself


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

    Built once per run: the averaged-coefficient arrays (`_Averages`), one difference buffer,
    and as 0-d float64 arrays every constant a step hands numpy (0.5, 0.125, lam, 0.5*lam as
    Python computes it, 8.0): numpy 2.4 takes a Python float operand 0.2-0.35 us slower per
    call than a 0-d array, with the same bits.  A step takes every staggered pair of a row: a
    Base row of n values gives the n - 1 Half values, and a Half row with a ghost slot at each
    end (n + 1 entries, the slots holding copies of its edge values, as absorbing ghost cells
    would) gives the n Base values.  A step onto Half fills the slots of the row it writes,
    which must not alias the row it reads.  With `corrections` False the second-order step
    skips f(k, u) and the corrections a_j, which only the report reads, and returns None for them.
    """

    def __init__(self, model: FluxModel, coeff: Coefficient, mesh: Mesh, lam: float,
                 limiter: LimiterConfig | None, *, corrections: bool = True):
        self.model, self.mesh, self.lam, self.limiter = model, mesh, lam, limiter
        self.corrections = corrections and limiter is not None
        self.kbar = _Averages(mesh, coeff)
        self.diff = np.empty(mesh.n_cells)
        self.half, self.eighth, self.lam_0d, self.half_lam, self.eight = (
            np.array(x) for x in (0.5, 0.125, lam, 0.5 * lam, 8.0))

    def views(self, u: np.ndarray, v: np.ndarray) -> tuple:
        """What a step from the row `u` into the row `v` takes: `u`, the left and the right value
        of each pair, `v`, the values the pairs give (on Half, `v` without slots), a buffer."""
        pairs = len(u) - 1
        return u, u[:-1], u[1:], v, v[1:-1] if len(v) > pairs else v, self.diff[:pairs]

    def step(self, kbar: np.ndarray, views: tuple):
        """One step of the held scheme from the row of `views` with `kbar` on its cells: the
        corrections a_j and the slopes there of a second-order step (else None, None)."""
        u, left, right, v, inner, diff = views
        lam, model = self.lam_0d, self.model
        sig = a = None
        if self.limiter is None:
            f = np.asarray(model.eval(kbar, u), dtype=float)
        else:  # f at the mid-time values; fewer than 3 take slope 0
            sig = slopes(u, self.mesh.dx, self.limiter) if len(u) > 2 else np.zeros(len(u))
            mid = _mid_time_values(u, kbar, sig, model, self.half_lam)
            f = np.asarray(model.eval(kbar, mid), dtype=float)
            if self.corrections:
                a = lam * (f - np.asarray(model.eval(kbar, u), dtype=float)) + sig / self.eight
        np.multiply(np.add(left, right, out=inner), self.half, out=inner)
        if sig is not None:
            inner -= np.multiply(np.subtract(sig[1:], sig[:-1], out=diff), self.eighth, out=diff)
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
    return _mid_time_values(u, k, sig, model, np.array(0.5 * lam))


def _mid_time_values(u, k, sig, model: FluxModel, half_lam: np.ndarray) -> np.ndarray:
    return u - half_lam * np.asarray(model.d_u(k, u), dtype=float) * sig


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


def _folded(acc: tuple, block: _Rows, count: int, size: int) -> tuple:
    """(u_min, u_max, correction_max) `acc` folded with the values and the |corrections| of the
    first `count` pairs of steps on the first `size` cells of the `_Rows` `block`, one reduction
    per 2-d block; a NaN sticks.  Only the bits of a zero or a NaN depend on where a reduction
    finds them, and `march` reports those as values."""
    values = block.half[:count, 1:size], block.base[1:count + 1, :size]
    peaks = (b[:count, :size + h] for h, b in enumerate(block.a))
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    return (_least(acc[0], (lowest(b, axis=None) for b in values)),
            _greatest(acc[1], (highest(b, axis=None) for b in values)),
            _greatest(acc[2], (highest(b, axis=None) for b in peaks)))


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


def _redrawn(ranges: list, plateaus: list, cuts: list, bits: np.ndarray) -> list:
    """The `ranges` of a span, each widened to the outermost cell of its piece (`cuts`: its
    cells [a, b) and where they start in the joined row) that differs from the plateau beside it
    in the joined Base row (`bits`, its values as uint64) the span ends with."""
    redrawn = []
    for (lo, hi), (a, b, at), left, right in zip(ranges, cuts, plateaus, plateaus[1:]):
        shift = at - a  # a cell's index in the joined row less its index in the mesh
        differ = [j for j, x in enumerate(bits[at:lo + shift].tolist()) if x != left]
        lo = a + differ[0] if differ else lo
        differ = [j for j, x in enumerate(bits[hi + shift:b + shift].tolist()) if x != right]
        redrawn.append((lo, hi + differ[-1] + 1 if differ else hi))
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


def _far_fields(stepper: _Stepper, u: np.ndarray) -> tuple | None:
    """The sorted ranges [lo, hi) of Base cells of a march from Base values `u` that can differ
    from the plateaus around them, and those plateaus' bits (one left of each range, one right
    of the last, a ghost's beside an edge); None where the mesh has at most _STRIP cells.  A
    plateau is a maximal run of cells that hold, bit for bit, the value of `u` and the stepper's
    Base kbar of both neighbours and one Half kbar on both sides, a ghost repeating each edge
    cell; it is cut out where it reaches an edge or spans _PLATEAU cells, and a step maps it to
    itself.  Any other cell is stepped; a plateau over the whole mesh leaves its first cell."""
    n = len(u)
    if n <= _STRIP:  # a strip takes 3 entries of the stepper's difference buffer of n
        return None
    # with a ghost at each end: cell j is entry j + 1 of u and of the Base kbar, and lies
    # between entries j and j + 1 of the Half kbar
    u, k_base, k_half = (np.pad(np.asarray(a, dtype=float), 1, mode="edge")
                         for a in (u, stepper.kbar[Parity.BASE], stepper.kbar[Parity.HALF]))
    ub, kb, kh = (a.view(np.uint64) for a in (u, k_base, k_half))
    flat = (ub[:-1] == ub[1:]) & (kb[:-1] == kb[1:])  # entry j: cells j - 1 and j agree
    inner = flat[:-1] & flat[1:] & (kh[:-1] == kh[1:])
    edges = np.flatnonzero(np.diff(inner, prepend=False, append=False)).tolist()
    cut = [(a, b) for a, b in zip(edges[::2], edges[1::2])
           if (a == 0 or b == n or b - a >= _PLATEAU)
           and all(_maps_to_itself(stepper, u[a + 1], k, parity)
                   for parity, k in ((Parity.BASE, k_base[a + 1]), (Parity.HALF, k_half[a])))]
    bounds = [0, *sum(cut, ()), n]
    ranges = [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi] or [(0, 1)]
    return ranges, [int(ub[lo]) for lo, _ in ranges] + [int(ub[ranges[-1][1] + 1])]


class _Rows:
    """Blocks of `rows` pairs of steps on rows of n cells: the Base values after a head row, the
    state the block starts from (`base`); the Half values with a ghost slot at each end
    (`half`); and on the cells stepped from Base and from Half, the |corrections| (`a`) and the
    slopes (`sig`), or () where no step keeps them."""

    def __init__(self, make, rows: int, n: int, corrections: bool, slopes: bool):
        self.base, self.half = make((rows + 1, n)), make((rows, n + 1))
        self.a, self.sig = ((make((rows, n)), make((rows, n + 1))) if kept else ()
                            for kept in (corrections, slopes))


def _blocks(stepper: _Stepper, u: np.ndarray, k_slotted: np.ndarray, found: tuple | None,
            index: int, end: int, rows: int, whole_rows: int, headed: bool):
    """Step from the Base values `u` at step `index` to step `end` and yield each
    filled block as (block, size, index, count, row): `count` pairs of steps from `index` on
    the first `size` cells of the `_Rows` `block`, and `row(i)`, a copy of the whole row i steps
    after `index` (on Half, the values without the slots).

    The blocks come in two phases.  With a window (`found`), a block is first a span of up to
    `rows` pairs that steps the pieces [lo - R, hi + R) of the ranges joined end to end
    (`_pieces`), R = E + 1 for E the most pairs a span takes: no change crosses a plateau's 2R
    cells within the span.  One whole Base row holds the march's state: each span starts from
    its pieces and writes its last row's pieces back, and each range is then redrawn
    (`_redrawn`).  Once a piece covers the mesh (at once where the first does), or without a
    window, a block is up to `whole_rows` pairs of whole rows, started from the head row if
    `headed`.  Every pair steps with the stepper's Base kbar and `k_slotted`, its Half kbar
    with a slot at each end."""
    n, step, views, k_base = len(u), stepper.step, stepper.views, stepper.kbar[Parity.BASE]

    def stepped(block: _Rows, steps: list, count: int, size: int, ks: tuple):
        """`count` pairs of `steps` on `size` cells with the coefficients `ks`; the |corrections|
        and the slopes kept in `block`."""
        for i in range(count):
            for h, k, view in zip((0, 1), ks, steps[i]):
                a, sig = step(k, view)
                if a is not None:  # an NT step that computes `correction_max`
                    np.abs(a, out=block.a[h][i, :size + h])
                if block.sig:  # an NT step with a collector
                    block.sig[h][i, :size + h] = sig

    if found is not None:
        (ranges, plateaus), r = found, min(rows, (end - index) // 2) + 1
        joined, j_k = _Rows(np.empty, rows, n, stepper.corrections, False), np.empty((2, n + 1))
        base = u.copy()  # the march's whole Base row; the initial values are never written
        while index < end:
            ranges, plateaus, pieces = _pieces(ranges, plateaus, r, n)
            if pieces == [(0, n)]:  # the window covers the mesh
                break
            count, cuts, size = min(rows, (end - index) // 2), [], 0
            for a, b in pieces:  # cuts: each piece's cells [a, b) and where they start in the row
                cuts.append((a, b, size))
                joined.base[0, size:size + b - a] = base[a:b]
                j_k[0, size:size + b - a], j_k[1, size:size + b - a] = k_base[a:b], k_slotted[a:b]
                size += b - a
            j_k[1, size] = k_slotted[b]  # a Half row's slot after the last piece
            ks = j_k[0, :size], j_k[1, :size + 1]
            stepped(joined, [(views(joined.base[i, :size], joined.half[i, :size + 1]),
                              views(joined.half[i, :size + 1], joined.base[i + 1, :size]))
                             for i in range(count)], count, size, ks)
            for a, b, at in cuts:
                base[a:b] = joined.base[count, at:at + b - a]
            ranges = _redrawn(ranges, plateaus, cuts, joined.base[count, :size].view(np.uint64))

            def row(i: int, cuts=cuts) -> np.ndarray:  # outside the pieces Half holds u[1:]
                pair, half = divmod(i, 2)
                values = (u if half else base).copy()
                for a, b, at in cuts:
                    values[a:b] = (joined.half if half else joined.base)[pair, at:at + b - a]
                return values[1:] if half else values

            yield joined, size, index, count, row
            index += 2 * count
    whole = _Rows(np.zeros, whole_rows, n, stepper.corrections,
                  headed and stepper.limiter is not None)
    head = 0 if headed else whole_rows  # the row a block of whole rows starts from
    whole.base[head] = u if found is None else base
    steps = [(views(whole.base[head if i == 0 else i], whole.half[i]),
              views(whole.half[i], whole.base[i + 1])) for i in range(whole_rows)]

    def row(i: int) -> np.ndarray:
        return (whole.half[i // 2, 1:-1] if i % 2 else whole.base[i // 2]).copy()

    while index < end:
        count = min(whole_rows, (end - index) // 2)
        stepped(whole, steps, count, n, (k_base, k_slotted))
        yield whole, n, index, count, row
        index += 2 * count
        if headed:
            whole.base[0] = whole.base[count]


def march(initial: StaggeredState, model: FluxModel, coeff: Coefficient,
          cfg: SchemeConfig, t_end: float, *, snapshots: dict | None = None,
          report: bool = True) -> tuple[StaggeredState, DiagnosticsReport]:
    """Advance to the even-step snap of t_end; return the final state and the report.

    The march steps blocks of pairs of steps on arrays (`_blocks`): max(1, 16384 // n_cells)
    pairs, max(1, 1024 // n_cells) when a collector folds them, 1 without a report once the
    whole mesh is stepped.  Without a collector it steps only the cells that can differ from
    the plateaus of the initial data that reach an edge or span _PLATEAU cells and that a
    step maps to themselves (`_far_fields`), span by span, and gives the bits of a march that
    steps the whole mesh; a collector reads every cell of every row, so with one the march
    steps every cell.  Each full block is read three ways: the report's `u_min`,
    `u_max` and `correction_max` are folded (`_folded`) into values (a zero is +0.0, and NaN
    once any state or correction holds one), a `DiagnosticsCollector` folds the other
    estimates of `computed_estimates(cfg)` over the whole rows (the rest are None), and a copy
    of a row is kept for each step index that is a key of `snapshots` (march sets its value).
    The final state holds a copy too, and the initial values are never written.  The target
    time snaps to the nearest even multiple of dt = lam*dx at or below t_end (recorded in the
    report), so the final state is on Base.  Every step takes its coefficient from `coeff`:
    an initial state whose `kbar` has other bits than `coeff`'s Base cell averages is refused
    with ValueError (the single steps take a state's own `kbar`).

    `report` False says that nothing reads the report's folded fields: the march takes no
    extremes and computes no estimate, `u_min` and `u_max` keep their never-observed
    defaults, the run facts (scheme, `lam`, `dx`, `steps`, `snapped_time`, the CFL fields)
    are still set, and `cfg.collect_diagnostics` is refused with ValueError.
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
    k_base, k_half = stepper.kbar[Parity.BASE], stepper.kbar[Parity.HALF]
    if np.asarray(initial.kbar).tobytes() != k_base.tobytes():
        raise ValueError("the initial state's kbar is not coeff's Base cell averages")
    k_slotted = np.pad(k_half, 1, mode="edge")  # the coefficient of a ghost-slotted Half row
    u, time, index = initial.values, initial.time, initial.step_index
    end = index + n_steps
    collector = (DiagnosticsCollector(model, coeff, cfg, mesh, rep, k_base, k_slotted)
                 if collect else None)
    snapshots = {} if snapshots is None else snapshots
    if index in snapshots:
        snapshots[index] = initial
    wanted = sorted(i for i in snapshots if isinstance(i, (int, np.integer)) and index < i <= end)
    lands = (k_base, Parity.BASE), (k_half, Parity.HALF)
    rows = max(1, (_FOLD_VALUES if collect else _BLOCK_VALUES) // n)
    # the cells that can differ; the collector reads every cell of every row
    found = _far_fields(stepper, u) if n_steps and collector is None else None
    blocks = _blocks(stepper, u, k_slotted, found, index, end, rows, rows if report else 1,
                     collector is not None)
    acc = (np.minimum.reduce(u), np.maximum.reduce(u), 0.0) if report else None
    for block, size, index, count, row in blocks:
        if report:
            acc = _folded(acc, block, count, size)
        if collector is not None:  # whole rows: a march with a collector has no window
            collector.observe(block.base[:count + 1], block.half[:count],
                              tuple(b[:count] for b in block.sig) or None)
        while wanted and wanted[0] <= index + 2 * count:  # a copy of each snapshot's row
            i, kept = wanted.pop(0), time
            for _ in range(i - index):
                kept += dt
            snapshots[i] = StaggeredState(mesh, row(i - index), *lands[(i - index) % 2], kept, i)
        for _ in range(2 * count):
            time += dt
    if report:
        # values: a zero reads +0.0 and a NaN math.nan, whichever bits a reduction found
        rep.u_min, rep.u_max, rep.correction_max = (math.nan if x != x else float(x) + 0.0
                                                    for x in acc)
    for key in (k for name in ESTIMATES.keys() - computed for k in ESTIMATES[name]):
        setattr(rep, key, None)
    rep.snapped_time = time
    if second_order and n_steps:
        rep.correction_bound = _correction_bound(cfg, model, mesh.dx)
    if end in snapshots:  # the initial state itself when no step is taken
        return snapshots[end], rep
    return (StaggeredState(mesh, row(2 * count), k_base, Parity.BASE, time, end)
            if n_steps else initial), rep
