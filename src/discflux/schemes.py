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
ghost cell would repeat its edge cell with slope 0, so the steps take every
pair from the cell values alone and pad nothing.  Each step lands exactly on
the natural grid of the new parity (n values on Base, n-1 on Half).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .diagnostics import DiagnosticsCollector, DiagnosticsReport, _correction_bound
from .flux_model import Coefficient, FluxModel
from .grid import Mesh, Parity, StaggeredState, cell_average_coefficient, extend_absorbing
from .limiter import LimiterConfig, slopes

log = logging.getLogger(__name__)

CFL_TOL = 1e-12
MAX_STEPS = 10**9  # the largest bench or example run takes 38,400 steps; 1e9 would take hours


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
    """Scheme selection, mesh ratio lam = dt/dx, limiter, and diagnostic toggles."""

    scheme: Scheme = Scheme.NESSYAHU_TADMOR
    limiter: LimiterConfig = field(default_factory=LimiterConfig)
    lam: float = 0.05
    cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE
    collect_diagnostics: bool = True
    window_x: float | None = None

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")


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
    if kappa_used > kappa + CFL_TOL:
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
    buffer.  Both schemes step the n cell values without ghost cells.  With `corrections`
    False the second-order step skips f(k, u) and the corrections a_j, which only the
    report reads, and returns None for them.  The new values go into `out` when it is
    given (`march` passes its two buffers; `out` must not alias the input), else into a
    fresh array, as the public single steps take it.
    """

    def __init__(self, model: FluxModel, coeff: Coefficient, mesh: Mesh, lam: float,
                 limiter: LimiterConfig | None, *, corrections: bool = True):
        self.model, self.mesh, self.lam, self.limiter = model, mesh, lam, limiter
        self.corrections = corrections
        self.kbar = _Averages(mesh, coeff)
        self.diff = np.empty(mesh.n_cells)

    def step(self, u: np.ndarray, kbar: np.ndarray, parity: Parity,
             out: np.ndarray | None = None):
        """One step of the held scheme from values `u` with coefficient `kbar` on `parity`'s
        grid: the new values on the natural grid of the other parity, with the correction
        values a_j and the slopes on `u`'s cells of the second-order one (None, None for the
        first-order one)."""
        lam, model, to_half = self.lam, self.model, parity is Parity.BASE
        sig = a = None
        if self.limiter is None:
            f = np.asarray(model.eval(kbar, u), dtype=float)
        else:  # f at the mid-time values; fewer than 3 take slope 0
            sig = slopes(u, self.mesh.dx, self.limiter) if len(u) > 2 else np.zeros(len(u))
            mid = mid_time_values(u, kbar, sig, model, lam)
            f = np.asarray(model.eval(kbar, mid), dtype=float)
            if self.corrections:
                a = lam * (f - np.asarray(model.eval(kbar, u), dtype=float)) + sig / 8.0
        # Every staggered pair of the absorbing padding, the outer two only when kept (Half to
        # Base).  A ghost repeats its edge cell's (k, u) and takes slope 0, so f is taken on
        # the cells alone (`eval` acts elementwise) and an outer pair's slope term
        # x - 0.125*(0.0 - 0.0) is x.
        v = np.empty(len(u) - 1 if to_half else len(u) + 1) if out is None else out
        inner, diff = v if to_half else v[1:-1], self.diff[:len(u) - 1]
        np.multiply(np.add(u[:-1], u[1:], out=inner), 0.5, out=inner)
        if sig is not None:
            inner -= np.multiply(np.subtract(sig[1:], sig[:-1], out=diff), 0.125, out=diff)
        inner -= np.multiply(np.subtract(f[1:], f[:-1], out=diff), lam, out=diff)
        for i in () if to_half else (0, -1):  # NaN and inf as padded
            ui, fi = float(u[i]), float(f[i])
            v[i] = 0.5 * (ui + ui) - lam * (fi - fi)
        return v, a, sig

    def advance(self, state: StaggeredState, v: np.ndarray) -> StaggeredState:
        """Wrap values stepped from `state` into a state on the flipped parity."""
        parity = Parity.HALF if state.parity is Parity.BASE else Parity.BASE
        return StaggeredState(state.mesh, v, self.kbar[parity], parity,
                              state.time + self.lam * state.mesh.dx, state.step_index + 1)


def lf_step(state: StaggeredState, model: FluxModel, coeff: Coefficient, lam: float,
            cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE) -> StaggeredState:
    """One first-order staggered step onto the opposite-parity grid."""
    SchemeConfig(lam=lam)  # refuses a lam that is not positive and finite
    _check_cfl(model, lam, cfl_level)
    if len(state.values) == 0:
        raise ValueError("cannot step an empty state")
    stepper = _Stepper(model, coeff, state.mesh, lam, None)
    return stepper.advance(state, stepper.step(state.values, state.kbar, state.parity)[0])


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
    if len(state.values) == 0:
        raise ValueError("cannot step an empty state")
    stepper = _Stepper(model, coeff, state.mesh, cfg.lam, cfg.limiter)
    v, a, _ = stepper.step(state.values, state.kbar, state.parity)
    return stepper.advance(state, v), a


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


def march(initial: StaggeredState, model: FluxModel, coeff: Coefficient,
          cfg: SchemeConfig, t_end: float, *, snapshots: dict | None = None,
          report: bool = True) -> tuple[StaggeredState, DiagnosticsReport]:
    """Advance to the even-step snap of t_end; return the final state and the report.

    The loop carries arrays and builds a state only where one is read: the final
    state and the state at each step index that is a key of `snapshots` (march sets
    its value).  The steps write into two arrays the march owns, one per parity: a
    kept state holds a copy, the final state keeps its array, and the initial values
    are never written.

    The target time snaps to the nearest even multiple of dt = lam*dx at or
    below t_end (recorded in the report), so the final state is always on
    Base parity.  The report's `u_min`/`u_max` and `correction_max` are NaN once
    any state or correction holds a NaN.

    `report` False says that nothing reads the report's folded fields: the march takes
    no extremes or correction maximum, and the NT step skips its corrections.  `u_min`,
    `u_max` and `correction_max` then keep their never-observed defaults, the run facts
    (scheme, `lam`, `dx`, `steps`, `snapped_time`, the CFL fields) are still set, and
    `cfg.collect_diagnostics` is refused with ValueError.
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
    mesh, dt = initial.mesh, cfg.lam * initial.mesh.dx
    n_steps = snap_steps(initial.time, t_end, dt)
    second_order = cfg.scheme is Scheme.NESSYAHU_TADMOR
    stepper = _Stepper(model, coeff, mesh, cfg.lam, cfg.limiter if second_order else None,
                       corrections=report)
    rep = DiagnosticsReport(scheme=cfg.scheme.value, lam=cfg.lam, dx=mesh.dx, steps=n_steps,
                            cfl_level=cfg.cfl_level.value, kappa_used=kappa_used,
                            kappa_bound=kappa)
    collector = (DiagnosticsCollector(model, coeff, cfg, mesh, rep)
                 if cfg.collect_diagnostics else None)
    snapshots = {} if snapshots is None else snapshots
    if initial.step_index in snapshots:
        snapshots[initial.step_index] = initial
    base, half = Parity.BASE, Parity.HALF
    k_base, k_half = stepper.kbar[base], stepper.kbar[half]
    step, lowest, highest = stepper.step, np.minimum.reduce, np.maximum.reduce
    u, kbar, parity, time = initial.values, initial.kbar, base, initial.time
    end = initial.step_index + n_steps
    # a step from Base writes into the (n-1)-value array and one from Half into the n-value one
    out, spare = np.empty(mesh.n_cells - 1), np.empty(mesh.n_cells)
    if report:
        u_min, u_max, correction_max = lowest(u), highest(u), 0.0
    for index in range(initial.step_index + 1, end + 1):
        v, corrections, sig = step(u, kbar, parity, out)
        if report:
            lo, hi = lowest(v), highest(v)
            u_min = lo if lo < u_min or lo != lo else u_min  # a NaN sticks
            u_max = hi if hi > u_max or hi != hi else u_max
            if corrections is not None:
                a_max = highest(np.abs(corrections))
                correction_max = (a_max if a_max > correction_max or a_max != a_max
                                  else correction_max)
        if collector is not None:
            collector.observe(u, kbar, parity, v, sig)
        parity, kbar = (half, k_half) if parity is base else (base, k_base)
        time += dt
        if index in snapshots:
            kept = v if index == end else v.copy()
            snapshots[index] = StaggeredState(mesh, kept, kbar, parity, time, index)
        u, out, spare = v, spare, out
    if report:
        rep.u_min, rep.u_max = float(u_min), float(u_max)
        rep.correction_max = float(correction_max)
    rep.snapped_time = time
    if second_order and n_steps:
        rep.correction_bound = _correction_bound(cfg, model, mesh.dx)
    if end in snapshots:  # the initial state itself when no step is taken
        return snapshots[end], rep
    return (StaggeredState(mesh, u, kbar, parity, time, end) if n_steps else initial), rep
