"""Staggered central time steps and the marching driver.

Both schemes evolve cell averages onto the opposite-parity grid:

    first order:   v = (uL + uR)/2 - lam*(f(kR, uR) - f(kL, uL))
    second order:  v = (uL + uR)/2 - (sR - sL)/8
                       - lam*(f(kR, mR) - f(kL, mL))

with limited slopes s, mid-time values m = u - (lam/2) f_u(k, u) s, and
lam = dt/dx held fixed.  The second-order update is algebraically a
first-order step plus differenced correction terms

    a = lam*(f(k, m) - f(k, u)) + s/8,

which `predictor_corrector_step` evaluates directly.  Absorbing boundaries
are realized by ghost replication; each step lands exactly on the natural
grid of the new parity (n values on Base, n-1 on Half).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .diagnostics import Diagnostic, DiagnosticsCollector, DiagnosticsReport
from .flux_model import Coefficient, FluxModel
from .grid import (Mesh, Parity, StaggeredState, _replicate, cell_average_coefficient,
                   extend_absorbing)
from .limiter import LimiterConfig, slopes

log = logging.getLogger(__name__)

CFL_TOL = 1e-12


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
        if self.lam <= 0:
            raise ValueError("lam must be positive")


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


class _Stepper:
    """The step kernel of one march; `limiter` None selects the first-order scheme.

    Built once per run: both averaged-coefficient arrays (read-only, so every
    state can share them), their ghost-padded copies, and one ghost-padded
    buffer each step copies the values into.  Outputs are always fresh arrays.
    """

    def __init__(self, model: FluxModel, coeff: Coefficient, mesh: Mesh, lam: float,
                 limiter: LimiterConfig | None):
        self.model, self.lam, self.limiter = model, lam, limiter
        self.ghost = 1 if limiter is None else 2
        self.kbar = {p: cell_average_coefficient(mesh, coeff, p) for p in Parity}
        for k in self.kbar.values():
            k.flags.writeable = False
        self.kpad = {p: _replicate(k, self.ghost) for p, k in self.kbar.items()}
        self.buf = np.empty(mesh.n_cells + 2 * self.ghost)

    def _extend(self, state: StaggeredState) -> tuple[np.ndarray, np.ndarray]:
        """Absorbing ghost padding of values and kbar, as `extend_absorbing` gives."""
        if state.kbar is not self.kbar[state.parity]:  # a state that brings its own kbar
            return extend_absorbing(state, self.ghost)
        g, u = self.ghost, state.values
        ev = self.buf[:len(u) + 2 * g]
        ev[:g], ev[g:-g], ev[-g:] = u[0], u, u[-1]
        return ev, self.kpad[state.parity]

    def advance(self, state: StaggeredState, v: np.ndarray) -> StaggeredState:
        """Wrap stepped values into a natural-width state on the flipped parity."""
        to_half = state.parity is Parity.BASE  # drop the staggered values outside the half grid
        parity = Parity.HALF if to_half else Parity.BASE
        return StaggeredState(state.mesh, v[1:-1] if to_half else v, self.kbar[parity], parity,
                              state.time + self.lam * state.mesh.dx, state.step_index + 1)

    def ingredients(self, state: StaggeredState):
        """Extended values, slopes, mid and current fluxes, and correction terms."""
        ev, ek = self._extend(state)
        sig = slopes(ev, state.mesh.dx, self.limiter)
        mid = mid_time_values(ev, ek, sig, self.model, self.lam)
        f_mid = np.asarray(self.model.eval(ek, mid), dtype=float)
        f_now = np.asarray(self.model.eval(ek, ev), dtype=float)
        a = self.lam * (f_mid - f_now) + sig / 8.0
        return ev, sig, f_mid, f_now, a

    def step(self, state: StaggeredState) -> tuple[StaggeredState, np.ndarray | None]:
        """One step of the held scheme, with the per-cell correction values a_j of
        the second-order one (None for the first-order scheme)."""
        if self.limiter is None:
            ev, ek = self._extend(state)
            fl = self.model.eval(ek, ev)
            v = 0.5 * (ev[:-1] + ev[1:]) - self.lam * (fl[1:] - fl[:-1])
            return self.advance(state, v), None
        ev, sig, f_mid, _, a = self.ingredients(state)
        v = (0.5 * (ev[1:-2] + ev[2:-1])
             - 0.125 * (sig[2:-1] - sig[1:-2])
             - self.lam * (f_mid[2:-1] - f_mid[1:-2]))
        return self.advance(state, v), a[2:-2]


def lf_step(state: StaggeredState, model: FluxModel, coeff: Coefficient, lam: float,
            cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE) -> StaggeredState:
    """One first-order staggered step onto the opposite-parity grid."""
    _check_cfl(model, lam, cfl_level)
    return _Stepper(model, coeff, state.mesh, lam, None).step(state)[0]


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
    return _Stepper(model, coeff, state.mesh, cfg.lam, cfg.limiter).step(state)


def predictor_corrector_step(state: StaggeredState, model: FluxModel, coeff: Coefficient,
                             cfg: SchemeConfig) -> StaggeredState:
    """Second-order step evaluated as first-order predictor plus corrections.

    Computes v = v_first_order - a[right] + a[left]; an exact algebraic
    rearrangement of the direct update, so outputs agree to rounding.
    """
    _check_cfl(model, cfg.lam, cfg.cfl_level)
    stepper = _Stepper(model, coeff, state.mesh, cfg.lam, cfg.limiter)
    ev, _, _, f_now, a = stepper.ingredients(state)
    ubar = 0.5 * (ev[1:-2] + ev[2:-1]) - cfg.lam * (f_now[2:-1] - f_now[1:-2])
    v = ubar - (a[2:-1] - a[1:-2])
    return stepper.advance(state, v)


def snap_steps(t_start: float, t_end: float, dt: float) -> int:
    """Largest even step count whose end time does not exceed t_end."""
    if t_end < t_start:
        raise ValueError("t_end must not precede the state's current time")
    n = int(math.floor((t_end - t_start) / dt + 1e-9))
    return n - (n % 2)


def march(initial: StaggeredState, model: FluxModel, coeff: Coefficient,
          cfg: SchemeConfig, t_end: float,
          observers: Sequence[Diagnostic] = ()) -> tuple[StaggeredState, DiagnosticsReport]:
    """Advance to the even-step snap of t_end, feeding observers each transition.

    The target time snaps to the nearest even multiple of dt = lam*dx at or
    below t_end (recorded in the report), so the final state is always on
    Base parity.
    """
    if initial.mesh.n_cells < 2:
        raise ValueError("marching needs at least 2 cells")
    if initial.parity is not Parity.BASE:
        raise ValueError("march starts from Base-parity states")
    kappa_used, kappa = _check_cfl(model, cfg.lam, cfg.cfl_level)
    if cfg.cfl_level is CflLevel.MANUAL:
        log.warning("manual CFL level: lam*sup|f_u| = %.6g is not checked", kappa_used)
    collector = DiagnosticsCollector(model, coeff, cfg, initial)
    collector.report.kappa_used = kappa_used
    collector.report.kappa_bound = kappa

    dt = cfg.lam * initial.mesh.dx
    n_steps = snap_steps(initial.time, t_end, dt)
    second_order = cfg.scheme is Scheme.NESSYAHU_TADMOR
    stepper = _Stepper(model, coeff, initial.mesh, cfg.lam, cfg.limiter if second_order else None)
    state = initial
    for _ in range(n_steps):
        new, corrections = stepper.step(state)
        collector.observe(state, new, corrections)
        for obs in observers:
            obs.observe(state, new, corrections)
        state = new
    return state, collector.report
