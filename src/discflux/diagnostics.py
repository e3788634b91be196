"""Numerical verification of the solver's provable estimates.

Each check evaluates one inequality the schemes are expected to satisfy:

* maximum principle: all computed values stay inside [u_lo, u_hi];
* one-sided jump decay: the sum of squared one-sided jumps decays up to a
  coefficient-variation term Psi * ||k||_BV;
* cubic accumulator: dx * sum over steps and cells of |jump|^3 stays
  bounded independently of dx;
* quadratic accumulator with a curvature coefficient nu >= 0;
* discrete cell entropy inequality for the first-order scheme, evaluated
  against a grid of Kruzkov constants;
* correction-term bound for the modified limiter.

Tolerances are 1e-12 absolute on order-one quantities.  A collector folds
the checks over the (previous, next) state pairs of one time march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .flux_model import Coefficient, Convexity, FluxModel
from .grid import Parity, StaggeredState, _replicate
from .limiter import LimiterConfig, LimiterKind, slopes

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import SchemeConfig

TOL = 1e-12


@dataclass
class DiagnosticsReport:
    """Per-step and accumulated verification quantities for one march."""

    scheme: str = ""
    lam: float = 0.0
    dx: float = 0.0
    steps: int = 0
    snapped_time: float = 0.0
    cfl_level: str = ""
    kappa_used: float = 0.0
    kappa_bound: float = math.inf
    u_min: float = math.inf
    u_max: float = -math.inf
    onesided_series: list[float] = field(default_factory=list)
    onesided_margins: list[float] = field(default_factory=list)
    onesided_holds: bool = True
    cubic_accumulator: float = 0.0
    quad_accumulator: float = 0.0
    nu_min: float = math.inf
    entropy_max_residual: float = -math.inf
    correction_max: float = 0.0
    correction_bound: float | None = None
    psi: float = 0.0

    @property
    def onesided_worst_margin(self) -> float:
        return min(self.onesided_margins, default=math.inf)

    def to_json_dict(self) -> dict:
        none_if_inf = lambda v: None if not math.isfinite(v) else v
        return {
            "scheme": self.scheme,
            "lambda": self.lam,
            "dx": self.dx,
            "steps": self.steps,
            "snapped_time": self.snapped_time,
            "u_min": none_if_inf(self.u_min),
            "u_max": none_if_inf(self.u_max),
            "onesided_holds": self.onesided_holds,
            "onesided_worst_margin": none_if_inf(self.onesided_worst_margin),
            "cubic_accumulator": self.cubic_accumulator,
            "quad_accumulator": self.quad_accumulator,
            "nu_min": none_if_inf(self.nu_min),
            "entropy_max_residual": none_if_inf(self.entropy_max_residual),
            "correction_max": self.correction_max,
            "correction_bound": self.correction_bound,
            "cfl_level": self.cfl_level,
            "kappa_used": self.kappa_used,
            "kappa_bound": none_if_inf(self.kappa_bound),
        }


def psi_constant(model: FluxModel, lam: float, k_sup: float) -> float:
    """Coefficient-variation constant of the one-sided jump-decay bound.

    Evaluated literally from the model suprema; multiplies ||k||_BV on the
    right-hand side of the decay inequality.
    """
    c = model.c_u0
    fu, fk, fuk, g2 = model.sup_fu, model.sup_fk, model.sup_fuk, model.gamma2
    return (72.0 * lam**2 * c**2 * fuk
            + 114.0 * lam * c**2 * fuk
            + (708.0 * c**2 + 48.0 * lam * fu) * lam**2 * fu * fuk
            + (48.0 * lam**2 * c * k_sup + 132.0 * lam**2 * c**2 * g2 * fu
               + 64.0 * lam * fk * k_sup + 88.0 * c) * lam * fk)


def _signed_jumps(values: np.ndarray, model: FluxModel) -> np.ndarray:
    """Magnitudes of the one-sided jumps: positive parts for convex fluxes,
    negative parts for concave ones."""
    d = np.diff(values)
    if model.convexity is Convexity.STRICTLY_CONVEX:
        return np.maximum(d, 0.0)
    return np.abs(np.minimum(d, 0.0))


def onesided_check(prev: StaggeredState, next: StaggeredState, model: FluxModel,
                   lam: float, k_sup: float | None = None,
                   k_bv: float | None = None) -> tuple[float, float, bool]:
    """One-sided jump decay across one step: returns (lhs, rhs, holds).

    lhs is the squared one-sided jump sum of the new state; rhs is the old
    sum minus a cubic decay term (lam * gamma1 / 500) plus Psi * ||k||_BV.
    Coefficient norms default to values derived from the state's averaged
    coefficient (exact for piecewise-constant k with interface jumps).
    """
    if k_bv is None:
        k_bv = float(np.sum(np.abs(np.diff(prev.kbar))))
    if k_sup is None:
        k_sup = float(np.max(np.abs(prev.kbar)))
    m_prev = _signed_jumps(prev.values, model)
    m_next = _signed_jumps(next.values, model)
    lhs = float(np.sum(m_next**2))
    rhs = float(np.sum(m_prev**2) - (lam * model.gamma1 / 500.0) * np.sum(m_prev**3)
                + psi_constant(model, lam, k_sup) * k_bv)
    return lhs, rhs, lhs <= rhs + TOL


def nu_coefficient(state: StaggeredState, slopes_arr: np.ndarray, model: FluxModel,
                   lam: float) -> np.ndarray:
    """Curvature coefficient per interface, nonnegative under the strict CFL level.

    nu = (1/8)(1-4b^2) [1 - (1/16)(1-4b^2) r^2 - b r - s] * f_uu(kt, ut),
    with b = lam*f_u(kt, ut) at the interface midpoint values, r the slope
    difference over the jump and s the slope average over the jump.  Where
    the jump vanishes both adjacent limited slopes vanish too, and the
    ratios are taken as 0.  For concave fluxes |f_uu| is used, so the sign
    convention matches the convex case.
    """
    u = np.asarray(state.values, dtype=float)
    k = np.asarray(state.kbar, dtype=float)
    sig = np.asarray(slopes_arr, dtype=float)
    if len(sig) != len(u):
        raise ValueError("slopes must align with state values")
    du = u[1:] - u[:-1]
    kt = 0.5 * (k[:-1] + k[1:])
    ut = 0.5 * (u[:-1] + u[1:])
    beta = lam * np.asarray(model.d_u(kt, ut), dtype=float)
    nonzero = du != 0.0
    safe = np.where(nonzero, du, 1.0)
    r = np.where(nonzero, (sig[1:] - sig[:-1]) / safe, 0.0)
    s = np.where(nonzero, (sig[:-1] + sig[1:]) / (2.0 * safe), 0.0)
    one = 1.0 - 4.0 * beta**2
    bracket = 1.0 - (one / 16.0) * r**2 - beta * r - s
    fuu = model.curvature_sign * np.asarray(model.d_uu(kt, ut), dtype=float)
    return 0.125 * one * bracket * fuu


def _transition_arrays(prev: StaggeredState, next: StaggeredState):
    """Values and kbar of `prev` such that each value of `next` comes from an
    adjacent (left, right) pair; Half-to-Base edge cells use ghost replicas."""
    if next.parity is prev.parity or next.step_index != prev.step_index + 1:
        raise ValueError("states are not a consecutive staggered transition")
    if prev.parity is Parity.BASE:
        return prev.values, prev.kbar
    return _replicate(prev.values, 1), _replicate(prev.kbar, 1)


def entropy_residual_lf(prev: StaggeredState, next: StaggeredState, model: FluxModel,
                        lam: float, c_grid: np.ndarray) -> float:
    """Worst cell entropy residual of one first-order step over a grid of constants.

    For each constant c and cell, evaluates
        |v - c| - |uR - c|/2 - |uL - c|/2
        + lam*(F(kR, uR, c) - F(kL, uL, c)) - lam*|f(kR, c) - f(kL, c)|
    with F(k, u, c) = sign(u - c) (f(k, u) - f(k, c)).  Nonpositive (up to
    rounding) whenever `next` came from the first-order scheme.  The left and
    right terms are slices of one array per constant.
    """
    u, k = _transition_arrays(prev, next)
    v = next.values
    f_u = model.eval(k, u)
    worst = -math.inf
    for c in np.asarray(c_grid, dtype=float):
        f_c = model.eval(k, np.full_like(k, c))
        d = u - c
        dist = np.abs(d)
        flux = np.sign(d) * (f_u - f_c)
        res = (np.abs(v - c) - 0.5 * dist[1:] - 0.5 * dist[:-1]
               + lam * (flux[1:] - flux[:-1]) - lam * np.abs(f_c[1:] - f_c[:-1]))
        worst = max(worst, float(np.max(res)))
    return worst


def accumulate_cubic(report: DiagnosticsReport, state: StaggeredState,
                     window_x: float | None) -> DiagnosticsReport:
    """Add dx * sum of |jump|^3 over interfaces inside |x| <= window_x."""
    d = np.abs(np.diff(state.values))
    if window_x is not None:
        pos = state.mesh.interface_positions(state.parity)
        d = d[np.abs(pos) <= window_x]
    report.cubic_accumulator += state.mesh.dx * float(np.sum(d**3))
    return report


def _correction_bound(cfg: "SchemeConfig", model: FluxModel, dx: float) -> float | None:
    """The bound on max |a_j| for this run, or None without the modified limiter."""
    lim = cfg.limiter
    if lim.kind is not LimiterKind.MINMOD_MODIFIED:
        return None
    return (cfg.lam**2 * model.sup_fu**2 / 2.0 + 0.125) * lim.k_tilde * dx**lim.alpha


def correction_bound_check(a: np.ndarray, cfg: "SchemeConfig", model: FluxModel,
                           dx: float) -> tuple[float, float, bool] | None:
    """Check max |a_j| <= (lam^2 sup_fu^2 / 2 + 1/8) * k_tilde * dx^alpha.

    Returns (max_a, bound, holds), or None when the modified limiter is not
    active (the bound only applies there).
    """
    bound = _correction_bound(cfg, model, dx)
    if bound is None:
        return None
    max_a = float(np.max(np.abs(a))) if len(a) else 0.0
    return max_a, bound, max_a <= bound + TOL


class Diagnostic:
    """Observer fed every (prev, next) transition of a march."""

    def observe(self, prev: StaggeredState, next: StaggeredState,
                corrections: np.ndarray | None) -> None:
        raise NotImplementedError


class DiagnosticsCollector(Diagnostic):
    """Folds the full check suite over one march into a DiagnosticsReport."""

    def __init__(self, model: FluxModel, coeff: Coefficient, cfg: "SchemeConfig",
                 initial: StaggeredState, full: bool = True):
        self.model = model
        self.coeff = coeff
        self.cfg = cfg
        self.full = full
        self.report = DiagnosticsReport(
            scheme=cfg.scheme.value,
            lam=cfg.lam,
            dx=initial.mesh.dx,
            snapped_time=initial.time,
            cfl_level=cfg.cfl_level.value,
            u_min=float(np.min(initial.values)),
            u_max=float(np.max(initial.values)),
            psi=psi_constant(model, cfg.lam, coeff.sup_norm),
        )
        self._correction_bound = _correction_bound(cfg, model, initial.mesh.dx)
        self._zero_limiter = LimiterConfig(kind=LimiterKind.ZERO)
        self._c_grid = np.linspace(model.u_lo, model.u_hi, cfg.entropy_c_count)

    def _scheme_slopes(self, state: StaggeredState) -> np.ndarray:
        from .schemes import Scheme  # local import keeps module load acyclic

        lim = self.cfg.limiter if self.cfg.scheme is Scheme.NESSYAHU_TADMOR else self._zero_limiter
        return slopes(state.values, state.mesh.dx, lim)

    def observe(self, prev, next, corrections):
        rep = self.report
        rep.steps += 1
        rep.snapped_time = next.time
        rep.u_min = min(rep.u_min, float(next.values.min()))
        rep.u_max = max(rep.u_max, float(next.values.max()))
        if corrections is not None and len(corrections):
            rep.correction_max = max(rep.correction_max, float(np.abs(corrections).max()))
            rep.correction_bound = self._correction_bound
        if not self.full:
            return
        lhs, rhs, holds = onesided_check(prev, next, self.model, self.cfg.lam,
                                         k_sup=self.coeff.sup_norm, k_bv=self.coeff.bv_norm)
        rep.onesided_series.append(lhs)
        rep.onesided_margins.append(rhs - lhs)
        rep.onesided_holds = rep.onesided_holds and holds
        accumulate_cubic(rep, prev, self.cfg.window_x)
        sig = self._scheme_slopes(prev)
        nu = nu_coefficient(prev, sig, self.model, self.cfg.lam)
        du = np.diff(prev.values)
        rep.quad_accumulator += prev.mesh.dx * float(np.sum(nu * du**2))
        if len(nu):
            rep.nu_min = min(rep.nu_min, float(np.min(nu)))
        rep.entropy_max_residual = max(
            rep.entropy_max_residual,
            entropy_residual_lf(prev, next, self.model, self.cfg.lam, self._c_grid))
