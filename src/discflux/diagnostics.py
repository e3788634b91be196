"""Numerical verification of the solver's provable estimates.

Each check evaluates one inequality the schemes are expected to satisfy:

* maximum principle: all computed values stay inside [u_lo, u_hi];
* one-sided jump decay: the sum of squared one-sided jumps decays up to a
  coefficient-variation term Psi * ||k||_BV;
* cubic accumulator: dx * sum over steps and cells of |jump|^3 stays
  bounded independently of dx;
* quadratic accumulator with a curvature coefficient nu >= 0;
* discrete cell entropy inequality for the first-order scheme, evaluated
  against a grid of Kruzkov constants (judged on first-order runs only);
* correction-term bound for the modified limiter.

Tolerances are 1e-12 absolute on order-one quantities.  A collector folds
the checks over the (previous, next) state pairs of one time march, a block of
steps at a time.  The private pieces act on the last axis, so a block's states
go through them as the rows of one array.  A march computes only the estimates
`CLAIMS` names for its run, or every one; the report holds None for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .flux_model import Coefficient, Convexity, FluxModel
from .grid import Mesh, Parity, StaggeredState, extend_absorbing
from .limiter import LimiterKind, slopes  # noqa: F401  (bench/child.py wraps diagnostics.slopes)

if TYPE_CHECKING:  # pragma: no cover
    from .schemes import SchemeConfig

TOL = 1e-12
ENTROPY_C_COUNT = 11  # Kruzkov constants spread evenly over [u_lo, u_hi]
_JSON_KEYS = ("scheme", "lambda", "dx", "steps", "snapped_time", "u_min", "u_max",
              "onesided_holds", "onesided_worst_margin", "cubic_accumulator", "quad_accumulator",
              "nu_min", "entropy_max_residual", "correction_max", "correction_bound", "cfl_level",
              "kappa_used", "kappa_bound")
# Each estimate's report keys, and where the paper claims it: a test of the run's scheme, limiter
# kind and CFL level values.  Every march with a report takes `u_min` and `u_max`.
ESTIMATES = {"onesided": ("onesided_holds", "onesided_worst_margin"),
             "cubic": ("cubic_accumulator", "quad_accumulator", "nu_min"),
             "entropy": ("entropy_max_residual",), "correction": ("correction_max",)}
CLAIMS = {"onesided": lambda scheme, kind, level: level in ("one-sided", "cubic-estimate"),
          "cubic": lambda scheme, kind, level: level == "cubic-estimate",
          "entropy": lambda scheme, kind, level: scheme == "lax-friedrichs" and level != "manual",
          "correction": lambda scheme, kind, level:
              scheme == "nessyahu-tadmor" and kind == "minmod-modified"}


def computed_estimates(cfg: "SchemeConfig") -> set:
    """The estimates a march of `cfg` with a report computes: all of them, those claimed for
    the run, or (`collect_diagnostics` False) only a claimed correction bound."""
    if cfg.collect_diagnostics == "all":
        return set(ESTIMATES)
    run = cfg.scheme.value, cfg.limiter.kind.value, cfg.cfl_level.value
    return {name for name, claimed in CLAIMS.items()
            if claimed(*run) and (cfg.collect_diagnostics or name == "correction")}


@dataclass
class DiagnosticsReport:
    """Verification quantities accumulated over one march; None for an estimate not computed."""

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
    onesided_worst_margin: float | None = math.inf
    onesided_holds: bool | None = True
    cubic_accumulator: float | None = 0.0
    quad_accumulator: float | None = 0.0
    nu_min: float | None = math.inf
    entropy_max_residual: float | None = -math.inf
    correction_max: float | None = 0.0
    correction_bound: float | None = None

    def to_json_dict(self) -> dict:
        """The report under its JSON keys; a non-finite number (an unset extreme or bound,
        or a blown-up accumulator) is null."""
        out = {key: getattr(self, "lam" if key == "lambda" else key) for key in _JSON_KEYS}
        return {key: None if isinstance(v, float) and not math.isfinite(v) else v
                for key, v in out.items()}


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


def _one_sided(du: np.ndarray, model: FluxModel) -> np.ndarray:
    """One-sided jump magnitudes: positive parts of du (convex flux), else negative parts."""
    if model.convexity is Convexity.STRICTLY_CONVEX:
        return np.maximum(du, 0.0)
    return np.abs(np.minimum(du, 0.0))


def _cube(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a*a)*a, into `out` when given: two correctly rounded products, so the result does not
    depend on the SIMD loops numpy dispatches to (its AVX-512 pow rounds some cubes otherwise
    than its AVX2 one)."""
    out = np.multiply(a, a, out=out)
    return np.multiply(out, a, out=out)


def _decay_terms(model: FluxModel, lam: float, k_sup: float, k_bv: float) -> tuple[float, float]:
    """The cubic decay factor lam * gamma1 / 500 and the term Psi * ||k||_BV."""
    return lam * model.gamma1 / 500.0, psi_constant(model, lam, k_sup) * k_bv


def _jumps(values: np.ndarray) -> np.ndarray:
    """The jumps between consecutive values along the last axis."""
    return values[..., 1:] - values[..., :-1]


def _one_sided_sums(du: np.ndarray, model: FluxModel) -> tuple[np.ndarray, np.ndarray]:
    """Per row of jumps: the sum of the squared one-sided parts, and of their cubes."""
    m = _one_sided(du, model)
    return np.add.reduce(m**2, axis=-1), np.add.reduce(_cube(m), axis=-1)


def onesided_check(prev: StaggeredState, next: StaggeredState, model: FluxModel,
                   lam: float, k_sup: float | None = None,
                   k_bv: float | None = None) -> tuple[float, float, bool]:
    """One-sided jump decay across one step: returns (lhs, rhs, holds).

    lhs is the squared one-sided jump sum of the new state; rhs is the old
    sum minus a cubic decay term (lam * gamma1 / 500) plus Psi * ||k||_BV.
    Coefficient norms default to values derived from the state's averaged
    coefficient (exact for piecewise-constant k with interface jumps).
    """
    k_bv = float(np.sum(np.abs(np.diff(prev.kbar)))) if k_bv is None else k_bv
    k_sup = float(np.max(np.abs(prev.kbar))) if k_sup is None else k_sup
    m2_prev, cubes_prev = _one_sided_sums(_jumps(prev.values), model)
    lhs = float(_one_sided_sums(_jumps(next.values), model)[0])
    decay, psi_bv = _decay_terms(model, lam, k_sup, k_bv)
    rhs = float(m2_prev - decay * cubes_prev + psi_bv)
    return lhs, rhs, lhs <= rhs + TOL


def _midpoints(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a[..., :-1] + a[..., 1:])


def _nu(u, du, kt, sig, model: FluxModel, lam: float) -> np.ndarray:
    """nu from the values, their jumps, the midpoint kbar and the slopes (None: all 0),
    row by row along the last axis."""
    ut = _midpoints(u)
    beta = lam * np.asarray(model.d_u(kt, ut), dtype=float)
    one = 1.0 - 4.0 * beta**2
    if sig is None:  # r = s = 0: the bracket is 1, or NaN where one or beta is not finite
        bracket = 1.0 - one * 0.0 - beta * 0.0
    else:
        nonzero = du != 0.0
        r = np.divide(sig[..., 1:] - sig[..., :-1], du, out=np.zeros(du.shape), where=nonzero)
        s = np.divide(sig[..., :-1] + sig[..., 1:], 2.0 * du, out=np.zeros(du.shape),
                      where=nonzero)
        bracket = 1.0 - (one / 16.0) * r**2 - beta * r - s
    fuu = model.curvature_sign * np.asarray(model.d_uu(kt, ut), dtype=float)
    return 0.125 * one * bracket * fuu


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
    sig = np.asarray(slopes_arr, dtype=float)
    if len(sig) != len(u):
        raise ValueError("slopes must align with state values")
    return _nu(u, np.diff(u), _midpoints(np.asarray(state.kbar, dtype=float)), sig, model, lam)


def _kruzkov_table(k: np.ndarray, model: FluxModel, lam: float, c_grid: np.ndarray):
    """The constants as a column, f(k, c) (a row per constant) and lam*|f(kR, c) - f(kL, c)|."""
    c = np.asarray(c_grid, dtype=float)
    f_c = np.array([model.eval(k, np.full_like(k, ci)) for ci in c]).reshape(len(c), len(k))
    return c[:, None], f_c, lam * np.abs(f_c[:, 1:] - f_c[:, :-1])


def _entropy_residuals(u, v, model: FluxModel, lam: float, k, c, f_c, jump) -> np.ndarray:
    """The residual of each value of each row of `v`, stepped from the pairs of `u` (with
    `k`), for all constants at once: shape (*rows, len(c), len(v's rows))."""
    u, v = u[..., None, :], v[..., None, :]  # a constants axis before the cells
    d = u - c
    dist = np.abs(d)
    flux = np.sign(d) * (model.eval(k, u) - f_c)
    return (np.abs(v - c) - 0.5 * dist[..., 1:] - 0.5 * dist[..., :-1]
            + lam * (flux[..., 1:] - flux[..., :-1]) - jump)


def entropy_residual_lf(prev: StaggeredState, next: StaggeredState, model: FluxModel,
                        lam: float, c_grid: np.ndarray) -> float:
    """Worst cell entropy residual of one first-order step over a grid of constants.

    For each constant c and cell, evaluates
        |v - c| - |uR - c|/2 - |uL - c|/2
        + lam*(F(kR, uR, c) - F(kL, uL, c)) - lam*|f(kR, c) - f(kL, c)|
    with F(k, u, c) = sign(u - c) (f(k, u) - f(k, c)).  Nonpositive (up to
    rounding) whenever `next` came from the first-order scheme.  All constants
    are evaluated at once, one row each; left and right terms are slices, and a Half `prev`
    takes a ghost replica at each end.
    """
    if next.parity is prev.parity or next.step_index != prev.step_index + 1:
        raise ValueError("states are not a consecutive staggered transition")
    u, k = ((prev.values, prev.kbar) if prev.parity is Parity.BASE
            else extend_absorbing(prev, 1))
    maxima = _entropy_residuals(u, next.values, model, lam, k,
                                *_kruzkov_table(k, model, lam, c_grid)).max(axis=-1)
    return max(-math.inf, *maxima.tolist())  # a NaN constant is skipped


def _window_mask(mesh: Mesh, parity: Parity, window_x: float | None) -> np.ndarray | None:
    return None if window_x is None else np.abs(mesh.interface_positions(parity)) <= window_x


def _cubic(cubes: np.ndarray, dx: float, mask: np.ndarray | None) -> np.ndarray:
    """dx * sum of the cubed jump magnitudes `cubes` over the mask, per row.  The masked rows
    are made contiguous: a row sum of the strided selection adds in another order and
    differs in the last bits."""
    return dx * np.add.reduce(cubes if mask is None else
                              np.ascontiguousarray(cubes[..., mask]), axis=-1)


def accumulate_cubic(report: DiagnosticsReport, state: StaggeredState,
                     window_x: float | None) -> DiagnosticsReport:
    """Add dx * sum of |jump|^3 over interfaces inside |x| <= window_x."""
    mask = _window_mask(state.mesh, state.parity, window_x)
    cubes = _cube(np.abs(_jumps(state.values)))
    report.cubic_accumulator += float(_cubic(cubes, state.mesh.dx, mask))
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


class DiagnosticsCollector:
    """Folds the full check suite over the steps of one march into `report`; the cell
    entropy inequality is judged on first-order (Lax-Friedrichs) marches only.

    `march` is the only caller.  It hands `observe` each block of pairs of steps, in order,
    as views of the rows it stepped into: the collector copies no state.  Each check runs
    once per block and parity on whole rows, the block's states as the rows of one array,
    and the per-step figures enter the report in step order, so the report does not depend
    on the block size.  The last state of a block heads the next one.  Every step takes the
    march's coefficient, `k_base` on Base and `k_slotted` (Half with a ghost slot at each end)
    on Half, so what is fixed for the run is built here, once: for each parity the window
    mask, the midpoints of kbar and, for LF, the Kruzkov table.
    """

    def __init__(self, model: FluxModel, coeff: Coefficient, cfg: "SchemeConfig", mesh: Mesh,
                 report: DiagnosticsReport, k_base: np.ndarray, k_slotted: np.ndarray):
        from .schemes import Scheme  # local import keeps module load acyclic

        self.model, self.cfg, self.mesh, self.report = model, cfg, mesh, report
        lf = cfg.scheme is Scheme.LAX_FRIEDRICHS
        c_grid = np.linspace(model.u_lo, model.u_hi, ENTROPY_C_COUNT)
        self._decay, self._psi_bv = _decay_terms(model, cfg.lam, coeff.sup_norm, coeff.bv_norm)
        self._fixed = {parity: (_window_mask(mesh, parity, cfg.window_x), _midpoints(cells)[None],
                                (k, *_kruzkov_table(k, model, cfg.lam, c_grid)) if lf else None)
                       for parity, k, cells in ((Parity.BASE, k_base, k_base),
                                                (Parity.HALF, k_slotted, k_slotted[1:-1]))}

    def observe(self, a: np.ndarray, b: np.ndarray, sig):
        """Fold the steps s0 -> s1 -> ... -> s_2m of one block into the report: `a` holds the
        Base states s0, s2, ..., s_2m as rows (s0 is the march's initial state or the last
        state of the previous block), `b` the Half states s1, s3, ..., s_2m-1 with a ghost
        slot at each end, and `sig` the slopes the steps took on the rows of a[:m] and of `b`,
        or None (Lax-Friedrichs)."""
        rep, m = self.report, len(b)
        # the jumps and one-sided sums of s0 ... s_2m in state order
        du_a, du_b = _jumps(a), _jumps(b[:, 1:-1])
        m2, cubes = (_interleave(x.tolist(), y.tolist()) for x, y in zip(
            _one_sided_sums(du_a, self.model), _one_sided_sums(du_b, self.model)))
        sig_a, sig_b = (None, None) if sig is None else sig
        # the steps alternate between the two grids: interleave their terms
        cubic, quad, low, maxima = (_interleave(x, y) for x, y in zip(
            self._step_terms(Parity.BASE, a[:m], du_a[:m], b[:, 1:-1], sig_a),
            self._step_terms(Parity.HALF, b, du_b, a[1:], sig_b)))
        rhs = [m2_prev - self._decay * cubes_prev + self._psi_bv
               for m2_prev, cubes_prev in zip(m2[:-1], cubes)]
        rep.onesided_worst_margin = _least(rep.onesided_worst_margin,
                                           (r - lhs for lhs, r in zip(m2[1:], rhs)))
        rep.onesided_holds = rep.onesided_holds and all(lhs <= r + TOL
                                                        for lhs, r in zip(m2[1:], rhs))
        total_c, total_q = rep.cubic_accumulator, rep.quad_accumulator
        for c, q in zip(cubic, quad):
            total_c += c
            total_q += q
        rep.cubic_accumulator, rep.quad_accumulator = total_c, total_q
        rep.nu_min = _least(rep.nu_min, low)
        rep.entropy_max_residual = _greatest(rep.entropy_max_residual,
                                             chain.from_iterable(maxima))

    def _step_terms(self, parity: Parity, u, du, v, sig) -> tuple:
        """Lists with one entry per step from a row of `u` (`u` and slopes `sig` on Half with
        the ghost slots, jumps `du` without) on `parity`'s grid to the row of `v`: the cubic
        and the quadratic terms, the least nu (inf where there is no jump) and, for LF, each
        Kruzkov constant's worst residual (else empty)."""
        model, lam, dx = self.model, self.cfg.lam, self.mesh.dx
        mask, kt, kruzkov = self._fixed[parity]
        cells = slice(1, -1) if parity is Parity.HALF else slice(None)  # without the slots
        nu = _nu(u[:, cells], du, kt, None if sig is None else sig[:, cells], model, lam)
        low = np.minimum.reduce(nu, axis=-1).tolist() if nu.shape[-1] else [math.inf] * len(du)
        quad = (dx * np.add.reduce(nu * np.square(du), axis=-1)).tolist()
        maxima = (_entropy_residuals(u, v, model, lam, *kruzkov).max(axis=-1).tolist()
                  if kruzkov else [])
        return _cubic(_cube(np.abs(du)), dx, mask).tolist(), quad, low, maxima


def _interleave(even: list, odd: list) -> list:
    out = [None] * (len(even) + len(odd))
    out[0::2], out[1::2] = even, odd
    return out


def _least(acc: float, values) -> float:
    """`acc` folded with each of `values` in turn into the least; a NaN value replaces it
    and sticks (a later NaN replaces it again)."""
    for x in values:
        acc = x if x < acc or x != x else acc
    return acc


def _greatest(acc: float, values) -> float:
    """`_least` for the greatest."""
    for x in values:
        acc = x if x > acc or x != x else acc
    return acc
