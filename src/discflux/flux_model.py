"""Flux functions f(k, u) with a spatially discontinuous coefficient k(x).

A FluxModel bundles the flux, its partial derivatives, and the box
[k_lo, k_hi] x [u_lo, u_hi] together with the bounds that drive CFL
restrictions and stability diagnostics:

    gamma1 <= |f_uu(k, u)| <= gamma2     (uniform curvature bounds)
    sup_fu, sup_fk, sup_fuk              (suprema of |f_u|, |f_k|, |f_uk|)

A Coefficient is a piecewise-smooth k(x) with finitely many jumps.  The
structural assumptions the solver relies on (coefficient range, uniform
curvature, affine k-dependence, flux equality at the interval endpoints,
and the crossing condition at coefficient jumps) are machine-checkable
via :func:`verify_hypotheses`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np


class Convexity(Enum):
    STRICTLY_CONVEX = "strictly-convex"
    STRICTLY_CONCAVE = "strictly-concave"


@dataclass(frozen=True)
class FluxModel:
    """Flux f(k, u) with derivatives and box bounds.

    All callables are vectorized over numpy arrays.  Instances are
    immutable and safe to share across threads.
    """

    name: str
    eval: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_u: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_k: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_uu: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d_uk: Callable[[np.ndarray, np.ndarray], np.ndarray]
    u_lo: float
    u_hi: float
    k_lo: float
    k_hi: float
    convexity: Convexity
    gamma1: float
    gamma2: float
    sup_fu: float
    sup_fk: float
    sup_fuk: float
    exact_bounds: bool = True
    fd_derivatives: bool = False

    @property
    def c_u0(self) -> float:
        """Bound on |u| over the invariant interval."""
        return max(abs(self.u_lo), abs(self.u_hi))

    @property
    def curvature_sign(self) -> float:
        return 1.0 if self.convexity is Convexity.STRICTLY_CONVEX else -1.0

    @classmethod
    def from_callables(cls, name, eval, d_u, d_k, d_uu, d_uk,
                       u_lo, u_hi, k_lo, k_hi, convexity,
                       samples: int = 1024) -> "FluxModel":
        """Build a model from user callables, estimating bounds by grid sampling."""
        sup_fu, sup_fk, sup_fuk, gamma1, gamma2 = _sample_bounds(
            d_u, d_k, d_uu, d_uk, u_lo, u_hi, k_lo, k_hi, samples)
        return cls(name=name, eval=eval, d_u=d_u, d_k=d_k, d_uu=d_uu, d_uk=d_uk,
                   u_lo=u_lo, u_hi=u_hi, k_lo=k_lo, k_hi=k_hi,
                   convexity=convexity, gamma1=gamma1, gamma2=gamma2,
                   sup_fu=sup_fu, sup_fk=sup_fk, sup_fuk=sup_fuk,
                   exact_bounds=False)

    @classmethod
    def from_eval_only(cls, name, eval, u_lo, u_hi, k_lo, k_hi, convexity,
                       samples: int = 1024) -> "FluxModel":
        """Build a model from the flux alone, with finite-difference derivatives.

        The fallback is flagged (`fd_derivatives=True`) because the solver's
        estimates assume smooth derivatives in u.
        """
        hu = 1e-6 * max(1.0, abs(u_hi - u_lo))
        hk = 1e-6 * max(1.0, abs(k_hi - k_lo))
        d_u = lambda k, u: (eval(k, u + hu) - eval(k, u - hu)) / (2 * hu)
        d_k = lambda k, u: (eval(k + hk, u) - eval(k - hk, u)) / (2 * hk)
        d_uu = lambda k, u: (eval(k, u + hu) - 2 * eval(k, u) + eval(k, u - hu)) / hu**2
        d_uk = lambda k, u: (eval(k + hk, u + hu) - eval(k + hk, u - hu)
                             - eval(k - hk, u + hu) + eval(k - hk, u - hu)) / (4 * hu * hk)
        model = cls.from_callables(name, eval, d_u, d_k, d_uu, d_uk,
                                   u_lo, u_hi, k_lo, k_hi, convexity, samples)
        return replace(model, fd_derivatives=True)


def _sample_bounds(d_u, d_k, d_uu, d_uk, u_lo, u_hi, k_lo, k_hi, samples):
    ks = np.linspace(k_lo, k_hi, max(2, samples))
    us = np.linspace(u_lo, u_hi, max(2, samples))
    K, U = np.meshgrid(ks, us, indexing="ij")
    duu = np.abs(d_uu(K, U))
    return (float(np.max(np.abs(d_u(K, U)))),
            float(np.max(np.abs(d_k(K, U)))),
            float(np.max(np.abs(d_uk(K, U)))),
            float(np.min(duu)),
            float(np.max(duu)))


@dataclass(frozen=True)
class Coefficient:
    """Piecewise-smooth k(x) with a finite, sorted set of discontinuities.

    Piece i covers [breaks[i-1], breaks[i]) with constant extension beyond
    the first/last break; `const_values[i]` is set when the piece is constant
    (enabling exact cell averaging).
    """

    breaks: tuple[float, ...]
    funcs: tuple[Callable[[np.ndarray], np.ndarray], ...]
    const_values: tuple[float | None, ...]
    bv_norm: float
    sup_norm: float

    def __post_init__(self):
        if len(self.funcs) != len(self.breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 pieces")
        if any(b2 <= b1 for b1, b2 in zip(self.breaks, self.breaks[1:])):
            raise ValueError("discontinuities must be strictly increasing")
        if self.bv_norm < 0:
            raise ValueError("bv_norm must be nonnegative")

    @classmethod
    def piecewise_constant(cls, breaks: Sequence[float], values: Sequence[float]) -> "Coefficient":
        breaks = tuple(float(b) for b in breaks)
        values = tuple(float(v) for v in values)
        if len(values) != len(breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 values")
        funcs = tuple((lambda x, v=v: np.full_like(np.asarray(x, dtype=float), v)) for v in values)
        bv = float(sum(abs(b - a) for a, b in zip(values, values[1:])))
        return cls(breaks=breaks, funcs=funcs, const_values=values,
                   bv_norm=bv, sup_norm=float(max(abs(v) for v in values)))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        piece = np.searchsorted(self.breaks, x, side="right")  # right-continuous at breaks
        out = np.empty_like(x)
        for i, fn in enumerate(self.funcs):
            on = piece == i
            out[on] = fn(x[on])
        return out if out.ndim else float(out)

    def limits_at(self, x_m: float) -> tuple[float, float]:
        """One-sided limits (left, right) at a discontinuity."""
        i = self.breaks.index(x_m)
        left = self.const_values[i]
        right = self.const_values[i + 1]
        if left is None:
            left = float(self.funcs[i](np.asarray(x_m)))
        if right is None:
            right = float(self.funcs[i + 1](np.asarray(x_m)))
        return left, right


def builtin_multiplicative(k_left: float, k_right: float) -> tuple[FluxModel, Coefficient]:
    """Flux k*u*(1-u) on u in [0, 1] with a two-piece constant coefficient.

    The coefficient jumps from `k_left` (x < 0) to `k_right` (x >= 0).
    The flux vanishes at u = 0 and u = 1 for every k, so the endpoint
    flux-equality assumption holds by construction.
    """
    if k_left <= 0 or k_right <= 0:
        raise ValueError("coefficient values must be positive")
    k_lo, k_hi = min(k_left, k_right), max(k_left, k_right)
    model = FluxModel(
        name="multiplicative",
        eval=lambda k, u: k * u * (1.0 - u),
        d_u=lambda k, u: k * (1.0 - 2.0 * u),
        d_k=lambda k, u: u * (1.0 - u) + 0.0 * k,
        d_uu=lambda k, u: -2.0 * k + 0.0 * u,
        d_uk=lambda k, u: 1.0 - 2.0 * u + 0.0 * k,
        u_lo=0.0, u_hi=1.0, k_lo=k_lo, k_hi=k_hi,
        convexity=Convexity.STRICTLY_CONCAVE,
        gamma1=2.0 * k_lo, gamma2=2.0 * k_hi,
        sup_fu=k_hi, sup_fk=0.25, sup_fuk=1.0,
    )
    coeff = Coefficient.piecewise_constant([0.0], [k_left, k_right])
    return model, coeff


def _two_flux_left(u):
    return 2.0 * u * (1.0 - u) / (1.0 + u)


def _two_flux_right(u):
    return 2.0 * u * (1.0 - u) / (2.0 - u)


def builtin_two_flux_rational() -> tuple[FluxModel, Coefficient]:
    """Two-flux model: 2u(1-u)/(1+u) for x < 0, 2u(1-u)/(2-u) for x >= 0.

    Encoded as the convex combination f(k, u) = k*f_right(u) + (1-k)*f_left(u)
    with k the Heaviside coefficient, so one (k, u) signature covers both
    sides.  Both branches are strictly concave on [0, 1] with second
    derivatives -8/(1+u)^3 and -8/(2-u)^3, giving exact curvature bounds
    gamma1 = 1, gamma2 = 8 and sup |f_u| = 2.  The remaining suprema have no
    closed form and are estimated on a dense grid.
    """
    dl = lambda u: 2.0 * (1.0 - 2.0 * u - u * u) / (1.0 + u) ** 2
    dr = lambda u: 2.0 * (2.0 - 4.0 * u + u * u) / (2.0 - u) ** 2
    ddl = lambda u: -8.0 / (1.0 + u) ** 3
    ddr = lambda u: -8.0 / (2.0 - u) ** 3

    us = np.linspace(0.0, 1.0, 8193)
    sup_fk = float(np.max(np.abs(_two_flux_right(us) - _two_flux_left(us))))
    sup_fuk = float(np.max(np.abs(dr(us) - dl(us))))

    model = FluxModel(
        name="two-flux-rational",
        eval=lambda k, u: k * _two_flux_right(u) + (1.0 - k) * _two_flux_left(u),
        d_u=lambda k, u: k * dr(u) + (1.0 - k) * dl(u),
        d_k=lambda k, u: _two_flux_right(u) - _two_flux_left(u),
        d_uu=lambda k, u: k * ddr(u) + (1.0 - k) * ddl(u),
        d_uk=lambda k, u: dr(u) - dl(u),
        u_lo=0.0, u_hi=1.0, k_lo=0.0, k_hi=1.0,
        convexity=Convexity.STRICTLY_CONCAVE,
        gamma1=1.0, gamma2=8.0,
        sup_fu=2.0, sup_fk=sup_fk, sup_fuk=sup_fuk,
    )
    coeff = Coefficient.piecewise_constant([0.0], [0.0, 1.0])
    return model, coeff


def builtin_burgers_const_k() -> tuple[FluxModel, Coefficient]:
    """Burgers flux k*u^2/2 with k identically 1 on u in [0, 1].

    The constant-coefficient convex reference case used by the one-sided
    decay and curvature-positivity verification suites.
    """
    model = FluxModel(
        name="burgers-const-k",
        eval=lambda k, u: 0.5 * k * u * u,
        d_u=lambda k, u: k * u,
        d_k=lambda k, u: 0.5 * u * u + 0.0 * k,
        d_uu=lambda k, u: k + 0.0 * u,
        d_uk=lambda k, u: u + 0.0 * k,
        u_lo=0.0, u_hi=1.0, k_lo=1.0, k_hi=1.0,
        convexity=Convexity.STRICTLY_CONVEX,
        gamma1=1.0, gamma2=1.0,
        sup_fu=1.0, sup_fk=0.5, sup_fuk=1.0,
    )
    coeff = Coefficient.piecewise_constant([], [1.0])
    return model, coeff


BUILTIN_MODELS = {
    "multiplicative": builtin_multiplicative,
    "two-flux-rational": builtin_two_flux_rational,
    "burgers-const-k": builtin_burgers_const_k,
}


def make_model(name: str, **params) -> tuple[FluxModel, Coefficient]:
    """Instantiate a builtin model by name ("multiplicative" takes k_left/k_right)."""
    if name not in BUILTIN_MODELS:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(BUILTIN_MODELS)}")
    return BUILTIN_MODELS[name](**params)


@dataclass
class HypothesisCheck:
    passed: bool
    worst: float = 0.0
    witness: tuple | None = None


@dataclass
class HypothesisReport:
    """Pass/fail record per structural hypothesis, with the worst violation."""

    checks: dict[str, HypothesisCheck] = field(default_factory=dict)
    fd_derivatives: bool = False

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def __getitem__(self, name: str) -> HypothesisCheck:
        return self.checks[name]


def verify_hypotheses(model: FluxModel, coeff: Coefficient, samples: int) -> HypothesisReport:
    """Numerically check the structural hypotheses on a samples x samples grid.

    H1: coefficient range, H2: sign-definite curvature within [gamma1, gamma2],
    H3: vanishing second k-derivative, H5: flux equality at the interval
    endpoints across k, H7: crossing condition at each coefficient jump.
    Failures are reported, never raised.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    report = HypothesisReport(fd_derivatives=model.fd_derivatives)
    ks = np.linspace(model.k_lo, model.k_hi, samples)
    us = np.linspace(model.u_lo, model.u_hi, samples)
    K, U = np.meshgrid(ks, us, indexing="ij")
    fscale = 1.0 + float(np.max(np.abs(model.eval(K, U))))

    # H1: coefficient values stay inside [k_lo, k_hi].
    worst = 0.0
    witness = None
    lo, hi = (coeff.breaks[0] - 1.0, coeff.breaks[-1] + 1.0) if coeff.breaks else (-1.0, 1.0)
    edges = [lo, *coeff.breaks, hi]
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        xs = np.linspace(a, b - 1e-12 * max(1.0, abs(b)), samples)
        vals = (np.full(samples, coeff.const_values[i]) if coeff.const_values[i] is not None
                else np.asarray(coeff.funcs[i](xs), dtype=float))
        over = float(np.max(np.maximum(vals - model.k_hi, model.k_lo - vals)))
        if over > worst:
            worst, witness = over, (float(xs[np.argmax(np.maximum(vals - model.k_hi, model.k_lo - vals))]),)
    report.checks["H1"] = HypothesisCheck(worst <= 1e-12 * max(1.0, abs(model.k_hi)), worst, witness)

    # H2: f_uu has the declared sign and magnitude within [gamma1, gamma2].
    duu = model.curvature_sign * np.asarray(model.d_uu(K, U), dtype=float)
    tol = 1e-9 * max(1.0, model.gamma2)
    viol = np.maximum.reduce([-duu, model.gamma1 - duu, duu - model.gamma2])
    i_worst = np.unravel_index(np.argmax(viol), viol.shape)
    report.checks["H2"] = HypothesisCheck(float(viol[i_worst]) <= tol, float(viol[i_worst]),
                                          (float(K[i_worst]), float(U[i_worst])))

    # H3: second k-difference of the flux vanishes (k-dependence is affine).
    h = 1e-2 * max(1.0, model.k_hi - model.k_lo)
    d2k = (model.eval(K + h, U) - 2.0 * model.eval(K, U) + model.eval(K - h, U)) / h**2
    bound = 1e-8 * (1.0 + np.abs(model.eval(K, U)))
    excess = np.abs(d2k) - bound
    i_worst = np.unravel_index(np.argmax(excess), excess.shape)
    report.checks["H3"] = HypothesisCheck(float(excess[i_worst]) <= 0.0, float(excess[i_worst]),
                                          (float(K[i_worst]), float(U[i_worst])))

    # H5: flux values at u_lo and u_hi do not depend on k.
    worst = 0.0
    witness = None
    for u_end in (model.u_lo, model.u_hi):
        f_end = np.asarray(model.eval(ks, np.full_like(ks, u_end)), dtype=float)
        spread = float(np.max(f_end) - np.min(f_end))
        if spread > worst:
            worst, witness = spread, (u_end,)
    report.checks["H5"] = HypothesisCheck(worst <= 1e-10 * fscale, worst, witness)

    # H7: at each jump of k, flux differences may only cross from - to +
    # as u increases (scanned over sampled state pairs).
    worst = 0.0
    witness = None
    tol7 = 1e-12 * fscale
    for x_m in coeff.breaks:
        k_minus, k_plus = coeff.limits_at(x_m)
        phi = np.asarray(model.eval(np.full_like(us, k_plus), us)
                         - model.eval(np.full_like(us, k_minus), us), dtype=float)
        prefix_max = np.maximum.accumulate(phi)
        prefix_arg = np.zeros(len(us), dtype=int)
        for i in range(1, len(us)):
            prefix_arg[i] = i if phi[i] >= prefix_max[i - 1] else prefix_arg[i - 1]
        # violation: u1 >= u2 with phi(u1) < 0 < phi(u2)
        bad = np.minimum(-phi, prefix_max)
        i1 = int(np.argmax(bad))
        if float(bad[i1]) > worst:
            worst = float(bad[i1])
            witness = (float(us[i1]), float(us[prefix_arg[i1]]), x_m)
    report.checks["H7"] = HypothesisCheck(worst <= tol7, worst, witness)

    return report

