"""Canned verification scenarios behind `discflux verify` and the acceptance tests.

Each suite runs a fixed-seed scenario and returns the worst margin seen,
where a nonnegative margin (up to the 1e-12 tolerance) means the checked
inequality held everywhere.  Suites that march run `n_steps` snapped down to
an even count, as `march` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import TOL
from .experiments import EXAMPLES, run_experiment
from .flux_model import builtin_burgers_const_k, builtin_multiplicative
from .grid import Mesh, Parity, StaggeredState, cell_average_coefficient
from .limiter import LimiterConfig, LimiterKind
from .schemes import (CflLevel, Scheme, SchemeConfig, cfl_bound, lf_step, march,
                      nt_step, predictor_corrector_step)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    worst_margin: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: {status} (worst margin {self.worst_margin:.3e}; {self.detail})"


def _random_states(n_states: int, mesh: Mesh, coeff, seed: int = 20240817) -> list[StaggeredState]:
    rng = np.random.default_rng(seed)
    kbar = cell_average_coefficient(mesh, coeff, Parity.BASE)
    return [
        StaggeredState(mesh=mesh, values=rng.uniform(0.0, 1.0, mesh.n_cells),
                       kbar=kbar, parity=Parity.BASE, time=0.0, step_index=0)
        for _ in range(n_states)
    ]


def suite_identity(n_states: int = 50) -> SuiteResult:
    """Predictor-corrector form against the direct second-order update."""
    model, coeff = builtin_multiplicative(3.0, 1.0)
    mesh = Mesh.from_cells(-1.0, 1.0, 50)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=1.0 / 30.0)
    worst = 0.0
    for state in _random_states(n_states, mesh, coeff):
        direct, _ = nt_step(state, model, coeff, cfg)
        rearranged = predictor_corrector_step(state, model, coeff, cfg)
        worst = max(worst, float(np.max(np.abs(direct.values - rearranged.values))))
    return SuiteResult("identity", worst <= TOL, TOL - worst,
                       f"max cellwise deviation {worst:.3e} over {n_states} states")


def suite_degeneration(n_states: int = 50) -> SuiteResult:
    """Second-order step with zero slopes against the first-order step."""
    model, coeff = builtin_multiplicative(3.0, 1.0)
    mesh = Mesh.from_cells(-1.0, 1.0, 50)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=1.0 / 30.0,
                       limiter=LimiterConfig(kind=LimiterKind.ZERO))
    worst = 0.0
    for state in _random_states(n_states, mesh, coeff):
        with_zero, corr = nt_step(state, model, coeff, cfg)
        first_order = lf_step(state, model, coeff, cfg.lam)
        worst = max(worst, float(np.max(np.abs(with_zero.values - first_order.values))))
        worst = max(worst, float(np.max(np.abs(corr))))
    return SuiteResult("degeneration", worst <= 1e-15, 1e-15 - worst,
                       f"max deviation {worst:.3e} over {n_states} states")


def suite_maxprinciple() -> SuiteResult:
    """Both examples, both schemes, full runs without diagnostics: values stay in [0, 1]."""
    worst = math.inf
    detail = []
    for ex_id, spec_fn in sorted(EXAMPLES.items()):
        spec = spec_fn()
        t_final = max(spec.output_times)
        for scheme in (Scheme.NESSYAHU_TADMOR, Scheme.LAX_FRIEDRICHS):
            run = run_experiment(spec, scheme, times=(t_final,), collect_diagnostics=False)
            margin = min(run.report.u_min - (0.0 - TOL), (1.0 + TOL) - run.report.u_max)
            worst = min(worst, margin)
            detail.append(f"ex{ex_id}/{scheme.value}: [{run.report.u_min:.3e}, {run.report.u_max:.6f}]")
    return SuiteResult("maxprinciple", worst >= 0.0, worst, "; ".join(detail))


def _burgers_setup(level: CflLevel):
    model, coeff = builtin_burgers_const_k()
    kappa = cfl_bound(model, level)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=kappa / model.sup_fu,
                       cfl_level=level)
    mesh = Mesh.from_cells(0.0, 1.0, 100)
    return model, coeff, cfg, mesh


def suite_onesided(n_states: int = 10, n_steps: int = 100) -> SuiteResult:
    """One-sided jump decay for constant-coefficient convex flux, per step."""
    model, coeff, cfg, mesh = _burgers_setup(CflLevel.ONE_SIDED)
    t_end = n_steps * cfg.lam * mesh.dx
    worst = min(march(state, model, coeff, cfg, t_end)[1].onesided_worst_margin
                for state in _random_states(n_states, mesh, coeff, seed=20240818))
    return SuiteResult("onesided", worst >= -TOL, worst,
                       f"{n_states} states x {n_steps} steps, lam={cfg.lam:.6g}")


def suite_nu(n_states: int = 10, n_steps: int = 100) -> SuiteResult:
    """Curvature coefficient nonnegativity under the strictest CFL level."""
    model, coeff, cfg, mesh = _burgers_setup(CflLevel.CUBIC_ESTIMATE)
    t_end = n_steps * cfg.lam * mesh.dx
    worst = min(march(state, model, coeff, cfg, t_end)[1].nu_min
                for state in _random_states(n_states, mesh, coeff, seed=20240819))
    return SuiteResult("nu", worst >= -TOL, worst,
                       f"{n_states} states x {n_steps} steps, lam={cfg.lam:.6g}")


def suite_entropy() -> SuiteResult:
    """First-order cell entropy inequality on both examples, every step of the LF runs."""
    worst = max(run_experiment(spec_fn(), Scheme.LAX_FRIEDRICHS).report.entropy_max_residual
                for _, spec_fn in sorted(EXAMPLES.items()))
    return SuiteResult("entropy", worst <= TOL, TOL - worst,
                       f"max residual {worst:.3e} over both examples")


def suite_correction(dxs=(1e-2, 1e-3, 1e-4), n_steps: int = 20) -> SuiteResult:
    """Correction-term bound for the modified limiter on steep data."""
    model, coeff = builtin_burgers_const_k()
    lim = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1.0, alpha=0.75)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=0.2, limiter=lim,
                       collect_diagnostics=False)
    worst = math.inf
    for dx in dxs:
        mesh = Mesh.from_cells(0.0, 1.0, round(1.0 / dx))
        kbar = cell_average_coefficient(mesh, coeff, Parity.BASE)
        values = np.where(mesh.centers(Parity.BASE) < 0.5, 1.0, 0.0)
        state = StaggeredState(mesh=mesh, values=values, kbar=kbar,
                               parity=Parity.BASE, time=0.0, step_index=0)
        _, report = march(state, model, coeff, cfg, n_steps * cfg.lam * mesh.dx)
        worst = min(worst, report.correction_bound + TOL - report.correction_max)
    return SuiteResult("correction", worst >= 0.0, worst,
                       f"dx in {list(dxs)}, {n_steps} steps each")


SUITES = {
    "identity": suite_identity,
    "degeneration": suite_degeneration,
    "maxprinciple": suite_maxprinciple,
    "onesided": suite_onesided,
    "nu": suite_nu,
    "entropy": suite_entropy,
    "correction": suite_correction,
}
