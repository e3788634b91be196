"""Canned verification scenarios behind `discflux verify` and the acceptance tests.

Each suite runs a fixed-seed scenario and returns the worst margin seen,
where a nonnegative margin (up to the 1e-12 tolerance) means the checked
inequality held everywhere.  Suites that march run `n_steps` snapped down to
an even count, as `march` does.  A figure that a run did not compute fails.
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


def _uncomputed(name: str, key: str) -> SuiteResult:
    return SuiteResult(name, False, math.nan, f"a run did not compute {key}")


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
    deviations = []
    for state in _random_states(n_states, mesh, coeff):
        direct, _ = nt_step(state, model, coeff, cfg)
        rearranged = predictor_corrector_step(state, model, coeff, cfg)
        deviations.append(np.max(np.abs(direct.values - rearranged.values)))
    worst = float(np.max(deviations))  # a NaN deviation fails: np.max keeps it
    return SuiteResult("identity", worst <= TOL, TOL - worst,
                       f"max cellwise deviation {worst:.3e} over {n_states} states")


def suite_degeneration(n_states: int = 50) -> SuiteResult:
    """Second-order step with zero slopes against the first-order step."""
    model, coeff = builtin_multiplicative(3.0, 1.0)
    mesh = Mesh.from_cells(-1.0, 1.0, 50)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=1.0 / 30.0,
                       limiter=LimiterConfig(kind=LimiterKind.ZERO))
    deviations = []
    for state in _random_states(n_states, mesh, coeff):
        with_zero, corr = nt_step(state, model, coeff, cfg)
        first_order = lf_step(state, model, coeff, cfg.lam)
        deviations += [np.max(np.abs(with_zero.values - first_order.values)), np.max(np.abs(corr))]
    worst = float(np.max(deviations))
    return SuiteResult("degeneration", worst <= 1e-15, 1e-15 - worst,
                       f"max deviation {worst:.3e} over {n_states} states")


def suite_maxprinciple() -> SuiteResult:
    """Both examples, both schemes, full runs without diagnostics: values stay in [0, 1]."""
    margins, detail = [], []
    for ex_id, spec_fn in sorted(EXAMPLES.items()):
        spec = spec_fn()
        t_final = max(spec.output_times)
        for scheme in (Scheme.NESSYAHU_TADMOR, Scheme.LAX_FRIEDRICHS):
            run = run_experiment(spec, scheme, times=(t_final,), collect_diagnostics=False)
            margins += [run.report.u_min - (0.0 - TOL), (1.0 + TOL) - run.report.u_max]
            detail.append(f"ex{ex_id}/{scheme.value}: [{run.report.u_min:.3e}, {run.report.u_max:.6f}]")
    worst = float(np.min(margins))  # a NaN extreme fails: np.min keeps it, Python's min skips it
    return SuiteResult("maxprinciple", worst >= 0.0, worst, "; ".join(detail))


def _burgers_setup(level: CflLevel):
    model, coeff = builtin_burgers_const_k()
    kappa = cfl_bound(model, level)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=kappa / model.sup_fu,
                       cfl_level=level)
    mesh = Mesh.from_cells(0.0, 1.0, 100)
    return model, coeff, cfg, mesh


def _burgers_suite(name: str, level: CflLevel, key: str, seed: int, n_states: int,
                   n_steps: int) -> SuiteResult:
    """The least `key` of the reports of marches from seeded random states, judged >= -TOL."""
    model, coeff, cfg, mesh = _burgers_setup(level)
    t_end = n_steps * cfg.lam * mesh.dx
    margins = [getattr(march(state, model, coeff, cfg, t_end)[1], key)
               for state in _random_states(n_states, mesh, coeff, seed=seed)]
    if None in margins:
        return _uncomputed(name, key)
    worst = float(np.min(margins))
    return SuiteResult(name, worst >= -TOL, worst,
                       f"{n_states} states x {n_steps} steps, lam={cfg.lam:.6g}")


def suite_onesided(n_states: int = 10, n_steps: int = 100) -> SuiteResult:
    """One-sided jump decay for constant-coefficient convex flux, per step."""
    return _burgers_suite("onesided", CflLevel.ONE_SIDED, "onesided_worst_margin", 20240818,
                          n_states, n_steps)


def suite_nu(n_states: int = 10, n_steps: int = 100) -> SuiteResult:
    """Curvature coefficient nonnegativity under the strictest CFL level."""
    return _burgers_suite("nu", CflLevel.CUBIC_ESTIMATE, "nu_min", 20240819, n_states, n_steps)


def suite_entropy() -> SuiteResult:
    """First-order cell entropy inequality on both examples, every step of the LF runs."""
    residuals = [run_experiment(spec_fn(), Scheme.LAX_FRIEDRICHS).report.entropy_max_residual
                 for _, spec_fn in sorted(EXAMPLES.items())]
    if None in residuals:
        return _uncomputed("entropy", "entropy_max_residual")
    worst = float(np.max(residuals))  # a NaN residual fails: np.max keeps it
    return SuiteResult("entropy", worst <= TOL, TOL - worst,
                       f"max residual {worst:.3e} over both examples")


def suite_correction(dxs=(1e-2, 1e-3, 1e-4), n_steps: int = 20) -> SuiteResult:
    """Correction-term bound for the modified limiter on steep data."""
    model, coeff = builtin_burgers_const_k()
    lim = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1.0, alpha=0.75)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=0.2, limiter=lim,
                       collect_diagnostics=False)
    margins = []
    for dx in dxs:
        mesh = Mesh.from_cells(0.0, 1.0, round(1.0 / dx))
        kbar = cell_average_coefficient(mesh, coeff, Parity.BASE)
        values = np.where(mesh.centers(Parity.BASE) < 0.5, 1.0, 0.0)
        state = StaggeredState(mesh=mesh, values=values, kbar=kbar,
                               parity=Parity.BASE, time=0.0, step_index=0)
        _, report = march(state, model, coeff, cfg, n_steps * cfg.lam * mesh.dx)
        if report.correction_max is None:
            return _uncomputed("correction", "correction_max")
        margins.append(report.correction_bound + TOL - report.correction_max)
    worst = float(np.min(margins))  # a NaN margin fails, as in suite_maxprinciple
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
