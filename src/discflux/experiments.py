"""Canned experiment setups, reference runs, L1 errors, refinement studies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .diagnostics import DiagnosticsReport
from .flux_model import Coefficient, FluxModel, make_model
from .grid import Mesh, Parity, StaggeredState, initial_state
from .limiter import LimiterConfig
from .schemes import CflLevel, Scheme, SchemeConfig, march, snap_steps


@dataclass(frozen=True)
class InitialData:
    """Initial profile with its jump locations (for exact cell averaging)."""

    fn: Callable[[np.ndarray], np.ndarray]
    jumps: tuple[float, ...] = ()

    @classmethod
    def constant(cls, value: float) -> "InitialData":
        return cls(fn=lambda x: np.full_like(np.asarray(x, dtype=float), value))

    @classmethod
    def step(cls, left: float, right: float, at: float = 0.0) -> "InitialData":
        return cls(fn=lambda x: np.where(np.asarray(x) <= at, left, right), jumps=(at,))


def _whole_count(length: float, step: float) -> int:
    """round(length / step) if that ratio is whole to within 1e-9, else 0."""
    n = length / step
    return round(n) if math.isfinite(n) and abs(n - round(n)) <= 1e-9 else 0


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun one experiment: problem, mesh and scheme settings.

    With `k_tilde_auto` the modified limiter's cap is 2*C_u0*dx^(-alpha) on
    each mesh it runs on, which reduces it to plain minmod there.
    """

    name: str
    model_name: str
    model_params: dict = field(default_factory=dict)
    x_min: float = -1.0
    x_max: float = 1.0
    dx: float = 0.04
    lam: float = 1.0 / 30.0
    u0: InitialData = field(default_factory=lambda: InitialData.constant(0.0))
    output_times: tuple[float, ...] = ()
    reference_dx: float = 0.002
    limiter: LimiterConfig = field(default_factory=LimiterConfig)
    k_tilde_auto: bool = False
    cfl_level: CflLevel = CflLevel.MAX_PRINCIPLE
    window_x: float | None = None

    def __post_init__(self):
        if any(t < 0 for t in self.output_times):
            raise ValueError("output times must be nonnegative")
        if not all(0 < v < math.inf for v in (self.dx, self.reference_dx, self.lam)):
            raise ValueError("dx, reference_dx and lam must be positive and finite")
        if _whole_count(self.x_max - self.x_min, self.dx) < 1:
            raise ValueError(f"dx = {self.dx!r} does not tile [{self.x_min!r}, {self.x_max!r}]")
        if _whole_count(self.dx, self.reference_dx) < 1:
            raise ValueError("reference_dx must divide dx (nested grids)")

    def build(self) -> tuple[FluxModel, Coefficient]:
        return make_model(self.model_name, **self.model_params)

    def mesh(self, dx: float | None = None) -> Mesh:
        dx = self.dx if dx is None else dx
        n = round((self.x_max - self.x_min) / dx)
        return Mesh.from_cells(self.x_min, self.x_max, n)

    def initial(self, mesh: Mesh, coeff: Coefficient) -> StaggeredState:
        return initial_state(mesh, coeff, self.u0.fn, jumps=self.u0.jumps)


def example_1() -> ExperimentSpec:
    """Multiplicative flux k*u*(1-u), k jumping 3 -> 1 at x = 0, u0 = 0.15."""
    return ExperimentSpec(
        name="example-1",
        model_name="multiplicative",
        model_params={"k_left": 3.0, "k_right": 1.0},
        x_min=-1.0, x_max=1.0,
        dx=2.0 / 50.0,
        lam=(1.0 / 750.0) / (2.0 / 50.0),
        u0=InitialData.constant(0.15),
        output_times=(0.8, 1.6),
        reference_dx=2.0 / 1000.0,
    )


def example_2() -> ExperimentSpec:
    """Two-flux rational model with a Riemann initial profile 0.9 / 0.2."""
    return ExperimentSpec(
        name="example-2",
        model_name="two-flux-rational",
        x_min=-4.0, x_max=4.0,
        dx=8.0 / 50.0,
        lam=0.008 / (8.0 / 50.0),
        u0=InitialData.step(0.9, 0.2, at=0.0),
        output_times=(1.0, 2.0),
        reference_dx=8.0 / 2000.0,
    )


EXAMPLES = {1: example_1, 2: example_2}


@dataclass
class ExperimentRun:
    spec: ExperimentSpec
    scheme: Scheme
    states: dict[float, StaggeredState]
    final: StaggeredState
    report: DiagnosticsReport


def run_experiment(spec: ExperimentSpec, scheme: Scheme, dx: float | None = None,
                   times: tuple[float, ...] | None = None,
                   collect_diagnostics: bool = True, *, report: bool = True) -> ExperimentRun:
    """March one scheme through all requested output times in a single run.

    Each time maps to the state at its even-step snap (the initial state when
    that is step 0).  Initial averages outside [u_lo, u_hi], NaN included, are
    refused with ValueError: the estimates hold only inside the model box.
    `report` False says that nothing reads the run's report (see `march`).
    """
    model, coeff = spec.build()
    mesh = spec.mesh(dx)
    state0 = spec.initial(mesh, coeff)
    if not np.all((state0.values >= model.u_lo) & (state0.values <= model.u_hi)):
        raise ValueError(f"initial data leaves [{model.u_lo!r}, {model.u_hi!r}]")
    limiter = spec.limiter
    if spec.k_tilde_auto:
        limiter = replace(limiter, k_tilde=2.0 * model.c_u0 * mesh.dx**-limiter.alpha)
    cfg = SchemeConfig(scheme=scheme, lam=spec.lam, limiter=limiter,
                       cfl_level=spec.cfl_level, collect_diagnostics=collect_diagnostics,
                       window_x=spec.window_x)
    times = spec.output_times if times is None else times
    steps = {t: snap_steps(0.0, t, cfg.lam * mesh.dx) for t in times}
    snapshots = dict.fromkeys(steps.values())
    t_final = max(times) if times else 0.0
    final, rep = march(state0, model, coeff, cfg, t_final, snapshots=snapshots, report=report)
    states = {t: snapshots[n] for t, n in steps.items()}
    return ExperimentRun(spec=spec, scheme=scheme, states=states, final=final, report=rep)


def l1_error(coarse: StaggeredState, reference: StaggeredState) -> float:
    """L1 distance of a coarse state from a nested fine reference.

    The coarse solution is treated as piecewise constant; the error is
    dx_ref * sum |u_ref - u_coarse(cell containing x_ref)| over reference
    cells.  Grids must be nested and both states on Base parity, at times
    within one coarse cell width dx of each other.
    """
    cm, rm = coarse.mesh, reference.mesh
    if coarse.parity is not Parity.BASE or reference.parity is not Parity.BASE:
        raise ValueError("l1_error compares Base-parity states")
    ratio = cm.dx / rm.dx
    if abs(ratio - round(ratio)) > 1e-9 or abs(cm.x_min - rm.x_min) > 1e-12 \
            or abs(cm.x_max - rm.x_max) > 1e-12:
        raise ValueError("grids are not nested")
    if abs(coarse.time - reference.time) > cm.dx + 1e-12:
        raise ValueError("states are too far apart in time to compare")
    xr = rm.centers(Parity.BASE)
    idx = np.clip(np.floor((xr - cm.x_min) / cm.dx + 1e-12).astype(int), 0, cm.n_cells - 1)
    return float(rm.dx * np.sum(np.abs(reference.values - coarse.values[idx])))


@dataclass(frozen=True)
class ErrorRow:
    dx: float
    scheme: str
    time: float
    l1_error: float
    observed_order: float | None = None


@dataclass
class ErrorTable:
    rows: list[ErrorRow] = field(default_factory=list)

    def to_csv_text(self) -> str:
        lines = ["dx,scheme,time,l1_error,observed_order"]
        for r in self.rows:
            order = "" if r.observed_order is None else f"{r.observed_order:.16e}"
            lines.append(f"{r.dx:.16e},{r.scheme},{r.time:.16e},{r.l1_error:.16e},{order}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv_text())


def reference_run(spec: ExperimentSpec, times: tuple[float, ...] | None = None, *,
                  report: bool = True) -> ExperimentRun:
    """Fine-grid first-order reference solution (diagnostics off for speed)."""
    return run_experiment(spec, Scheme.LAX_FRIEDRICHS, dx=spec.reference_dx,
                          times=times, collect_diagnostics=False, report=report)


def refinement_study(spec: ExperimentSpec, scheme: Scheme, halvings: int,
                     time: float | None = None,
                     reference: ExperimentRun | None = None) -> ErrorTable:
    """Errors and observed orders across successive mesh halvings.

    Runs the scheme at dx, dx/2, ..., dx/2^(halvings-1) against the
    first-order fine reference; the reference mesh must nest every level.
    Orders are log2(e_i / e_{i+1}); the finest row is left blank.  Only the
    states are read, so no march it runs fills a report.
    """
    if halvings < 2:
        raise ValueError("halvings must be >= 2")
    t = spec.output_times[0] if time is None else time
    if reference is None:
        reference = reference_run(spec, times=(t,), report=False)
    ref_state = reference.states[t]
    runs = []
    for i in range(halvings):
        run = run_experiment(spec, scheme, dx=spec.dx / 2**i, times=(t,),
                             collect_diagnostics=False, report=False)
        state = run.states[t]
        runs.append((spec.dx / 2**i, state.time, l1_error(state, ref_state)))
    table = ErrorTable()
    for i, (dx, at, err) in enumerate(runs):
        order = None
        if i + 1 < len(runs) and runs[i + 1][2] > 0:
            order = math.log2(err / runs[i + 1][2])
        table.rows.append(ErrorRow(dx=dx, scheme=scheme.value, time=at,
                                   l1_error=err, observed_order=order))
    return table
