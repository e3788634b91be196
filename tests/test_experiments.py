import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import discflux.experiments as experiments
from discflux import (ExperimentSpec, InitialData, LimiterConfig, LimiterKind, Mesh, Parity,
                      Scheme, SchemeConfig, StaggeredState, cfl_bound, CflLevel, example_1,
                      example_2, l1_error, lf_step, march, nt_step, refinement_study,
                      run_experiment, snap_steps)
from discflux import ErrorRow, ErrorTable, reference_run


class TestExample1:
    def test_parameters(self):
        spec = example_1()
        assert spec.lam == pytest.approx(1 / 30, rel=1e-15)
        assert spec.dx == pytest.approx(0.04)
        assert (spec.x_min, spec.x_max) == (-1.0, 1.0)
        assert spec.output_times == (0.8, 1.6)
        assert spec.mesh(spec.reference_dx).n_cells == 1000

    def test_constant_initial_value(self):
        spec = example_1()
        assert np.all(spec.u0.fn(np.linspace(-1, 1, 7)) == 0.15)

    def test_within_max_principle_cfl(self):
        spec = example_1()
        model, _ = spec.build()
        assert spec.lam * model.sup_fu == pytest.approx(0.1, rel=1e-12)
        assert spec.lam * model.sup_fu <= cfl_bound(model, CflLevel.MAX_PRINCIPLE)


class TestExample2:
    def test_parameters(self):
        spec = example_2()
        assert spec.lam == pytest.approx(0.05, rel=1e-15)
        assert spec.dx == pytest.approx(0.16)
        assert (spec.x_min, spec.x_max) == (-4.0, 4.0)
        assert spec.mesh(spec.reference_dx).n_cells == 2000

    def test_riemann_initial_values(self):
        spec = example_2()
        assert spec.u0.fn(np.array([-1.0]))[0] == 0.9
        assert spec.u0.fn(np.array([1.0]))[0] == 0.2

    def test_within_max_principle_cfl(self):
        spec = example_2()
        model, _ = spec.build()
        assert spec.lam * model.sup_fu == pytest.approx(0.1, rel=1e-12)


def constant_spec():
    return ExperimentSpec(
        name="constant", model_name="burgers-const-k",
        x_min=0.0, x_max=1.0, dx=1 / 16, lam=0.1,
        u0=InitialData.constant(0.3), output_times=(0.5,),
        reference_dx=1 / 128)


class TestL1Error:
    def test_identical_states_zero(self):
        spec = constant_spec()
        run = run_experiment(spec, Scheme.LAX_FRIEDRICHS, times=(0.5,))
        assert l1_error(run.states[0.5], run.states[0.5]) == 0.0

    def test_constant_offset(self):
        mesh_c = Mesh.from_cells(0.0, 1.0, 4)
        mesh_r = Mesh.from_cells(0.0, 1.0, 16)
        eps = 0.125
        coarse = StaggeredState(mesh=mesh_c, values=np.full(4, 0.5), kbar=np.ones(4),
                                parity=Parity.BASE, time=0.0, step_index=0)
        ref = StaggeredState(mesh=mesh_r, values=np.full(16, 0.5 + eps), kbar=np.ones(16),
                             parity=Parity.BASE, time=0.0, step_index=0)
        assert l1_error(coarse, ref) == pytest.approx(eps * 1.0, rel=1e-14)

    def test_non_nested_rejected(self):
        mesh_c = Mesh.from_cells(0.0, 1.0, 5)
        mesh_r = Mesh.from_cells(0.0, 1.0, 12)
        coarse = StaggeredState(mesh=mesh_c, values=np.zeros(5), kbar=np.ones(5),
                                parity=Parity.BASE, time=0.0, step_index=0)
        ref = StaggeredState(mesh=mesh_r, values=np.zeros(12), kbar=np.ones(12),
                             parity=Parity.BASE, time=0.0, step_index=0)
        with pytest.raises(ValueError):
            l1_error(coarse, ref)

    def test_time_gap_rejected(self):
        spec = constant_spec()
        early = run_experiment(spec, Scheme.LAX_FRIEDRICHS, times=(0.0,))
        late = run_experiment(spec, Scheme.LAX_FRIEDRICHS, times=(0.5,), dx=spec.reference_dx)
        with pytest.raises(ValueError):
            l1_error(early.states[0.0], late.states[0.5])


class TestRunExperiment:
    def test_snapshots_and_final(self):
        spec = example_2()
        run = run_experiment(spec, Scheme.NESSYAHU_TADMOR, times=(0.0, 1.0))
        assert run.states[0.0].time == 0.0
        assert run.states[1.0].time == pytest.approx(0.992, rel=1e-12)
        assert run.final.parity is Parity.BASE
        assert run.report.kappa_used == pytest.approx(0.1)

    def test_time_short_of_two_steps_maps_to_the_initial_state(self):
        spec = constant_spec()  # dt = 0.00625, so t = 0.01 snaps to step 0
        run = run_experiment(spec, Scheme.LAX_FRIEDRICHS, times=(0.01, 0.5))
        assert run.states[0.01].step_index == 0 and run.states[0.01].time == 0.0
        assert run.states[0.5].step_index == 80

    def test_spec_validates_nesting(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="bad", model_name="burgers-const-k",
                           dx=0.1, reference_dx=0.04, output_times=(1.0,))

    @pytest.mark.parametrize("dx", [0.03, 0.0, -0.04, math.nan])
    def test_run_refuses_a_dx_that_does_not_tile_the_domain(self, dx):
        # 2 / 0.03 is not whole: this run marched 67 cells of 0.029850746268656716
        with pytest.raises(ValueError, match="does not tile"):
            run_experiment(example_1(), Scheme.LAX_FRIEDRICHS, dx=dx, times=(0.1,))

    @pytest.mark.parametrize("dx", [2e-12, 2.0 / (2 * experiments._MAX_CELLS)])
    def test_a_mesh_of_more_than_max_cells_is_refused(self, dx):
        # example_1().mesh(2e-12) built a Mesh of 1e12 cells, whose march would not fit
        with pytest.raises(ValueError, match="more than"):
            example_1().mesh(dx)
        with pytest.raises(ValueError, match="more than"):
            dataclasses.replace(example_1(), dx=dx, reference_dx=dx)
        assert example_1().mesh(2.0 / experiments._MAX_CELLS).n_cells == experiments._MAX_CELLS

    def test_a_reference_mesh_of_more_than_max_cells_is_refused_by_name(self):
        # the spec bounded the cells of dx only, so a reference_dx this fine was refused later,
        # when its mesh was built, under the name dx
        with pytest.raises(ValueError, match=r"^reference_dx = .* more than"):
            dataclasses.replace(example_1(), reference_dx=example_1().dx / 2**30)
        fine = dataclasses.replace(example_1(), reference_dx=2.0 / experiments._MAX_CELLS)
        assert fine.mesh(fine.reference_dx).n_cells == experiments._MAX_CELLS

    @pytest.mark.parametrize("example, cells", [(example_1, 1000), (example_2, 2000)])
    def test_study_levels_and_reference_tile_the_domain(self, example, cells):
        spec = dataclasses.replace(example(), reference_dx=example().dx / 8)
        assert [spec.mesh(spec.dx / 2**i).n_cells for i in range(4)] == [50, 100, 200, 400]
        table = refinement_study(spec, Scheme.NESSYAHU_TADMOR, 4, times=(0.1,))
        assert [row.dx for row in table.rows] == [spec.dx / 2**i for i in range(4)]
        assert reference_run(example(), times=(0.01,)).final.mesh.n_cells == cells

    @pytest.mark.parametrize("bad", [
        {"dx": 0.0}, {"dx": -0.04}, {"reference_dx": 0.0}, {"lam": 0.0}, {"lam": math.inf},
        {"x_max": math.inf}, {"x_max": math.nan},
        {"x_max": 1e300, "dx": 1e-300, "reference_dx": 1e-300}],  # inf cells
        ids=["dx-0", "dx-negative", "reference_dx-0", "lam-0", "lam-inf", "x_max-inf",
             "x_max-nan", "cells-overflow"])
    def test_spec_refuses_values_outside_its_range(self, bad):
        with pytest.raises(ValueError):
            ExperimentSpec(name="bad", model_name="burgers-const-k", **bad)


class TestRefinementStudy:
    def test_constant_data_has_zero_error(self):
        table = refinement_study(constant_spec(), Scheme.NESSYAHU_TADMOR, halvings=2)
        assert all(row.l1_error == 0.0 for row in table.rows)
        assert table.rows[-1].observed_order is None

    def test_halvings_validated(self):
        with pytest.raises(ValueError):
            refinement_study(constant_spec(), Scheme.NESSYAHU_TADMOR, halvings=1)

    def test_a_reference_that_does_not_nest_the_finest_level_is_refused_up_front(self,
                                                                                 monkeypatch):
        # dx / 512 nests 10 halvings, not 12: each march ran before l1_error refused the grids;
        # a reference run given is checked by its own mesh
        spec = dataclasses.replace(example_1(), reference_dx=example_1().dx / 512)
        given = reference_run(dataclasses.replace(spec, reference_dx=spec.dx / 4), times=(0.1,))

        def marched(*args, **kwargs):
            raise AssertionError("a march ran before the reference was checked")

        monkeypatch.setattr(experiments, "run_experiment", marched)
        with pytest.raises(ValueError, match=r"reference_dx = 7\.8125e-05 .* dx = 1\.953125e-05"):
            refinement_study(spec, Scheme.NESSYAHU_TADMOR, 12)
        with pytest.raises(ValueError, match=r"reference_dx = 0\.01 .* dx = 0\.005"):
            refinement_study(spec, Scheme.NESSYAHU_TADMOR, 4, times=(0.1,), reference=given)

    def test_example_1_first_order_scheme(self, ex1_reference):
        # errors decrease; orders recorded (discontinuous solution keeps them
        # near or below 1, depressed further by the first-order reference)
        table = refinement_study(example_1(), Scheme.LAX_FRIEDRICHS, halvings=3,
                                 reference=ex1_reference)
        errs = [row.l1_error for row in table.rows]
        assert errs[0] > errs[1] > errs[2] > 0
        orders = [row.observed_order for row in table.rows[:-1]]
        assert all(o > 0 for o in orders)
        print("first-order observed orders:", [f"{o:.3f}" for o in orders])

    def test_csv_format(self):
        table = refinement_study(constant_spec(), Scheme.NESSYAHU_TADMOR, halvings=2)
        lines = table.to_csv_text().strip().split("\n")
        assert lines[0] == "dx,scheme,time,l1_error,observed_order"
        assert len(lines) == 3
        assert lines[2].endswith(",")  # blank order on the finest row

    def test_example_2_errors_decrease_for_both_schemes(self, ex2_reference):
        spec = example_2()
        for scheme in Scheme:
            table = refinement_study(spec, scheme, halvings=2, reference=ex2_reference)
            errs = [row.l1_error for row in table.rows]
            assert errs[0] > errs[1] > 0


class TestRefinementStudyReadsNoReport:
    @pytest.mark.parametrize("given_reference", [False, True])
    def test_every_march_runs_without_report(self, monkeypatch, given_reference):
        spec = dataclasses.replace(example_1(), reference_dx=0.01)
        reference = reference_run(spec, times=(0.8,)) if given_reference else None
        switches = []
        real = experiments.march

        def march(*args, **kwargs):
            switches.append(kwargs.get("report", True))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "march", march)
        table = refinement_study(spec, Scheme.NESSYAHU_TADMOR, 2, reference=reference)
        assert switches == [False] * (2 if given_reference else 3)
        assert table.to_csv_text() == _study_with_reports(spec, reference).to_csv_text()


def _study_with_reports(spec, reference):
    """`refinement_study` of 2 halvings as it was when every march filled its report."""
    reference = reference or reference_run(spec, times=(0.8,))
    rows = []
    for i in range(2):
        state = run_experiment(spec, Scheme.NESSYAHU_TADMOR, dx=spec.dx / 2**i, times=(0.8,),
                               collect_diagnostics=False).states[0.8]
        rows.append((spec.dx / 2**i, state.time, l1_error(state, reference.states[0.8])))
    orders = [math.log2(rows[0][2] / rows[1][2]), None]
    return ErrorTable([ErrorRow(dx=dx, scheme=Scheme.NESSYAHU_TADMOR.value, time=at,
                                l1_error=err, observed_order=order)
                       for (dx, at, err), order in zip(rows, orders)])


class TestAccuracyOrdering:
    @pytest.mark.parametrize("example", [1, 2])
    def test_second_order_wins_at_every_output_time(self, example, ex1_reference,
                                                    ex2_reference):
        spec = (example_1 if example == 1 else example_2)()
        reference = ex1_reference if example == 1 else ex2_reference
        for t in spec.output_times:
            errs = {}
            for scheme in Scheme:
                run = run_experiment(spec, scheme, times=(t,), collect_diagnostics=False)
                errs[scheme] = l1_error(run.states[t], reference.states[t])
            assert errs[Scheme.NESSYAHU_TADMOR] < errs[Scheme.LAX_FRIEDRICHS]


def _run_by_hand(spec, scheme, dx, times, collect_diagnostics):
    """`run_experiment` by hand: a plain march to the last time for the final state and
    the report, and the states at the requested times from chained public steps."""
    model, coeff = spec.build()
    mesh = spec.mesh(dx)
    state0 = spec.initial(mesh, coeff)
    limiter = spec.limiter
    if spec.k_tilde_auto:
        limiter = dataclasses.replace(limiter, k_tilde=2.0 * model.c_u0 * mesh.dx**-limiter.alpha)
    cfg = SchemeConfig(scheme=scheme, lam=spec.lam, limiter=limiter, cfl_level=spec.cfl_level,
                       collect_diagnostics=collect_diagnostics, window_x=spec.window_x)
    steps = {t: snap_steps(0.0, t, cfg.lam * mesh.dx) for t in times}
    t_final = max(times) if times else 0.0
    final, report = march(state0, model, coeff, cfg, t_final)
    chained = [state0]  # the public steps, which march does not call
    for _ in range(report.steps):
        chained.append(nt_step(chained[-1], model, coeff, cfg)[0]
                       if scheme is Scheme.NESSYAHU_TADMOR
                       else lf_step(chained[-1], model, coeff, cfg.lam, cfg.cfl_level))
    return {t: chained[n] for t, n in steps.items()}, final, report


class OwnKbarSpec(ExperimentSpec):
    """A spec whose initial state brings its own kbar (the run's, reversed), which `march`
    refuses."""

    def initial(self, mesh, coeff):
        state = super().initial(mesh, coeff)
        return dataclasses.replace(state, kbar=state.kbar[::-1].copy())


def _state_bytes(state):
    return (state.mesh, state.parity, state.step_index, np.float64(state.time).tobytes(),
            state.values.tobytes(), np.asarray(state.kbar).tobytes())


class TestSnapshotsEqualChainedSteps:
    @given(st.sampled_from([example_1, example_2]), st.sampled_from(list(Scheme)),
           st.sampled_from(list(LimiterKind)), st.booleans(), st.booleans(), st.booleans(),
           st.integers(min_value=2, max_value=40),
           st.lists(st.one_of(st.just(0.0), st.tuples(st.integers(0, 12), st.floats(0.0, 0.99))),
                    min_size=1, max_size=6),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_states_and_report_bitwise(self, example, scheme, kind, k_tilde_auto, diagnostics,
                                       own_kbar, n_cells, drawn, left, right):
        base = example()
        spec = (OwnKbarSpec if own_kbar else ExperimentSpec)(**{
            **{f.name: getattr(base, f.name) for f in dataclasses.fields(base)},
            "u0": InitialData.step(left, right, at=0.1),
            "limiter": LimiterConfig(kind=kind, k_tilde=0.7), "k_tilde_auto": k_tilde_auto})
        dx = (spec.x_max - spec.x_min) / n_cells
        dt = spec.lam * dx
        # 0.0, repeated times, and times that snap to one even step (k and k + 1)
        times = tuple(0.0 if t == 0.0 else (t[0] + t[1]) * dt for t in drawn)
        if own_kbar:
            with pytest.raises(ValueError, match="kbar"):
                run_experiment(spec, scheme, dx=dx, times=times, collect_diagnostics=diagnostics)
            return
        run = run_experiment(spec, scheme, dx=dx, times=times, collect_diagnostics=diagnostics)
        states, final, report = _run_by_hand(spec, scheme, dx, times, diagnostics)
        assert run.states.keys() == states.keys()
        for t, state in states.items():
            assert _state_bytes(run.states[t]) == _state_bytes(state)
        assert _state_bytes(run.final) == _state_bytes(final)
        assert json.dumps(run.report.to_json_dict()) == json.dumps(report.to_json_dict())
