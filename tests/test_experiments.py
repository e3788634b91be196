import math

import numpy as np
import pytest

from discflux import (ExperimentSpec, InitialData, Mesh, Parity, Scheme,
                      StaggeredState, cfl_bound, CflLevel, example_1, example_2,
                      l1_error, refinement_study, run_experiment)


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
