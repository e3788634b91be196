import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import discflux.diagnostics as diagnostics
import discflux.schemes as schemes
from discflux import (CflError, CflLevel, Coefficient, Convexity, ExperimentSpec, FluxModel,
                      InitialData, LimiterConfig, LimiterKind, Mesh, Parity, Scheme,
                      SchemeConfig, StaggeredState, builtin_burgers_const_k,
                      builtin_multiplicative, builtin_two_flux_rational,
                      cell_average_coefficient, cfl_bound, extend_absorbing,
                      initial_state, lf_step, march, mid_time_values, nt_step,
                      example_1, example_2, predictor_corrector_step, run_experiment,
                      slopes, snap_steps)
from discflux.cli import load_config


def flat_k_model(flux, d_u, d_uu=None, sup_fu=1.0, gamma=(1.0, 1.0),
                 convexity=Convexity.STRICTLY_CONCAVE):
    """Constant-coefficient model wrapper for hand-checkable step values."""
    model = FluxModel(
        name="test-flux",
        eval=lambda k, u: flux(u) + 0.0 * k,
        d_u=lambda k, u: d_u(u) + 0.0 * k,
        d_k=lambda k, u: 0.0 * (k + u),
        d_uu=(lambda k, u: d_uu(u) + 0.0 * k) if d_uu else (lambda k, u: 0.0 * (k + u) - 2.0),
        d_uk=lambda k, u: 0.0 * (k + u),
        u_lo=0.0, u_hi=1.0, k_lo=1.0, k_hi=1.0,
        convexity=convexity, gamma1=gamma[0], gamma2=gamma[1],
        sup_fu=sup_fu, sup_fk=0.0, sup_fuk=0.0,
    )
    return model, Coefficient.piecewise_constant([], [1.0])


def base_state(values, coeff, x_min=0.0, x_max=None):
    values = np.asarray(values, dtype=float)
    x_max = float(len(values)) if x_max is None else x_max
    mesh = Mesh.from_cells(x_min, x_max, len(values))
    return StaggeredState(mesh=mesh, values=values,
                          kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                          parity=Parity.BASE, time=0.0, step_index=0)


class TestCflBound:
    def test_max_principle_value(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        assert cfl_bound(model, CflLevel.MAX_PRINCIPLE) == pytest.approx(
            (math.sqrt(2) - 1) / 2, rel=1e-15)

    def test_one_sided_multiplicative(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        assert cfl_bound(model, CflLevel.ONE_SIDED) == pytest.approx(1 / 22500, rel=1e-12)

    def test_one_sided_burgers(self):
        model, _ = builtin_burgers_const_k()
        assert cfl_bound(model, CflLevel.ONE_SIDED) == pytest.approx(1 / 7500, rel=1e-12)

    def test_cubic_estimate_burgers(self):
        # chi = 228 + 13 + 174 + 12 = 427; 1/7500 still binds
        model, _ = builtin_burgers_const_k()
        assert cfl_bound(model, CflLevel.CUBIC_ESTIMATE) == pytest.approx(
            min(1 / 7500, 1 / 4000, 7 / 101, 1 / 427), rel=1e-12)

    def test_manual_is_unbounded(self):
        model, _ = builtin_burgers_const_k()
        assert cfl_bound(model, CflLevel.MANUAL) == math.inf

    def test_violation_raises_with_kappas(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        state = base_state([0.1, 0.2, 0.3], coeff)
        with pytest.raises(CflError) as err:
            lf_step(state, model, coeff, lam=0.5)
        assert err.value.kappa_used == pytest.approx(1.5)
        assert "kappa_bound" in str(err.value)

    def test_nan_kappa_used_is_refused(self):
        # `nan > bound` is False: a model whose sampled sup|f_u| is NaN marched unchecked
        model = FluxModel.from_callables(
            "nan-d_u", lambda k, u: k * u * (1 - u),
            lambda k, u: np.where(u == 0.5, math.nan, k * (1 - 2 * u)),
            lambda k, u: u * (1 - u), lambda k, u: -2.0 * k + 0.0 * u,
            lambda k, u: 1 - 2 * u, 0.0, 1.0, 1.0, 1.0, Convexity.STRICTLY_CONCAVE, samples=5)
        assert math.isnan(model.sup_fu)
        for level in (CflLevel.MAX_PRINCIPLE, CflLevel.ONE_SIDED, CflLevel.CUBIC_ESTIMATE):
            with pytest.raises(CflError):
                schemes._check_cfl(model, 0.1, level)
        kappa_used, kappa = schemes._check_cfl(model, 0.1, CflLevel.MANUAL)  # never checked
        assert math.isnan(kappa_used) and kappa == math.inf


class TestLfStep:
    def test_constant_state_preserved(self):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.3] * 5, coeff)
        out = lf_step(state, model, coeff, lam=0.1)
        assert np.all(out.values == 0.3)
        assert out.parity is Parity.HALF
        assert len(out.values) == 4

    def test_endpoint_pair_average(self):
        # f vanishes at both u = 0 and u = 1, leaving the plain average
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.0, 1.0], coeff)
        out = lf_step(state, model, coeff, lam=0.17)
        assert out.values[0] == 0.5

    @pytest.mark.parametrize("lam", [math.nan, 0.0, -0.1, math.inf])
    def test_refuses_lam_that_is_not_positive_and_finite(self, lam):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.2, 0.4, 0.6], coeff)
        with pytest.raises(ValueError, match="lam"):
            lf_step(state, model, coeff, lam=lam)

    def test_hand_value(self):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.2, 0.4], coeff)
        out = lf_step(state, model, coeff, lam=0.1)
        assert out.values[0] == pytest.approx(0.292, abs=1e-15)

    def test_time_and_kbar_update(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        out = lf_step(state, model, coeff, lam=1 / 30)
        assert out.time == pytest.approx(mesh.dx / 30)
        assert out.step_index == 1
        assert out.kbar[24] == pytest.approx(2.0)  # straddling half cell

    def test_lambda_affinity(self):
        # the update is affine in lam: halving lam halves the flux term
        model, coeff = builtin_multiplicative(3.0, 1.0)
        rng = np.random.default_rng(7)
        state = base_state(rng.uniform(0, 1, 12), coeff, x_min=-6.0, x_max=6.0)
        avg = 0.5 * (state.values[:-1] + state.values[1:])
        full = lf_step(state, model, coeff, lam=0.02).values - avg
        half = lf_step(state, model, coeff, lam=0.01).values - avg
        assert np.allclose(full, 2.0 * half, rtol=0, atol=1e-15)

    def test_reflection_with_negated_flux(self):
        # x -> -x maps the conservation law to one with flux -f; the step
        # then commutes with index reversal exactly
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mirror = FluxModel(
            name="mirror", eval=lambda k, u: -model.eval(k, u),
            d_u=lambda k, u: -model.d_u(k, u), d_k=lambda k, u: -model.d_k(k, u),
            d_uu=lambda k, u: -model.d_uu(k, u), d_uk=lambda k, u: -model.d_uk(k, u),
            u_lo=0.0, u_hi=1.0, k_lo=1.0, k_hi=3.0,
            convexity=Convexity.STRICTLY_CONVEX, gamma1=2.0, gamma2=6.0,
            sup_fu=3.0, sup_fk=0.25, sup_fuk=1.0)
        mirror_coeff = Coefficient.piecewise_constant([0.0], [1.0, 3.0])
        rng = np.random.default_rng(11)
        mesh = Mesh.from_cells(-1.0, 1.0, 10)
        values = rng.uniform(0, 1, 10)
        fwd = StaggeredState(mesh=mesh, values=values,
                             kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                             parity=Parity.BASE, time=0.0, step_index=0)
        rev = StaggeredState(mesh=mesh, values=values[::-1].copy(),
                             kbar=cell_average_coefficient(mesh, mirror_coeff, Parity.BASE),
                             parity=Parity.BASE, time=0.0, step_index=0)
        out_fwd = lf_step(fwd, model, coeff, lam=0.05)
        out_rev = lf_step(rev, mirror, mirror_coeff, lam=0.05)
        assert np.array_equal(out_rev.values, out_fwd.values[::-1])


class TestMidTimeValues:
    def test_zero_slopes(self):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.2, 0.5, 0.8], coeff)
        mid = mid_time_values(state.values, state.kbar, np.zeros(3), model, lam=0.2)
        assert np.array_equal(mid, state.values)

    def test_sonic_point(self):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.5, 0.5, 0.5], coeff)
        mid = mid_time_values(state.values, state.kbar, np.full(3, 0.7), model, lam=0.2)
        assert np.all(mid == 0.5)

    def test_hand_value(self):
        model, coeff = flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)
        state = base_state([0.2, 0.2, 0.2], coeff)
        mid = mid_time_values(state.values, state.kbar, np.full(3, 0.1), model, lam=0.1)
        assert mid[1] == pytest.approx(0.197, abs=1e-15)

    def test_alignment_enforced(self):
        model, coeff = flat_k_model(lambda u: u, lambda u: 1.0 + 0 * u)
        state = base_state([0.2, 0.3, 0.4], coeff)
        with pytest.raises(ValueError):
            mid_time_values(state.values, state.kbar, np.zeros(2), model, lam=0.1)


class TestNtStep:
    def test_zero_limiter_matches_first_order_bitwise(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        rng = np.random.default_rng(3)
        state = base_state(rng.uniform(0, 1, 20), coeff, x_min=-10.0, x_max=10.0)
        cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=1 / 30,
                           limiter=LimiterConfig(kind=LimiterKind.ZERO))
        second, corr = nt_step(state, model, coeff, cfg)
        first = lf_step(state, model, coeff, cfg.lam)
        assert np.array_equal(second.values, first.values)
        assert np.all(corr == 0.0)

    def test_constant_state_with_constant_coefficient(self):
        model, coeff = builtin_multiplicative(2.0, 2.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 10)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.4))
        cfg = SchemeConfig(lam=1 / 30)
        out, corr = nt_step(state, model, coeff, cfg)
        assert np.all(out.values == 0.4)
        assert np.all(corr == 0.0)

    def test_linear_data_matches_scalar_oracle(self):
        # independent scalar evaluation of the update at one interior stencil
        h = 0.05
        model, coeff = flat_k_model(lambda u: 0.5 * u * u, lambda u: u,
                                    convexity=Convexity.STRICTLY_CONVEX)
        lam = 0.2
        values = h * np.arange(1, 9)
        state = base_state(values, coeff, x_min=0.0, x_max=8.0)
        cfg = SchemeConfig(lam=lam)
        out, _ = nt_step(state, model, coeff, cfg)

        def oracle(uj, ujp1):
            sig = h  # linear data: all three minmod arguments equal h
            mid_j = uj - 0.5 * lam * uj * sig
            mid_jp1 = ujp1 - 0.5 * lam * ujp1 * sig
            return 0.5 * (uj + ujp1) - 0.125 * (sig - sig) - lam * (
                0.5 * mid_jp1**2 - 0.5 * mid_j**2)

        # interior interfaces see pure linear data on the full stencil
        for m in range(2, 6):
            expected = oracle(values[m - 1], values[m])
            assert out.values[m - 1] == pytest.approx(expected, abs=1e-15)

    def test_corrections_align_with_input_cells(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        rng = np.random.default_rng(5)
        state = base_state(rng.uniform(0, 1, 15), coeff, x_min=-7.5, x_max=7.5)
        cfg = SchemeConfig(lam=1 / 30)
        _, corr = nt_step(state, model, coeff, cfg)
        assert len(corr) == len(state.values)


class TestPredictorCorrector:
    def test_matches_direct_update(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        cfg = SchemeConfig(lam=1 / 30)
        rng = np.random.default_rng(2024)
        for _ in range(5):
            state = base_state(rng.uniform(0, 1, 50), coeff, x_min=-1.0, x_max=1.0)
            direct, _ = nt_step(state, model, coeff, cfg)
            pc = predictor_corrector_step(state, model, coeff, cfg)
            assert np.max(np.abs(direct.values - pc.values)) <= 1e-12

    def test_zero_slopes_reduce_to_first_order(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        cfg = SchemeConfig(lam=1 / 30, limiter=LimiterConfig(kind=LimiterKind.ZERO))
        state = base_state(np.linspace(0.1, 0.9, 12), coeff, x_min=-6.0, x_max=6.0)
        pc = predictor_corrector_step(state, model, coeff, cfg)
        first = lf_step(state, model, coeff, cfg.lam)
        assert np.array_equal(pc.values, first.values)


class TestMassConservation:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_compact_support_mass_preserved(self, scheme):
        # with u = 0 near both boundaries the endpoint fluxes vanish and the
        # update telescopes; mass is exact over a Base -> Half -> Base cycle
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 40)
        x = mesh.centers(Parity.BASE)
        bump = np.where(np.abs(x) < 0.5, 0.8 * np.cos(np.pi * x) ** 2, 0.0)
        state = StaggeredState(mesh=mesh, values=bump,
                               kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                               parity=Parity.BASE, time=0.0, step_index=0)
        cfg = SchemeConfig(scheme=scheme, lam=1 / 30)
        mass0 = mesh.dx * np.sum(state.values)
        for _ in range(2):
            if scheme is Scheme.NESSYAHU_TADMOR:
                state, _ = nt_step(state, model, coeff, cfg)
            else:
                state = lf_step(state, model, coeff, cfg.lam)
            mass = mesh.dx * np.sum(state.values)
            assert abs(mass - mass0) <= 1e-12 * mesh.n_cells


class TestMarch:
    def test_zero_time_is_identity(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        cfg = SchemeConfig(lam=1 / 30, collect_diagnostics="all")
        final, report = march(state, model, coeff, cfg, 0.0)
        assert final is state
        assert report.steps == 0
        assert report.onesided_worst_margin == math.inf

    def test_example_1_step_count(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        cfg = SchemeConfig(lam=1 / 30, collect_diagnostics=False)
        final, report = march(state, model, coeff, cfg, 0.8)
        assert report.steps == 600
        assert final.parity is Parity.BASE
        assert final.time == pytest.approx(0.8, abs=1e-10)

    def test_snap_to_even_step_count(self):
        # 1.0 / 0.008 = 125 steps snaps down to 124 (time 0.992)
        assert snap_steps(0.0, 1.0, 0.008) == 124
        assert snap_steps(0.0, 2.0, 0.008) == 250
        assert snap_steps(0.0, 0.8, 0.04 / 30) == 600

    def test_step_count_is_bounded(self):
        assert snap_steps(0.0, float(schemes.MAX_STEPS), 1.0) == schemes.MAX_STEPS
        for t_end in (schemes.MAX_STEPS + 2.0, 1e300, math.inf, math.nan):
            with pytest.raises(ValueError, match="MAX_STEPS"):
                snap_steps(0.0, t_end, 1.0)

    @pytest.mark.parametrize("t_end", [1e300, math.inf])
    def test_march_refuses_too_many_steps(self, t_end):
        # t_end = 1e300 took about 1e303 steps; math.inf raised OverflowError
        model, coeff = builtin_burgers_const_k()
        state = initial_state(Mesh.from_cells(0.0, 1.0, 10), coeff, lambda x: np.full_like(x, 0.5))
        with pytest.raises(ValueError, match="MAX_STEPS"):
            march(state, model, coeff, SchemeConfig(lam=0.1), t_end)

    def test_snap_recorded_in_report(self):
        model, coeff = builtin_burgers_const_k()
        mesh = Mesh.from_cells(0.0, 1.0, 10)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.5))
        cfg = SchemeConfig(lam=0.08, collect_diagnostics=False)
        dt = 0.08 * mesh.dx
        final, report = march(state, model, coeff, cfg, 5.5 * dt)
        assert report.steps == 4
        assert report.snapped_time == pytest.approx(4 * dt)

    def test_requires_base_parity(self):
        model, coeff = builtin_burgers_const_k()
        mesh = Mesh.from_cells(0.0, 1.0, 4)
        half = StaggeredState(mesh=mesh, values=np.ones(3), kbar=np.ones(3),
                              parity=Parity.HALF, time=0.1, step_index=1)
        with pytest.raises(ValueError):
            march(half, model, coeff, SchemeConfig(lam=0.1), 1.0)

    def test_rejects_past_target(self):
        model, coeff = builtin_burgers_const_k()
        mesh = Mesh.from_cells(0.0, 1.0, 4)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.5))
        with pytest.raises(ValueError):
            march(state, model, coeff, SchemeConfig(lam=0.1), -0.1)

    def test_cfl_checked_at_start(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        with pytest.raises(CflError):
            march(state, model, coeff, SchemeConfig(lam=0.1), 0.8)

    def test_single_cell_domain_rejected(self):
        model, coeff = builtin_burgers_const_k()
        mesh = Mesh.from_cells(0.0, 1.0, 1)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.5))
        with pytest.raises(ValueError):
            march(state, model, coeff, SchemeConfig(lam=0.1), 1.0)

    @pytest.mark.parametrize("lam", [0.0, -0.1, math.nan, math.inf])
    def test_config_refuses_lam_that_is_not_positive_and_finite(self, lam):
        # nan slips past `lam <= 0` and the CFL comparison (`nan > bound` is False)
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            SchemeConfig(lam=lam)

    @pytest.mark.parametrize("window_x", [-1.0, -1e-300, math.nan, math.inf])
    def test_config_refuses_window_x_outside_zero_to_inf(self, window_x):
        # window_x = -1 masked every interface: the cubic accumulator read a vacuous 0.0
        with pytest.raises(ValueError, match="window_x"):
            SchemeConfig(window_x=window_x)
        assert SchemeConfig(window_x=0.0).window_x == 0.0

    @pytest.mark.parametrize("value", ["ALL", "yes", 1.5, None])
    def test_config_refuses_other_diagnostics_values(self, value):
        with pytest.raises(ValueError, match="collect_diagnostics"):
            SchemeConfig(collect_diagnostics=value)

    def test_second_order_step_refuses_strict_level(self):
        model, coeff = builtin_burgers_const_k()
        mesh = Mesh.from_cells(0.0, 1.0, 10)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.5))
        cfg = SchemeConfig(lam=0.01, cfl_level=CflLevel.ONE_SIDED)
        with pytest.raises(CflError):  # 0.01 > 1/7500
            nt_step(state, model, coeff, cfg)

    def test_manual_level_bypasses_with_warning(self, caplog):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        cfg = SchemeConfig(lam=0.1, cfl_level=CflLevel.MANUAL, collect_diagnostics=False)
        with caplog.at_level("WARNING"):
            final, report = march(state, model, coeff, cfg, 10 * 0.1 * mesh.dx)
        assert report.steps == 10
        assert report.kappa_bound == math.inf
        assert any("manual" in rec.message.lower() for rec in caplog.records)


KERNEL_CASES = [
    (Scheme.LAX_FRIEDRICHS, LimiterConfig()),
    (Scheme.NESSYAHU_TADMOR, LimiterConfig()),
    (Scheme.NESSYAHU_TADMOR, LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED)),
]


def _kernel_run(n_cells, scheme=Scheme.NESSYAHU_TADMOR, limiter=LimiterConfig()):
    model, coeff = builtin_multiplicative(3.0, 1.0)
    mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
    state = initial_state(mesh, coeff, lambda x: 0.5 + 0.4 * np.sin(3.0 * x))
    return model, coeff, state, SchemeConfig(scheme=scheme, limiter=limiter, lam=1 / 30)


class TestStepKernel:
    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    @pytest.mark.parametrize("n_cells", [40, 41])
    def test_march_equals_chained_public_steps(self, scheme, limiter, n_cells):
        model, coeff, state, cfg = _kernel_run(n_cells, scheme, limiter)
        cfg = dataclasses.replace(cfg, collect_diagnostics="all")  # nu_min and correction_max
        steps = snap_steps(0.0, 0.1, cfg.lam * state.mesh.dx)
        snapshots = dict.fromkeys(range(steps + 1))
        final, report = march(state, model, coeff, cfg, 0.1, snapshots=snapshots)
        assert report.steps == steps >= 60 and not math.isinf(report.nu_min)
        chained, corrections = [state], []
        for _ in range(steps):
            if scheme is Scheme.NESSYAHU_TADMOR:
                by_hand, corr = nt_step(chained[-1], model, coeff, cfg)
                corrections.append(np.abs(corr))
            else:
                by_hand = lf_step(chained[-1], model, coeff, cfg.lam)
            chained.append(by_hand)
        assert snapshots[steps] is final
        for n, by_hand in enumerate(chained):
            kept = snapshots[n]
            assert (kept.step_index, kept.parity, kept.time) == (n, by_hand.parity, by_hand.time)
            assert kept.values.tobytes() == by_hand.values.tobytes()
            assert kept.kbar.tobytes() == by_hand.kbar.tobytes()
        a_max = np.max(np.concatenate(corrections)) if corrections else 0.0
        assert np.float64(report.correction_max).tobytes() == np.float64(a_max).tobytes()

    def test_an_initial_states_own_kbar_is_refused(self):
        # every step takes coeff's averages: a kbar of other bits, one ulp included, is
        # refused, and a distinct array of the same bits marches as initial_state's does
        model, coeff, state, cfg = _kernel_run(40)
        two_steps = 2 * cfg.lam * state.mesh.dx
        ulp = state.kbar.copy()
        ulp[7] = np.nextafter(ulp[7], math.inf)
        for own in (np.full_like(state.kbar, 2.0), ulp):
            with pytest.raises(ValueError, match="kbar"):
                march(dataclasses.replace(state, kbar=own), model, coeff, cfg, two_steps)
        final, report = march(dataclasses.replace(state, kbar=state.kbar.copy()), model, coeff,
                              cfg, two_steps)
        assert report.steps == 2
        plain, plain_report = march(state, model, coeff, cfg, two_steps)
        assert final.values.tobytes() == plain.values.tobytes()
        assert json.dumps(report.to_json_dict()) == json.dumps(plain_report.to_json_dict())

    def test_collector_folds_whole_rows_of_the_march_blocks(self, monkeypatch):
        model, coeff, state, cfg = _kernel_run(41)
        cfg = dataclasses.replace(cfg, collect_diagnostics="all")  # the slopes too
        calls, real = [], diagnostics.DiagnosticsCollector.observe
        monkeypatch.setattr(diagnostics.DiagnosticsCollector, "observe",
                            lambda self, *args: calls.append(args) or real(self, *args))
        march(state, model, coeff, cfg, 0.1)
        rows = schemes._FOLD_VALUES // 41
        # the Base block and its head row, the Half block with its slots, then the slopes'
        a, b, sig = calls[0]
        assert [x.base.shape for x in (a, b, *sig)] == [(rows + 1, 41), (rows, 42), (rows, 41),
                                                        (rows, 42)]

    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES[:2])
    def test_cfl_checked_once_per_march(self, monkeypatch, scheme, limiter):
        model, coeff, state, cfg = _kernel_run(40, scheme, limiter)
        calls = []
        real = schemes.cfl_bound
        monkeypatch.setattr(schemes, "cfl_bound", lambda *args: calls.append(args) or real(*args))
        _, report = march(state, model, coeff, cfg, 0.1)
        assert report.steps >= 60
        assert len(calls) == 1

    def test_returned_kbar_is_read_only(self):
        model, coeff, state, cfg = _kernel_run(40)
        final, _ = march(state, model, coeff, cfg, 0.1)
        assert not final.kbar.flags.writeable
        with pytest.raises(ValueError):
            final.kbar[0] = 0.0

    @pytest.mark.parametrize("step", [
        lambda s, m, c, cfg: lf_step(s, m, c, cfg.lam, cfg.cfl_level),
        nt_step, predictor_corrector_step])
    def test_public_steps_check_cfl_themselves(self, step):
        model, coeff, state, _ = _kernel_run(40)
        with pytest.raises(CflError):
            step(state, model, coeff, SchemeConfig(lam=0.1))

    def test_single_cell_steps_as_the_public_functions_did(self):
        model, coeff = builtin_burgers_const_k()
        state = initial_state(Mesh.from_cells(0.0, 1.0, 1), coeff, lambda x: np.full_like(x, 0.5))
        half = lf_step(state, model, coeff, 0.1)
        assert half.parity is Parity.HALF and len(half.values) == 0
        with pytest.raises(ValueError):
            lf_step(half, model, coeff, 0.1)

    @pytest.mark.parametrize("step", [
        lambda s, m, c, cfg: lf_step(s, m, c, cfg.lam), nt_step, predictor_corrector_step])
    def test_an_empty_state_is_refused(self, step):
        model, coeff = builtin_burgers_const_k()
        state = initial_state(Mesh.from_cells(0.0, 1.0, 1), coeff, lambda x: np.full_like(x, 0.5))
        half, _ = nt_step(state, model, coeff, SchemeConfig(lam=0.1))
        assert half.parity is Parity.HALF and len(half.values) == 0
        with pytest.raises(ValueError, match="empty state"):
            step(half, model, coeff, SchemeConfig(lam=0.1))


def _report_json(report):
    return json.dumps(report.to_json_dict())


class TestMarchBuildsStatesOnlyWhereRead:
    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    @pytest.mark.parametrize("diagnostics", [True, False])
    @pytest.mark.parametrize("wanted", [(), (0, 6, 60), (2, 4, 4, 7, 200)])
    def test_constructs_the_kept_states_and_the_final_one(self, monkeypatch, scheme, limiter,
                                                          diagnostics, wanted):
        model, coeff, state, cfg = _kernel_run(40, scheme, limiter)
        cfg = dataclasses.replace(cfg, collect_diagnostics=diagnostics)
        built = []
        real = StaggeredState.__post_init__
        monkeypatch.setattr(StaggeredState, "__post_init__",
                            lambda self: built.append(self.step_index) or real(self))
        snapshots = dict.fromkeys(wanted)
        final, report = march(state, model, coeff, cfg, 0.1, snapshots=snapshots)
        assert report.steps == 60 and final.step_index == 60
        kept = {n for n in wanted if 0 < n < report.steps}
        assert sorted(built) == sorted(kept | {report.steps})
        assert all(snapshots[n].step_index == n for n in wanted if n <= report.steps)
        assert snapshots.get(0, state) is state and snapshots.get(60, final) is final
        assert snapshots.get(200, None) is None  # past the end: left unset
        with pytest.raises(TypeError):  # snapshots are keyword-only
            march(state, model, coeff, cfg, 0.1, snapshots)

    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    @pytest.mark.parametrize("diagnostics", [True, False])
    def test_snapshots_change_nothing(self, scheme, limiter, diagnostics):
        model, coeff, state, cfg = _kernel_run(41, scheme, limiter)
        cfg = dataclasses.replace(cfg, collect_diagnostics=diagnostics)
        plain, plain_report = march(state, model, coeff, cfg, 0.1)
        snapshots = dict.fromkeys(range(plain_report.steps + 1))
        kept, kept_report = march(state, model, coeff, cfg, 0.1, snapshots=snapshots)
        assert kept.values.tobytes() == plain.values.tobytes()
        assert (kept.time, kept.step_index) == (plain.time, plain.step_index)
        assert _report_json(kept_report) == _report_json(plain_report)


class TestNanExtremesStick:
    def test_manual_cfl_blow_up_reports_null_extremes(self):
        # every state from step 10 on holds a NaN; Python's min and max kept step 8's
        # extremes (u_max 1.873e241) because they keep the left operand against NaN
        spec = ExperimentSpec(name="blow-up", model_name="multiplicative",
                              model_params={"k_left": 3.0, "k_right": 1.0}, dx=0.04, lam=3.0,
                              u0=InitialData.step(0.9, 0.1), cfl_level=CflLevel.MANUAL,
                              output_times=(0.96, 2.0))
        with np.errstate(all="ignore"):
            run = run_experiment(spec, Scheme.NESSYAHU_TADMOR)
        assert run.report.steps == 16 and np.isnan(run.final.values).any()
        assert np.isfinite(run.states[0.96].values).all()
        assert math.isnan(run.report.u_min) and math.isnan(run.report.u_max)
        payload = json.loads(json.dumps(run.report.to_json_dict(), allow_nan=False))
        assert payload["u_min"] is None and payload["u_max"] is None

    def test_manual_cfl_blow_up_reports_null_correction_max_and_nu_min(self):
        # Python's max and min kept step 8's correction_max (1.78e191) and nu_min (-5.06e242)
        spec = ExperimentSpec(name="blow-up", model_name="multiplicative",
                              model_params={"k_left": 3.0, "k_right": 1.0}, dx=0.04, lam=3.0,
                              u0=InitialData.step(0.9, 0.1), cfl_level=CflLevel.MANUAL,
                              output_times=(2.0,))
        with np.errstate(all="ignore"):  # no estimate is claimed at the manual level
            report = run_experiment(spec, Scheme.NESSYAHU_TADMOR, collect_diagnostics="all").report
        assert report.steps == 16
        assert math.isnan(report.correction_max) and math.isnan(report.nu_min)
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["correction_max"] is None and payload["nu_min"] is None

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_manual_cfl_blow_up_reports_null_onesided_margin_and_entropy(self, scheme):
        # Python's min kept a -inf one-sided margin (both schemes) and Python's max an LF
        # entropy residual of 4.81e289; NT's entropy residual is not judged
        spec = ExperimentSpec(name="blow-up", model_name="multiplicative",
                              model_params={"k_left": 3.0, "k_right": 1.0}, dx=0.04, lam=3.0,
                              u0=InitialData.step(0.9, 0.1), cfl_level=CflLevel.MANUAL,
                              output_times=(2.0,))
        with np.errstate(all="ignore"):  # no estimate is claimed at the manual level
            report = run_experiment(spec, scheme, collect_diagnostics="all").report
        assert report.steps == 16 and math.isnan(report.onesided_worst_margin)
        if scheme is Scheme.LAX_FRIEDRICHS:
            assert math.isnan(report.entropy_max_residual)
        else:
            assert report.entropy_max_residual == -math.inf
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["onesided_worst_margin"] is None
        assert payload["entropy_max_residual"] is None

    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    def test_a_nan_after_the_initial_state_sticks(self, scheme, limiter):
        # the flux is NaN above u = 0.55, so the first step leaves NaNs in finite data
        model, coeff = flat_k_model(lambda u: np.where(u > 0.55, math.nan, u * (1 - u)),
                                    lambda u: 1 - 2 * u)
        state = initial_state(Mesh.from_cells(-1.0, 1.0, 40), coeff,
                              lambda x: 0.5 + 0.4 * np.sin(3.0 * x))
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=0.1, collect_diagnostics=False)
        with np.errstate(invalid="ignore"):
            final, report = march(state, model, coeff, cfg, 4 * cfg.lam * state.mesh.dx)
        assert np.isfinite(state.values).all() and np.isnan(final.values).any()
        assert math.isnan(report.u_min) and math.isnan(report.u_max)


def _padded_lf_values(state, model, lam):
    """The first-order step as it was before it dropped the ghost cells: pad values and
    kbar with one ghost each side, take f on all of them, update every staggered pair,
    and keep the outer two pairs only on the way to Base."""
    ev, ek = extend_absorbing(state, 1)
    fl = model.eval(ek, ev)
    v = 0.5 * (ev[:-1] + ev[1:]) - lam * (fl[1:] - fl[:-1])
    return v[1:-1] if state.parity is Parity.BASE else v


LF_MODELS = [lambda: builtin_multiplicative(3.0, 1.0), builtin_two_flux_rational,
             builtin_burgers_const_k,
             lambda: flat_k_model(lambda u: u * (1 - u), lambda u: 1 - 2 * u)]
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
                  -math.nan]
special_or_normal = st.one_of(st.sampled_from(SPECIAL_VALUES),
                              st.floats(min_value=-2.0, max_value=2.0), st.floats())


def _kernel_step(stepper, values, kbar, parity):
    """One step of the march's kernel from `values` with `kbar` on `parity`'s grid, a Half
    row given its ghost slots (copies of its edge entries) first.  Returns the new values
    without slots, the corrections and slopes on the cells of `values`, and the output row."""
    half = parity is Parity.HALF
    u, k = (np.pad(values, 1, mode="edge"), np.pad(kbar, 1, mode="edge")) if half else (values,
                                                                                           kbar)
    row = np.full(len(u) - 1 if half else len(u) + 1, 7.0)  # 7.0: an unwritten entry shows
    corrections, sig = stepper.step(k, stepper.views(u, row))
    cells = slice(1, -1) if half else slice(None)
    return ((row if half else row[1:-1]),
            *(None if x is None else x[cells] for x in (corrections, sig)), row)


def _slots_repeat_edges(row, parity):
    """Whether a row stepped onto Half holds its edge values in its slots, bit for bit."""
    return parity is Parity.HALF or (row[:1].tobytes() == row[1:2].tobytes()
                                     and row[-1:].tobytes() == row[-2:-1].tobytes())


def _bits(a):
    """The bytes of `a` with every NaN written as one NaN.  Where two NaNs of opposite sign
    meet, numpy keeps the sign of either, by the array position (its SIMD loop or the tail
    loop), so a NaN's sign is not part of a step's result; every other bit is."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.tobytes()


class TestFirstOrderStepWithoutGhosts:
    @given(st.sampled_from(LF_MODELS), st.sampled_from([Parity.BASE, Parity.HALF]),
           st.integers(min_value=1, max_value=60), st.booleans(),
           st.one_of(st.sampled_from([1e-300, 1 / 30, 1e300]),
                     st.floats(min_value=1e-6, max_value=10.0)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_padded_formula_bitwise(self, builtin, parity, n_cells, own_kbar, lam, data):
        if parity is Parity.HALF and n_cells < 2:
            n_cells = 2  # a Half state on one cell is empty, and stepping it is refused
        model, coeff = builtin()
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        stepper = schemes._Stepper(model, coeff, mesh, lam, None)
        n = mesh.n_values(parity)
        values = np.array(data.draw(st.lists(special_or_normal, min_size=n, max_size=n)))
        kbar = (np.array(data.draw(st.lists(special_or_normal, min_size=n, max_size=n)))
                if own_kbar else stepper.kbar[parity])
        step = 0 if parity is Parity.BASE else 1
        state = StaggeredState(mesh, values, kbar, parity, step * lam * mesh.dx, step)
        with np.errstate(all="ignore"):  # inf - inf, 1e308 + 1e308 and the like
            v, corrections, sig, row = _kernel_step(stepper, values, kbar, parity)
            want = _padded_lf_values(state, model, lam)
        assert corrections is None and sig is None
        assert _bits(v) == _bits(want)
        assert _slots_repeat_edges(row, parity)
        new = stepper.advance(state, v)  # refuses values off the new parity's natural width
        assert new.kbar is stepper.kbar[new.parity] and new.parity is not parity
        kept = v.copy()
        with np.errstate(all="ignore"):  # a later step into another row leaves this one alone
            _kernel_step(stepper, values, kbar, parity)
        assert v.tobytes() == kept.tobytes()


def _padded_nt_step(state, model, lam, limiter):
    """The second-order step as it was before it dropped the ghost cells: pad values and
    kbar with two ghosts each side, take slopes and f at the mid-time values on all of them,
    update every staggered pair, and keep the outer two pairs only on the way to Base.
    Returns the values, and the corrections and slopes on the state's cells."""
    ev, ek = extend_absorbing(state, 2)
    sig = slopes(ev, state.mesh.dx, limiter)
    f_mid = np.asarray(model.eval(ek, mid_time_values(ev, ek, sig, model, lam)), dtype=float)
    v = (0.5 * (ev[1:-2] + ev[2:-1])
         - 0.125 * (sig[2:-1] - sig[1:-2])
         - lam * (f_mid[2:-1] - f_mid[1:-2]))
    f_now = np.asarray(model.eval(state.kbar, state.values), dtype=float)
    a = lam * (f_mid[2:-2] - f_now) + sig[2:-2] / 8.0
    return v[1:-1] if state.parity is Parity.BASE else v, a, sig[2:-2]


# a flux finite on all of R, so that an edge value whose u + u overflows keeps a finite flux
NT_MODELS = LF_MODELS + [lambda: flat_k_model(np.tanh, lambda u: 1 / np.cosh(u)**2)]
NT_LIMITERS = [LimiterConfig(kind=LimiterKind.ZERO), LimiterConfig(),
               LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED),
               LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1e-300, alpha=0.7)]


class TestSecondOrderStepWithoutGhosts:
    @given(st.sampled_from(NT_MODELS), st.sampled_from(NT_LIMITERS),
           st.sampled_from([Parity.BASE, Parity.HALF]),
           st.integers(min_value=1, max_value=60), st.booleans(),
           st.one_of(st.sampled_from([1e-300, 1 / 30, 1e300]),
                     st.floats(min_value=1e-300, max_value=1e300)),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_padded_formula_bitwise(self, builtin, limiter, parity, n_cells, own_kbar,
                                           lam, data):
        if parity is Parity.HALF and n_cells < 2:
            n_cells = 2  # a Half state on one cell is empty, and stepping it is refused
        model, coeff = builtin()
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        stepper = schemes._Stepper(model, coeff, mesh, lam, limiter)
        n = mesh.n_values(parity)
        values = np.array(data.draw(st.lists(special_or_normal, min_size=n, max_size=n)))
        kbar = (np.array(data.draw(st.lists(special_or_normal, min_size=n, max_size=n)))
                if own_kbar else stepper.kbar[parity])
        step = 0 if parity is Parity.BASE else 1
        state = StaggeredState(mesh, values, kbar, parity, step * lam * mesh.dx, step)
        with np.errstate(all="ignore"):  # inf - inf, 1e308 + 1e308 and the like
            *got, row = _kernel_step(stepper, values, kbar, parity)
            want = _padded_nt_step(state, model, lam, limiter)
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
        assert _slots_repeat_edges(row, parity)
        stepper.advance(state, got[0])  # refuses values off the new parity's natural width
        kept = [x.copy() for x in got]
        with np.errstate(all="ignore"):  # corrections and slopes are fresh arrays, and a later
            _kernel_step(stepper, values, kbar, parity)  # step into another row leaves all alone
        assert [x.tobytes() for x in got] == [x.tobytes() for x in kept]


def _fine_run_cap_inputs():
    """(dx, k_tilde, alpha) of the modified limiter of tests/golden/fine_run.cfg, its k_tilde
    the automatic one that `run_experiment` sets on its mesh."""
    spec = load_config(str(Path(__file__).parent / "golden" / "fine_run.cfg")).spec
    model, _ = spec.build()
    dx, alpha = spec.mesh().dx, spec.limiter.alpha
    return dx, 2.0 * model.c_u0 * dx**-alpha, alpha


BENCH_LAM = 0.0333333333333333333  # the `lambda` of the benchmark's configs


class TestKernelConstants:
    @given(st.one_of(st.sampled_from([BENCH_LAM, example_1().lam, example_2().lam]),
                     st.floats(min_value=1e-300, max_value=1e300)))
    @settings(max_examples=200)
    def test_stepper_constants_are_0d_with_the_bits_python_computes(self, lam):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        stepper = schemes._Stepper(model, coeff, Mesh.from_cells(-1.0, 1.0, 4), lam,
                                   LimiterConfig())
        held = stepper.half, stepper.eighth, stepper.lam_0d, stepper.half_lam, stepper.eight
        assert all(type(x) is np.ndarray and x.shape == () and x.dtype == np.float64
                   for x in held)
        assert ([float(x).hex() for x in held]
                == [x.hex() for x in (0.5, 0.125, lam, 0.5 * lam, 8.0)])

    @given(st.one_of(st.just(_fine_run_cap_inputs()),
                     st.tuples(st.floats(min_value=1e-300, max_value=1.0),
                               st.floats(min_value=1e-300, max_value=1e300),
                               st.floats(min_value=0.67, max_value=0.99))))
    @settings(max_examples=200)
    def test_modified_cap_has_the_bits_python_computes(self, inputs):
        # a jump of inf on both sides of a cell gives the cap itself, and its negation
        dx, k_tilde, alpha = inputs
        cfg = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=k_tilde, alpha=alpha)
        cap = k_tilde * dx**alpha
        assume(cap > 0)  # a cap that underflows to 0 gives +0.0 both ways
        for ramp, want in (([-math.inf, 0.0, math.inf], cap), ([math.inf, 0.0, -math.inf], -cap)):
            assert slopes(np.array(ramp), dx, cfg)[1].hex() == want.hex()


EDGE_VALUES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]


class TestSmallMeshMarchEqualsChainedSteps:
    # on 2 to 6 cells most pairs touch an edge, so the ghost slots decide most values
    @given(st.sampled_from(NT_MODELS), st.sampled_from(list(Scheme)),
           st.sampled_from(NT_LIMITERS), st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=6), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_states_bitwise(self, builtin, scheme, limiter, n_cells, pairs, diagnostics, data):
        model, coeff = builtin()
        edge = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(0.0, 1.0))
        values = [data.draw(edge), *data.draw(st.lists(special_or_normal, min_size=n_cells - 2,
                                                        max_size=n_cells - 2)), data.draw(edge)]
        state = base_state(values, coeff, -1.0, 1.0)
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=0.05 / model.sup_fu,
                           collect_diagnostics=diagnostics)
        steps = 2 * pairs
        snapshots = dict.fromkeys(range(steps + 1))
        with np.errstate(all="ignore"):
            final, report = march(state, model, coeff, cfg, steps * cfg.lam * state.mesh.dx,
                                  snapshots=snapshots)
            chained = [state]
            for _ in range(steps):
                chained.append(nt_step(chained[-1], model, coeff, cfg)[0]
                               if scheme is Scheme.NESSYAHU_TADMOR
                               else lf_step(chained[-1], model, coeff, cfg.lam))
        assert report.steps == steps and final is snapshots[steps]
        for n, want in enumerate(chained):
            got = snapshots[n]
            assert (got.step_index, got.parity, got.time) == (want.step_index, want.parity,
                                                              want.time)
            assert _bits(got.values) == _bits(want.values)
            assert got.kbar.tobytes() == want.kbar.tobytes()


class TestPublicStepsAverageOneParity:
    @pytest.mark.parametrize("step", [
        lambda s, m, c, cfg: lf_step(s, m, c, cfg.lam),
        lambda s, m, c, cfg: nt_step(s, m, c, cfg)[0], predictor_corrector_step])
    def test_one_averaging_per_step(self, monkeypatch, step):
        model, coeff, state, cfg = _kernel_run(40)
        calls = []
        real = schemes.cell_average_coefficient
        monkeypatch.setattr(schemes, "cell_average_coefficient",
                            lambda mesh, c, parity: calls.append(parity) or real(mesh, c, parity))
        half = step(state, model, coeff, cfg)
        back = step(half, model, coeff, cfg)
        assert calls == [Parity.HALF, Parity.BASE]  # one per step, the parity it lands on
        for new in (half, back):
            assert new.kbar.tobytes() == real(state.mesh, coeff, new.parity).tobytes()


class _CountingEval:
    def __init__(self, model):
        self.model, self.calls = model, 0

    def __call__(self, k, u):
        self.calls += 1
        return self.model.eval(k, u)


def _facts(report):
    return (report.scheme, report.lam, report.dx, report.steps, report.snapped_time,
            report.cfl_level, report.kappa_used, report.kappa_bound, report.correction_bound)


class TestMarchWithoutReport:
    @given(st.sampled_from(list(Scheme)), st.sampled_from(list(LimiterKind)),
           st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=12),
           st.lists(st.integers(min_value=0, max_value=14), max_size=5), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_bytes_fewer_evaluations(self, scheme, kind, n_cells, n_steps, wanted, data):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        counter = _CountingEval(model)
        model = dataclasses.replace(model, eval=counter)
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        values = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_cells,
                                             max_size=n_cells)))
        state = StaggeredState(mesh, values, cell_average_coefficient(mesh, coeff, Parity.BASE),
                               Parity.BASE, 0.0, 0)
        cfg = SchemeConfig(scheme=scheme, limiter=LimiterConfig(kind=kind), lam=1 / 30,
                           collect_diagnostics=False)
        t_end = n_steps * cfg.lam * mesh.dx
        runs = {}
        check = schemes._maps_to_itself

        def uncounted(*args):  # the far-field strip checks are not steps of the march
            calls = counter.calls
            try:
                return check(*args)
            finally:
                counter.calls = calls

        for report in (True, False):
            snapshots = dict.fromkeys(wanted)
            counter.calls = 0
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(schemes, "_maps_to_itself", uncounted)
                final, rep = march(state, model, coeff, cfg, t_end, snapshots=snapshots,
                                   report=report)
            runs[report] = final, rep, snapshots, counter.calls
        (final, rep, snaps, evals), (light, light_rep, light_snaps, light_evals) = runs.values()
        steps = rep.steps
        assert light.values.tobytes() == final.values.tobytes()
        assert (light.step_index, light.time, light.parity) == (final.step_index, final.time,
                                                                 final.parity)
        assert light_snaps.keys() == snaps.keys()
        for n, snap in snaps.items():
            assert (snap is None) == (light_snaps[n] is None)
            if snap is not None:
                assert light_snaps[n].values.tobytes() == snap.values.tobytes()
                assert light_snaps[n].step_index == snap.step_index == n
        assert _facts(light_rep) == _facts(rep)
        assert (light_rep.u_min, light_rep.u_max, light_rep.correction_max) == (
            math.inf, -math.inf, None)  # never observed, not computed
        # the NT step evaluates f(k, u) for the corrections where `correction_max` is claimed
        corrections = scheme is Scheme.NESSYAHU_TADMOR and kind is LimiterKind.MINMOD_MODIFIED
        assert (rep.correction_max is None) is not corrections
        assert evals == (2 if corrections else 1) * steps
        assert light_evals == steps
        with pytest.raises(ValueError, match="collect_diagnostics"):
            march(state, model, coeff, dataclasses.replace(cfg, collect_diagnostics=True),
                  t_end, report=False)

    def test_run_experiment_refuses_diagnostics_without_report(self):
        spec = ExperimentSpec(name="c", model_name="multiplicative",
                              model_params={"k_left": 3.0, "k_right": 1.0}, dx=0.1,
                              u0=InitialData.step(0.8, 0.3), output_times=(0.1,))
        with pytest.raises(ValueError, match="collect_diagnostics"):
            run_experiment(spec, Scheme.NESSYAHU_TADMOR, report=False)
        light = run_experiment(spec, Scheme.NESSYAHU_TADMOR, collect_diagnostics=False,
                               report=False)
        full = run_experiment(spec, Scheme.NESSYAHU_TADMOR, collect_diagnostics=False)
        assert light.states[0.1].values.tobytes() == full.states[0.1].values.tobytes()
        assert _facts(light.report) == _facts(full.report)


class TestMarchOwnedBuffers:
    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    @pytest.mark.parametrize("diagnostics", [True, False])
    def test_snapshots_equal_separate_marches(self, scheme, limiter, diagnostics):
        model, coeff, state, cfg = _kernel_run(40, scheme, limiter)
        cfg = dataclasses.replace(cfg, collect_diagnostics=diagnostics)
        state.values.flags.writeable = False  # any write into the initial values raises
        initial = state.values.copy()
        dt = cfg.lam * state.mesh.dx
        wanted = [3, 4, 5, 6, 7, 8, 20]
        snapshots = dict.fromkeys(wanted)
        final, report = march(state, model, coeff, cfg, 20 * dt, snapshots=snapshots)
        assert report.steps == 20 and snapshots[20] is final
        for n in wanted:
            separate, _ = march(state, model, coeff, cfg, (n - n % 2) * dt)
            if n % 2:
                separate = (nt_step(separate, model, coeff, cfg)[0]
                            if scheme is Scheme.NESSYAHU_TADMOR
                            else lf_step(separate, model, coeff, cfg.lam))
            assert separate.step_index == n
            assert snapshots[n].values.tobytes() == separate.values.tobytes()
        assert state.values.tobytes() == initial.tobytes()

    @pytest.mark.parametrize("scheme,limiter", KERNEL_CASES)
    def test_snapshots_get_fresh_arrays(self, scheme, limiter):
        model, coeff, state, cfg = _kernel_run(40, scheme, limiter)
        state.values.flags.writeable = False
        steps = snap_steps(0.0, 0.1, cfg.lam * state.mesh.dx)
        snapshots = dict.fromkeys(range(steps + 1))
        final, report = march(state, model, coeff, cfg, 0.1, snapshots=snapshots)
        arrays = [snapshots[n].values for n in range(report.steps + 1)]
        assert arrays[0] is state.values and arrays[-1] is final.values
        assert not any(np.shares_memory(a, b)  # a kept state never aliases a march buffer
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])
        plain, _ = march(state, model, coeff, cfg, 0.1)
        assert plain.values.tobytes() == final.values.tobytes()


def _march_rows(rows, initial, *args):
    """`march` with blocks of `rows` pairs of steps, with or without a collector (None: the
    default block sizes)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            for name in ("_BLOCK_VALUES", "_FOLD_VALUES"):
                mp.setattr(schemes, name, rows * initial.mesh.n_cells)
        return march(initial, *args)


def _per_step_extremes(state, model, coeff, cfg, steps):
    """`u_min`, `u_max` and `correction_max` folded after each of `steps` chained public
    steps, as `march` folded them before it folded blocks, and read as values: +0.0 for a
    zero, math.nan for a NaN."""
    u_min, u_max, correction_max = np.min(state.values), np.max(state.values), 0.0
    for _ in range(steps):
        if cfg.scheme is Scheme.NESSYAHU_TADMOR:
            state, corrections = nt_step(state, model, coeff, cfg)
            a_max = np.max(np.abs(corrections))
            correction_max = (a_max if a_max > correction_max or a_max != a_max
                              else correction_max)
        else:
            state = lf_step(state, model, coeff, cfg.lam, cfg.cfl_level)
        lo, hi = np.min(state.values), np.max(state.values)
        u_min = lo if lo < u_min or lo != lo else u_min
        u_max = hi if hi > u_max or hi != hi else u_max
    return tuple(0.0 if x == 0 else math.nan if x != x else float(x)
                 for x in (u_min, u_max, correction_max))


def _float_bits(x):
    x = float(x)
    return x.hex(), math.copysign(1.0, x)  # the hex of a NaN drops its sign


EXTREME_LEVELS = [0.0, -0.0, 5e-324, -5e-324, 0.25, 0.5, 0.6, 0.9, math.nan, -math.nan]
EXTREME_FLUXES = [
    lambda u: u * (1 - u),
    lambda u: np.where(u > 0.55, math.nan, u * (1 - u)),  # a NaN above 0.55
    lambda u: np.where(u > 0.55, np.copysign(math.nan, 0.7 - u), u * (1 - u)),  # either sign
]


class TestExtremesFoldInBlocks:
    # blocks of 1, 2 or 3 rows make a march of up to 40 steps cross many block edges; the
    # default block holds all of them in one partial block at these sizes.  Which zero or NaN
    # a reduction returns follows where it lies and numpy's loops (numpy's scalar loop keeps
    # the sign of a row's first NaN, its SIMD loop gives a positive NaN), so the report and
    # the per-step fold read +0.0 for a zero and math.nan for a NaN; the two examples hold
    # NaNs of both signs in blocks of either kind of loop.
    @example(KERNEL_CASES[1], EXTREME_FLUXES[2], [0.25, 0.25, 0.9], 0.2, 2, None)
    @example(KERNEL_CASES[2], EXTREME_FLUXES[2], [0.9, 0.9], 0.1, 1, 3)
    @given(st.sampled_from(KERNEL_CASES), st.sampled_from(EXTREME_FLUXES),
           st.lists(st.one_of(st.sampled_from(EXTREME_LEVELS), st.floats(0.0, 1.0)),
                    min_size=2, max_size=40),
           st.sampled_from([0.1, 0.2, 0.9]), st.integers(min_value=0, max_value=20),
           st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.parametrize("collect", [False, "all"])  # without and with a collector
    def test_equal_a_per_step_fold(self, collect, case, flux, values, lam, pairs, rows):
        scheme, limiter = case
        model, coeff = flat_k_model(flux, lambda u: 1 - 2 * u)
        state = base_state(values, coeff, -1.0, 1.0)
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=lam, cfl_level=CflLevel.MANUAL,
                           collect_diagnostics=collect)
        t_end = 2 * pairs * lam * state.mesh.dx
        with np.errstate(all="ignore"):
            _, report = _march_rows(rows, state, model, coeff, cfg, t_end)
            want = _per_step_extremes(state, model, coeff, cfg, report.steps)
        assert report.steps == 2 * pairs
        got = report.u_min, report.u_max, report.correction_max
        # False computes `correction_max` only where it is claimed, for the modified limiter
        if not collect and (scheme is Scheme.LAX_FRIEDRICHS
                            or limiter.kind is not LimiterKind.MINMOD_MODIFIED):
            assert got[2] is None
            got, want = got[:2], want[:2]
        assert [_float_bits(x) for x in got] == [_float_bits(x) for x in want]


def _zeros_state():
    """A 17-cell Burgers state of zeros with -0.0 in its last cell."""
    model, coeff = builtin_burgers_const_k()
    mesh = Mesh.from_cells(-1.0, 1.0, 17)
    values = np.zeros(17)
    values[-1] = -0.0
    return model, coeff, StaggeredState(mesh, values,
                                        cell_average_coefficient(mesh, coeff, Parity.BASE),
                                        Parity.BASE, 0.0, 0)


class TestExtremesAreValues:
    # which zero a reduction over +0.0 and -0.0 returns follows numpy's loops: with numpy 2.4
    # the march from `_zeros_state` folded +0.0 on AVX-512 and -0.0 on AVX2, so the report
    # reads every zero extreme as +0.0
    def test_do_not_follow_numpys_simd_loops(self):
        script = "\n".join([
            "import math",
            "import numpy as np",
            "from discflux import (Mesh, Parity, SchemeConfig, StaggeredState,"
            " builtin_burgers_const_k, cell_average_coefficient, march)",
            inspect.getsource(_zeros_state),
            "model, coeff, state = _zeros_state()",
            "_, report = march(state, model, coeff, SchemeConfig(lam=0.05), 0.05)",
            "print(*(f'{x.hex()} {math.copysign(1.0, x)}' for x in (report.u_min, report.u_max)))"])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout.split()
        model, coeff, state = _zeros_state()
        _, report = march(state, model, coeff, SchemeConfig(lam=0.05), 0.05)
        assert report.steps == 8
        here = [f"{x.hex()} {math.copysign(1.0, x)}" for x in (report.u_min, report.u_max)]
        assert out == " ".join(here).split() == ["0x0.0p+0", "1.0"] * 2

    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("collect", [False, "all"])  # windowed, and whole rows
    @pytest.mark.parametrize("case", KERNEL_CASES, ids=["lf", "nt", "nt-modified"])
    def test_zeros_of_both_signs_read_plus_zero(self, case, collect, rows):
        scheme, limiter = case
        model, coeff, state = _zeros_state()
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=0.05, collect_diagnostics=collect)
        _, report = _march_rows(rows, state, model, coeff, cfg, 0.05)
        extremes = [report.u_min, report.u_max, report.correction_max]
        assert [_float_bits(x) for x in extremes if x is not None] == \
            [("0x0.0p+0", 1.0)] * (3 - extremes.count(None))
