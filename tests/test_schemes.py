import math

import numpy as np
import pytest

import discflux.schemes as schemes
from discflux import (CflError, CflLevel, Coefficient, Convexity, FluxModel,
                      LimiterConfig, LimiterKind, Mesh, Parity, Scheme,
                      SchemeConfig, StaggeredState, builtin_burgers_const_k,
                      builtin_multiplicative, cell_average_coefficient,
                      cfl_bound, initial_state, lf_step, march,
                      mid_time_values, nt_step, predictor_corrector_step,
                      snap_steps)


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
        final, report = march(state, model, coeff, SchemeConfig(lam=1 / 30), 0.0)
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


class _CorrectionLog:
    def __init__(self):
        self.a = []

    def observe(self, prev, next, corrections):
        self.a.append(None if corrections is None else corrections.tobytes())


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
        log = _CorrectionLog()
        final, report = march(state, model, coeff, cfg, 0.1, observers=[log])
        assert report.steps >= 60 and not math.isinf(report.nu_min)
        by_hand, corrections = state, []
        for _ in range(report.steps):
            if scheme is Scheme.NESSYAHU_TADMOR:
                by_hand, corr = nt_step(by_hand, model, coeff, cfg)
                corrections.append(corr.tobytes())
            else:
                by_hand = lf_step(by_hand, model, coeff, cfg.lam)
                corrections.append(None)
        assert final.values.tobytes() == by_hand.values.tobytes()
        assert log.a == corrections

    def test_first_step_uses_the_initial_states_own_kbar(self):
        model, coeff, state, cfg = _kernel_run(40)
        own = StaggeredState(mesh=state.mesh, values=state.values,
                             kbar=np.full_like(state.kbar, 2.0),
                             parity=Parity.BASE, time=0.0, step_index=0)
        two_steps = 2 * cfg.lam * state.mesh.dx
        final, report = march(own, model, coeff, cfg, two_steps)
        assert report.steps == 2
        by_hand, _ = nt_step(nt_step(own, model, coeff, cfg)[0], model, coeff, cfg)
        assert final.values.tobytes() == by_hand.values.tobytes()
        plain, _ = march(state, model, coeff, cfg, two_steps)
        assert final.values.tobytes() != plain.values.tobytes()

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
