import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discflux import (ExperimentSpec, InitialData, LimiterConfig, LimiterKind, Mesh, Parity,
                      SchemeConfig, StaggeredState, accumulate_cubic,
                      builtin_burgers_const_k, builtin_multiplicative,
                      builtin_two_flux_rational,
                      cell_average_coefficient, cfl_bound, CflLevel,
                      correction_bound_check, entropy_residual_lf, example_1,
                      lf_step, march, nt_step, nu_coefficient, onesided_check,
                      psi_constant, run_experiment, Scheme, slopes)
import discflux.diagnostics as diagnostics
import discflux.schemes as schemes
from discflux.diagnostics import DiagnosticsReport, _cube


def burgers_state(values, x_min=0.0, x_max=None):
    values = np.asarray(values, dtype=float)
    model, coeff = builtin_burgers_const_k()
    x_max = float(len(values)) if x_max is None else x_max
    mesh = Mesh.from_cells(x_min, x_max, len(values))
    state = StaggeredState(mesh=mesh, values=values,
                           kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                           parity=Parity.BASE, time=0.0, step_index=0)
    return model, coeff, state


class TestPsiConstant:
    def test_hand_formula(self):
        model, _ = builtin_burgers_const_k()
        lam, k_sup = 0.01, 1.0
        c = 1.0  # max(|0|, |1|)
        expected = (72 * lam**2 * c**2 * 1.0
                    + 114 * lam * c**2 * 1.0
                    + (708 * c**2 + 48 * lam * 1.0) * lam**2 * 1.0 * 1.0
                    + (48 * lam**2 * c * k_sup + 132 * lam**2 * c**2 * 1.0 * 1.0
                       + 64 * lam * 0.5 * k_sup + 88 * c) * lam * 0.5)
        assert psi_constant(model, lam, k_sup) == pytest.approx(expected, rel=1e-15)


class TestOnesidedCheck:
    def test_monotone_decreasing_convex_is_exact_zero(self):
        model, coeff, state = burgers_state(np.linspace(0.9, 0.1, 12))
        cfg = SchemeConfig(lam=cfl_bound(model, CflLevel.ONE_SIDED),
                           cfl_level=CflLevel.ONE_SIDED)
        new, _ = nt_step(state, model, coeff, cfg)
        lhs, rhs, holds = onesided_check(state, new, model, cfg.lam)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_single_positive_jump_rhs(self):
        delta = 0.6
        values = np.concatenate([np.full(6, 0.2), np.full(6, 0.2 + delta)])
        model, coeff, state = burgers_state(values)
        lam = cfl_bound(model, CflLevel.ONE_SIDED)
        cfg = SchemeConfig(lam=lam, cfl_level=CflLevel.ONE_SIDED)
        new, _ = nt_step(state, model, coeff, cfg)
        lhs, rhs, holds = onesided_check(state, new, model, lam)
        # constant coefficient: the bound is exactly the decayed jump sum
        assert rhs == pytest.approx(delta**2 - (lam * 1.0 / 500.0) * delta**3, rel=1e-14)
        assert holds and lhs <= rhs

    def test_coefficient_norms_default_from_state(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 10)
        rng = np.random.default_rng(1)
        state = StaggeredState(mesh=mesh, values=rng.uniform(0, 1, 10),
                               kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                               parity=Parity.BASE, time=0.0, step_index=0)
        cfg = SchemeConfig(lam=1 / 30)
        new, _ = nt_step(state, model, coeff, cfg)
        defaulted = onesided_check(state, new, model, cfg.lam)
        explicit = onesided_check(state, new, model, cfg.lam,
                                  k_sup=coeff.sup_norm, k_bv=coeff.bv_norm)
        # piecewise-constant coefficient with an interface jump: identical
        assert defaulted == explicit


class TestNuCoefficient:
    def test_flat_interface_contributes_zero(self):
        model, coeff, state = burgers_state([0.4, 0.4, 0.7, 0.9])
        sig = slopes(state.values, state.mesh.dx, LimiterConfig())
        nu = nu_coefficient(state, sig, model, lam=1e-4)
        du = np.diff(state.values)
        assert (nu * du**2)[0] == 0.0

    def test_zero_slopes_collapse_to_quarter_bracket(self):
        model, coeff, state = burgers_state([0.1, 0.4, 0.2, 0.6])
        nu = nu_coefficient(state, np.zeros(4), model, lam=0.1)
        ut = 0.5 * (state.values[:-1] + state.values[1:])
        beta = 0.1 * ut  # f_u = u for the unit-coefficient convex flux
        assert nu == pytest.approx(0.125 * (1 - 4 * beta**2), rel=1e-14)
        assert np.all(nu >= 0.0)

    def test_nonnegative_under_strict_cfl_random_walk(self):
        model, coeff, _ = burgers_state([0.0, 1.0])
        lam = cfl_bound(model, CflLevel.CUBIC_ESTIMATE)
        cfg = SchemeConfig(lam=lam, cfl_level=CflLevel.CUBIC_ESTIMATE)
        rng = np.random.default_rng(42)
        mesh = Mesh.from_cells(0.0, 1.0, 50)
        state = StaggeredState(mesh=mesh, values=rng.uniform(0, 1, 50),
                               kbar=np.ones(50), parity=Parity.BASE,
                               time=0.0, step_index=0)
        worst = np.inf
        for _ in range(50):
            sig = slopes(state.values, mesh.dx, cfg.limiter)
            worst = min(worst, np.min(nu_coefficient(state, sig, model, lam)))
            state, _ = nt_step(state, model, coeff, cfg)
        assert worst >= -1e-12

    def test_concave_model_sign_adjusted(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 10)
        state = StaggeredState(mesh=mesh, values=np.linspace(0.2, 0.8, 10),
                               kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                               parity=Parity.BASE, time=0.0, step_index=0)
        lam = cfl_bound(model, CflLevel.CUBIC_ESTIMATE) / model.sup_fu
        nu = nu_coefficient(state, np.zeros(10), model, lam)
        assert np.all(nu >= 0.0)  # uses |f_uu| for concave fluxes

    def test_alignment_enforced(self):
        model, coeff, state = burgers_state([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            nu_coefficient(state, np.zeros(2), model, 0.1)


class TestEntropyResidual:
    def test_constant_state_zero(self):
        model, coeff, state = burgers_state([0.4] * 6)
        new = lf_step(state, model, coeff, lam=0.1)
        res = entropy_residual_lf(state, new, model, 0.1, np.array([0.4]))
        assert res == 0.0

    def test_constant_far_from_data_nonpositive(self):
        model, coeff, state = burgers_state(np.linspace(0.1, 0.9, 8))
        new = lf_step(state, model, coeff, lam=0.1)
        assert entropy_residual_lf(state, new, model, 0.1, np.array([10.0])) <= 1e-12

    def test_both_transition_directions(self):
        model, coeff, state = burgers_state(np.linspace(0.9, 0.1, 8))
        mid = lf_step(state, model, coeff, lam=0.1)
        back = lf_step(mid, model, coeff, lam=0.1)
        grid = np.linspace(0, 1, 11)
        assert entropy_residual_lf(state, mid, model, 0.1, grid) <= 1e-12
        assert entropy_residual_lf(mid, back, model, 0.1, grid) <= 1e-12

    def test_parity_mismatch_rejected(self):
        model, coeff, state = burgers_state([0.4] * 6)
        with pytest.raises(ValueError):
            entropy_residual_lf(state, state, model, 0.1, np.array([0.0]))

    def test_march_judges_first_order_runs_only(self):
        spec = example_1()
        model, coeff = spec.build()
        mesh = spec.mesh()
        assert mesh.n_cells == 50
        state = spec.initial(mesh, coeff)

        def residual(scheme):
            cfg = SchemeConfig(scheme=scheme, lam=spec.lam)
            return march(state, model, coeff, cfg, 0.2)[1].to_json_dict()["entropy_max_residual"]

        assert residual(Scheme.NESSYAHU_TADMOR) is None
        lf = residual(Scheme.LAX_FRIEDRICHS)
        assert math.isfinite(lf) and lf <= 1e-12

    def test_nan_constant_is_skipped_as_the_loop_skipped_it(self):
        model, coeff, state = burgers_state(np.linspace(0.9, 0.1, 8))
        new = lf_step(state, model, coeff, lam=0.1)
        grid = np.array([np.nan, 0.5, np.nan])
        got = entropy_residual_lf(state, new, model, 0.1, grid)
        assert got == _entropy_residual_lf_oracle(state, new, model, 0.1, grid)
        assert got == entropy_residual_lf(state, new, model, 0.1, grid[1:2])
        assert entropy_residual_lf(state, new, model, 0.1, grid[:1]) == -math.inf


class TestAccumulateCubic:
    def test_constant_adds_nothing(self):
        _, _, state = burgers_state([0.5] * 8)
        report = DiagnosticsReport()
        accumulate_cubic(report, state, window_x=None)
        assert report.cubic_accumulator == 0.0

    def test_single_jump(self):
        delta = 0.3
        _, _, state = burgers_state([0.1] * 4 + [0.1 + delta] * 4,
                                    x_min=-4.0, x_max=4.0)
        report = DiagnosticsReport()
        accumulate_cubic(report, state, window_x=None)
        assert report.cubic_accumulator == pytest.approx(state.mesh.dx * delta**3, rel=1e-14)

    def test_window_excludes_outside_jumps(self):
        _, _, state = burgers_state([0.1] * 4 + [0.4] * 4, x_min=-4.0, x_max=4.0)
        report = DiagnosticsReport()
        accumulate_cubic(report, state, window_x=2.0)  # jump at x = 0 is inside
        inside = report.cubic_accumulator
        report2 = DiagnosticsReport()
        accumulate_cubic(report2, state, window_x=0.4)  # ... and still inside
        report3 = DiagnosticsReport()
        shifted = dataclasses.replace(state, values=np.array([0.1] * 2 + [0.4] * 6))
        accumulate_cubic(report3, shifted, window_x=0.4)  # jump at x = -2: outside
        assert inside > 0 and report2.cubic_accumulator == inside
        assert report3.cubic_accumulator == 0.0


class TestCorrectionBound:
    def test_zero_slopes_within_bound(self):
        model, coeff, state = burgers_state([0.5] * 8)
        cfg = SchemeConfig(lam=0.1, limiter=LimiterConfig(
            kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1.0, alpha=0.75))
        _, corr = nt_step(state, model, coeff, cfg)
        max_a, bound, holds = correction_bound_check(corr, cfg, model, state.mesh.dx)
        assert max_a == 0.0 and holds

    def test_plain_minmod_not_applicable(self):
        model, coeff, state = burgers_state([0.1, 0.5, 0.9, 0.4])
        cfg = SchemeConfig(lam=0.1)
        _, corr = nt_step(state, model, coeff, cfg)
        assert correction_bound_check(corr, cfg, model, state.mesh.dx) is None

    def test_tiny_cap_reaches_near_equality(self):
        # steep monotone ramp: every slope clamps to k_tilde * dx^alpha and
        # the a = s/8 part saturates the bound up to the lam^2 term
        model, coeff, state = burgers_state(np.linspace(1.0, 0.0, 40),
                                            x_min=0.0, x_max=1.0)
        cfg = SchemeConfig(lam=0.01, limiter=LimiterConfig(
            kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1e-6, alpha=0.75))
        _, corr = nt_step(state, model, coeff, cfg)
        max_a, bound, holds = correction_bound_check(corr, cfg, model, state.mesh.dx)
        assert holds
        assert max_a >= 0.9 * bound

    @pytest.mark.parametrize("light", [False, True])
    def test_march_reports_the_bound_only_where_it_applies(self, light):
        model, coeff, state = burgers_state(np.linspace(1.0, 0.0, 40), x_min=0.0, x_max=1.0)
        modified = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=0.5, alpha=0.75)

        def reported(scheme, limiter, t_end=0.1):
            cfg = SchemeConfig(scheme=scheme, lam=0.1, limiter=limiter,
                               collect_diagnostics=not light)
            return march(state, model, coeff, cfg, t_end)[1].correction_bound, cfg

        bound, cfg = reported(Scheme.NESSYAHU_TADMOR, modified)
        _, corr = nt_step(state, model, coeff, cfg)
        assert bound == correction_bound_check(corr, cfg, model, state.mesh.dx)[1]
        assert reported(Scheme.NESSYAHU_TADMOR, modified, t_end=0.0)[0] is None
        assert reported(Scheme.LAX_FRIEDRICHS, modified)[0] is None
        assert reported(Scheme.NESSYAHU_TADMOR, LimiterConfig())[0] is None


class TestReportJson:
    def test_schema_keys(self):
        report = DiagnosticsReport(scheme="lax-friedrichs", lam=0.05, dx=0.16)
        expected = {"scheme", "lambda", "dx", "steps", "snapped_time", "u_min",
                    "u_max", "onesided_holds", "onesided_worst_margin",
                    "cubic_accumulator", "quad_accumulator", "nu_min",
                    "entropy_max_residual", "correction_max", "correction_bound",
                    "cfl_level", "kappa_used", "kappa_bound"}
        payload = report.to_json_dict()
        assert set(payload) == expected
        assert payload["lambda"] == 0.05
        assert payload["u_min"] is None  # no states observed yet

    def test_non_finite_numbers_are_null(self):
        report = DiagnosticsReport(scheme="nessyahu-tadmor", lam=3.0, dx=0.04,
                                   cubic_accumulator=math.nan, quad_accumulator=math.inf,
                                   correction_max=-math.inf)
        payload = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert payload["cubic_accumulator"] is None
        assert payload["quad_accumulator"] is None
        assert payload["correction_max"] is None
        assert payload["lambda"] == 3.0 and payload["steps"] == 0


def _entropy_maxima_oracle(prev, next, model, lam, c_grid):
    """Each constant's worst residual as first written: four flux evaluations per
    constant on left/right slices, kept to pin the shared-evaluation form bit for bit."""
    if prev.parity is Parity.BASE:
        u, k = prev.values, prev.kbar
    else:
        u, k = (np.concatenate([a[:1], a, a[-1:]]) for a in (prev.values, prev.kbar))
    ul, ur, kl, kr = u[:-1], u[1:], k[:-1], k[1:]
    v = next.values
    for c in np.asarray(c_grid, dtype=float):
        flc = model.eval(kl, np.full_like(kl, c))
        frc = model.eval(kr, np.full_like(kr, c))
        f_left = np.sign(ul - c) * (model.eval(kl, ul) - flc)
        f_right = np.sign(ur - c) * (model.eval(kr, ur) - frc)
        res = (np.abs(v - c) - 0.5 * np.abs(ur - c) - 0.5 * np.abs(ul - c)
               + lam * (f_right - f_left) - lam * np.abs(frc - flc))
        yield float(np.max(res))


def _entropy_residual_lf_oracle(prev, next, model, lam, c_grid):
    """The worst residual over the constants, a NaN constant skipped as Python's max skips it."""
    worst = -math.inf
    for x in _entropy_maxima_oracle(prev, next, model, lam, c_grid):
        worst = max(worst, x)
    return worst


def _low(current, x):
    """The lesser of the two, as the report folds them: a NaN sticks."""
    return x if x < current or x != x else current


def _high(current, x):
    return x if x > current or x != x else current


def _as_value(x):
    """An extreme as the report gives it: +0.0 for a zero, math.nan for a NaN."""
    return 0.0 if x == 0 else math.nan if x != x else x


BUILTINS = [lambda: builtin_multiplicative(3.0, 1.0), builtin_two_flux_rational,
            builtin_burgers_const_k]


class TestEntropyResidualRewrite:
    @given(st.sampled_from(BUILTINS), st.sampled_from([Parity.BASE, Parity.HALF]),
           st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_bitwise(self, builtin, prev_parity, n_cells, seed):
        model, coeff = builtin()
        rng = np.random.default_rng(seed)
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        step = 0 if prev_parity is Parity.BASE else 1
        states = []
        for parity in (prev_parity, Parity.HALF if prev_parity is Parity.BASE else Parity.BASE):
            n = mesh.n_values(parity)
            states.append(StaggeredState(
                mesh=mesh, values=rng.uniform(model.u_lo, model.u_hi, n),
                kbar=cell_average_coefficient(mesh, coeff, parity), parity=parity,
                time=step * 0.01, step_index=step))
            step += 1
        lam, c_grid = rng.uniform(0.01, 0.2), np.linspace(model.u_lo, model.u_hi, 11)
        got = entropy_residual_lf(states[0], states[1], model, lam, c_grid)
        want = _entropy_residual_lf_oracle(states[0], states[1], model, lam, c_grid)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class _CollectorOracle:
    """The collector as it was before it reused the step's slopes: each
    transition of chained public steps is judged by the public checks alone,
    the slopes recomputed.  Extremes fold as the report folds them, a NaN sticking, and read
    as values: +0.0 for a zero, math.nan for a NaN."""

    def __init__(self, model, coeff, cfg, initial):
        self.model, self.coeff, self.cfg, self.initial = model, coeff, cfg, initial
        self.report = DiagnosticsReport(
            scheme=cfg.scheme.value, lam=cfg.lam, dx=initial.mesh.dx,
            snapped_time=initial.time, cfl_level=cfg.cfl_level.value,
            u_min=float(np.min(initial.values)), u_max=float(np.max(initial.values)),
            kappa_used=cfg.lam * model.sup_fu, kappa_bound=cfl_bound(model, cfg.cfl_level))
        lf = cfg.scheme is Scheme.LAX_FRIEDRICHS
        self.limiter = LimiterConfig(kind=LimiterKind.ZERO) if lf else cfg.limiter
        self.c_grid = np.linspace(model.u_lo, model.u_hi, 11) if lf else None

    def march(self, steps):
        """The report after `steps` chained `nt_step`s (or `lf_step`s) from the initial state."""
        model, coeff, cfg, prev = self.model, self.coeff, self.cfg, self.initial
        for _ in range(steps):
            if cfg.scheme is Scheme.NESSYAHU_TADMOR:
                next, corrections = nt_step(prev, model, coeff, cfg)
            else:
                next, corrections = lf_step(prev, model, coeff, cfg.lam, cfg.cfl_level), None
            self.observe(prev, next, corrections)
            prev = next
        rep = self.report
        rep.u_min, rep.u_max, rep.correction_max = map(
            _as_value, (rep.u_min, rep.u_max, rep.correction_max))
        return rep

    def observe(self, prev, next, corrections):
        rep, model, lam = self.report, self.model, self.cfg.lam
        rep.steps += 1
        rep.snapped_time = next.time
        rep.u_min = _low(rep.u_min, float(next.values.min()))
        rep.u_max = _high(rep.u_max, float(next.values.max()))
        if corrections is not None and len(corrections):
            rep.correction_max = _high(rep.correction_max, float(np.abs(corrections).max()))
            checked = correction_bound_check(corrections, self.cfg, model, prev.mesh.dx)
            rep.correction_bound = checked[1] if checked else None
        lhs, rhs, holds = onesided_check(prev, next, model, lam, k_sup=self.coeff.sup_norm,
                                         k_bv=self.coeff.bv_norm)
        rep.onesided_worst_margin = _low(rep.onesided_worst_margin, rhs - lhs)
        rep.onesided_holds = rep.onesided_holds and holds
        accumulate_cubic(rep, prev, self.cfg.window_x)
        # it raised on fewer than 3 values, where every slope the step takes is 0
        sig = (slopes(prev.values, prev.mesh.dx, self.limiter) if len(prev.values) >= 3
               else np.zeros(len(prev.values)))
        nu = nu_coefficient(prev, sig, model, lam)
        rep.quad_accumulator += prev.mesh.dx * float(np.sum(nu * np.diff(prev.values)**2))
        if len(nu):
            rep.nu_min = _low(rep.nu_min, float(np.min(nu)))
        if self.c_grid is not None:  # each constant's worst residual, as the collector folds
            for x in _entropy_maxima_oracle(prev, next, model, lam, self.c_grid):
                rep.entropy_max_residual = _high(rep.entropy_max_residual, x)


SCHEME_CASES = [
    (Scheme.NESSYAHU_TADMOR, LimiterKind.MINMOD),
    (Scheme.NESSYAHU_TADMOR, LimiterKind.MINMOD_MODIFIED),
    (Scheme.LAX_FRIEDRICHS, LimiterKind.MINMOD),
]


def _nu_oracle(u, du, kt, sig, model, lam):
    """`_nu` as it was before it took a slope-free form: r and s through a safe
    denominator and two selections, zero slopes passed as an array."""
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


NU_SPECIAL = [0.0, -0.0, 5e-324, 1e-160, 0.5, 1e154, 1e308, -1e308, math.inf, -math.inf,
              math.nan]


class TestNuWithoutSlopes:
    # a huge lam or huge values make beta = lam*f_u, or 1 - 4*beta**2, overflow to inf
    @given(st.sampled_from(BUILTINS),
           st.lists(st.one_of(st.sampled_from(NU_SPECIAL), st.floats(0.0, 1.0)),
                    min_size=2, max_size=40),
           st.one_of(st.sampled_from([1e-300, 0.01, 1e154, 1e300]), st.floats(1e-6, 1e308)),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_zero_slope_form_bitwise(self, builtin, values, lam, seed):
        model, _ = builtin()
        u = np.asarray(values)
        rng = np.random.default_rng(seed)
        kt = rng.uniform(model.k_lo, model.k_hi, len(u) - 1)
        sig = rng.uniform(-1.0, 1.0, len(u)) * rng.choice([0.0, 1.0, 1e300], len(u))
        with np.errstate(all="ignore"):
            du = u[1:] - u[:-1]
            got = diagnostics._nu(u, du, kt, None, model, lam)
            want = _nu_oracle(u, du, kt, np.zeros(len(u)), model, lam)
            got_sig = diagnostics._nu(u, du, kt, sig, model, lam)
            want_sig = _nu_oracle(u, du, kt, sig, model, lam)
        assert got.tobytes() == want.tobytes()
        assert got_sig.tobytes() == want_sig.tobytes()


def _march_in_blocks(rows, initial, *args):
    """`march` with blocks of `rows` pairs of steps, with or without a collector (None: the
    default block sizes)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            for name in ("_BLOCK_VALUES", "_FOLD_VALUES"):
                mp.setattr(schemes, name, rows * initial.mesh.n_cells)
        return march(initial, *args)


# blocks of 1, 2 or 3 steps make a march of up to 40 steps cross many block edges, at both
# parities; the default block holds at least 34 steps at these sizes
BLOCK_ROWS = st.sampled_from([None, 1, 2, 3])


class TestFusedCollector:
    @given(st.sampled_from(SCHEME_CASES), st.sampled_from(BUILTINS),
           st.sampled_from([None, 0.3]), st.integers(min_value=2, max_value=60),
           st.integers(min_value=1, max_value=20), st.floats(min_value=0.05, max_value=1.0),
           st.booleans(), BLOCK_ROWS, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_report_equals_oracle_bitwise(self, case, builtin, window_x, n_cells, pairs,
                                          cfl_share, own_kbar, rows, seed):
        scheme, kind = case
        model, coeff = builtin()
        rng = np.random.default_rng(seed)
        limiter = LimiterConfig(kind=kind, k_tilde=float(rng.uniform(0.01, 2.0)))
        lam = cfl_share * cfl_bound(model, CflLevel.MAX_PRINCIPLE) / model.sup_fu
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=lam, window_x=window_x,
                           collect_diagnostics="all")
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        kbar = cell_average_coefficient(mesh, coeff, Parity.BASE)
        initial = StaggeredState(
            mesh=mesh, values=rng.uniform(model.u_lo, model.u_hi, n_cells),
            kbar=kbar.copy() if own_kbar else kbar,  # a distinct array of the same bits
            parity=Parity.BASE, time=0.0, step_index=0)
        t_end = 2 * pairs * lam * mesh.dx
        if own_kbar and kbar[::-1].tobytes() != kbar.tobytes():  # a kbar of other bits
            with pytest.raises(ValueError, match="kbar"):
                _march_in_blocks(rows, dataclasses.replace(initial, kbar=kbar[::-1].copy()),
                                 model, coeff, cfg, t_end)
        _, report = _march_in_blocks(rows, initial, model, coeff, cfg, t_end)
        assert report.steps == 2 * pairs
        oracle = _CollectorOracle(model, coeff, cfg, initial).march(report.steps)
        assert json.dumps(report.to_json_dict()) == json.dumps(oracle.to_json_dict())

    @pytest.mark.parametrize("rows,folds", [(1, [2] * 7), (2, [4, 4, 4, 2]), (3, [6, 6, 2])])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_folds_once_per_block(self, rows, folds, scheme):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 30)
        initial = StaggeredState(mesh=mesh, values=np.linspace(0.9, 0.1, 30),
                                 kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                                 parity=Parity.BASE, time=0.0, step_index=0)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, window_x=0.3, collect_diagnostics="all")
        steps = []  # the steps of each `observe` call
        observe = diagnostics.DiagnosticsCollector.observe
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics.DiagnosticsCollector, "observe",
                       lambda self, *args: steps.append(2 * len(args[1])) or observe(self, *args))
            _, report = _march_in_blocks(rows, initial, model, coeff, cfg, 14 * 0.05 * mesh.dx)
        assert report.steps == 14 and steps == folds
        oracle = _CollectorOracle(model, coeff, cfg, initial).march(report.steps)
        assert json.dumps(report.to_json_dict()) == json.dumps(oracle.to_json_dict())

    @pytest.mark.parametrize("rows", [None, 1, 2])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_observes_the_march_blocks(self, rows, scheme):
        # `observe` folds the rows the steps wrote: views of the march's own blocks, the
        # last Base rows holding the final state, never copies; the march returns a copy of
        # that row, so that the final state keeps no block alive
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 30)
        initial = StaggeredState(mesh=mesh, values=np.linspace(0.9, 0.1, 30),
                                 kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                                 parity=Parity.BASE, time=0.0, step_index=0)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics="all")
        calls = []
        observe = diagnostics.DiagnosticsCollector.observe
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics.DiagnosticsCollector, "observe",
                       lambda self, *args: calls.append(args) or observe(self, *args))
            final, report = _march_in_blocks(rows, initial, model, coeff, cfg,
                                             14 * 0.05 * mesh.dx)
        assert report.steps == 14 and len(calls) == (1 if rows is None else -(-7 // rows))
        a, b, sig = calls[-1]
        assert a.base is not None and b.base is not None  # views
        assert not np.shares_memory(a, final.values) and a[-1].tobytes() == final.values.tobytes()
        for args in calls[:-1]:  # every block lies in the same two buffers
            assert np.shares_memory(args[0], a) and np.shares_memory(args[1], b)
            if sig is not None:
                assert all(np.shares_memory(s, t) for s, t in zip(args[2], sig))
        assert (sig is None) == (scheme is Scheme.LAX_FRIEDRICHS)

    @pytest.mark.parametrize("scheme, collect, builds", [
        (Scheme.LAX_FRIEDRICHS, True, 2), (Scheme.NESSYAHU_TADMOR, "all", 0)])
    def test_builds_the_kruzkov_tables_once_per_march(self, scheme, collect, builds):
        # every step takes the march's coefficient: one table per parity for LF, none for NT,
        # which judges no entropy residual
        calls, real = [], diagnostics._kruzkov_table
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagnostics, "_kruzkov_table",
                       lambda *args: calls.append(args) or real(*args))
            run = run_experiment(example_1(), scheme, collect_diagnostics=collect)
        assert run.report.steps == 1200 and run.report.entropy_max_residual is not None
        assert len(calls) == builds


def _report_bits(report):
    """Every field of the report, floats as their hex and sign (the hex of a NaN drops it)."""
    return {k: (v.hex(), math.copysign(1.0, v)) if isinstance(v, float) else v
            for k, v in dataclasses.asdict(report).items()}


class TestCollectorOnABlowUp:
    # outside the CFL bound (multiplicative 3|1, dx 0.04, step 0.9|0.1 at 0, lambda 3) every
    # state from step 10 on holds a NaN, which must stick in every folded field
    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_report_equals_oracle_bitwise(self, scheme, rows):
        spec = ExperimentSpec(name="blow-up", model_name="multiplicative",
                              model_params={"k_left": 3.0, "k_right": 1.0}, dx=0.04, lam=3.0,
                              u0=InitialData.step(0.9, 0.1), cfl_level=CflLevel.MANUAL)
        model, coeff = spec.build()
        initial = spec.initial(spec.mesh(), coeff)
        cfg = SchemeConfig(scheme=scheme, lam=spec.lam, cfl_level=CflLevel.MANUAL,
                           collect_diagnostics="all")
        with np.errstate(all="ignore"):
            _, report = _march_in_blocks(rows, initial, model, coeff, cfg, 2.0)
            oracle = _CollectorOracle(model, coeff, cfg, initial).march(report.steps)
        assert report.steps == 16
        assert math.isnan(report.u_max) and math.isnan(report.onesided_worst_margin)
        assert _report_bits(report) == _report_bits(oracle)


CUBE_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
                1e-110, 2.0**-358]


def _scalar_cubes(a, out=None):
    """(x*x)*x of each value in Python floats, one at a time (no SIMD loop is involved),
    into `out` when given, as `_cube` takes it."""
    cubes = np.array([x * x * x for x in a.ravel().tolist()], dtype=float).reshape(a.shape)
    if out is None:
        return cubes
    out[...] = cubes
    return out


class TestCubeSkipsZeros:
    # a position-dependent (SIMD) product would show as a byte difference from the scalar
    # products; lists up to 300 long vary the positions
    @given(st.lists(st.one_of(st.sampled_from(CUBE_SPECIAL), st.integers(-3, 3).map(float),
                              st.floats()), max_size=300))
    @settings(max_examples=300)
    def test_equals_pow_bitwise(self, values):
        a = np.asarray(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _cube(a).tobytes() == _scalar_cubes(a).tobytes()


class TestCollectorOnPiecewiseConstantStates:
    # a march from piecewise-constant data keeps exact-zero jumps; -0.0 next to 0.0 makes a
    # -0.0 jump
    @given(st.sampled_from([builtin_burgers_const_k, lambda: builtin_multiplicative(3.0, 1.0)]),
           st.sampled_from(SCHEME_CASES), st.sampled_from([None, 0.3]),
           st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=6),
           st.integers(min_value=8, max_value=60), st.integers(min_value=1, max_value=20),
           BLOCK_ROWS, st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_report_equals_oracle_bitwise(self, builtin, case, window_x, levels, n_cells,
                                          pairs, rows, seed):
        scheme, kind = case
        model, coeff = builtin()
        rng = np.random.default_rng(seed)
        starts = np.sort(rng.choice(np.arange(1, n_cells), len(levels) - 1, replace=False))
        values = np.asarray(levels)[np.searchsorted(starts, np.arange(n_cells), side="right")]
        assert (np.diff(values) == 0).any()
        limiter = LimiterConfig(kind=kind, k_tilde=float(rng.uniform(0.01, 2.0)))
        lam = 0.5 * cfl_bound(model, CflLevel.MAX_PRINCIPLE) / model.sup_fu
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=lam, window_x=window_x,
                           collect_diagnostics="all")
        mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
        initial = StaggeredState(mesh=mesh, values=values,
                                 kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                                 parity=Parity.BASE, time=0.0, step_index=0)
        t_end = 2 * pairs * lam * mesh.dx
        _, report = _march_in_blocks(rows, initial, model, coeff, cfg, t_end)
        assert report.steps == 2 * pairs
        oracle = _CollectorOracle(model, coeff, cfg, initial).march(report.steps)
        assert json.dumps(report.to_json_dict()) == json.dumps(oracle.to_json_dict())
        with pytest.MonkeyPatch.context() as mp:  # the oracle shares `_cube`: cube by scalars
            mp.setattr(diagnostics, "_cube", _scalar_cubes)
            _, scalar = _march_in_blocks(rows, initial, model, coeff, cfg, t_end)
        assert json.dumps(report.to_json_dict()) == json.dumps(scalar.to_json_dict())


ESTIMATE_KEYS = ["onesided_holds", "onesided_worst_margin", "cubic_accumulator",
                 "quad_accumulator", "nu_min", "entropy_max_residual", "correction_max"]
COLLECTOR_KEYS = set(ESTIMATE_KEYS) - {"correction_max"}


def _claimed_keys(scheme, kind, level):
    """The report keys of the estimates the paper claims for a run, and the extremes."""
    keys = {"u_min", "u_max"}
    if level in (CflLevel.ONE_SIDED, CflLevel.CUBIC_ESTIMATE):
        keys |= {"onesided_holds", "onesided_worst_margin"}
    if level is CflLevel.CUBIC_ESTIMATE:
        keys |= {"cubic_accumulator", "quad_accumulator", "nu_min"}
    if scheme is Scheme.LAX_FRIEDRICHS and level is not CflLevel.MANUAL:
        keys.add("entropy_max_residual")
    if scheme is Scheme.NESSYAHU_TADMOR and kind is LimiterKind.MINMOD_MODIFIED:
        keys.add("correction_max")
    return keys


def _bits(value):
    return (value.hex(), math.copysign(1.0, value)) if isinstance(value, float) else value


class TestClaims:
    # a few steps of Burgers on 20 cells from a seeded random state, as the verify suites
    # set up theirs; the manual level runs at kappa 0.1, inside the maximum principle
    @pytest.mark.parametrize("kind", list(LimiterKind))
    @pytest.mark.parametrize("level", list(CflLevel))
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_report_computes_only_the_claimed_estimates(self, monkeypatch, scheme, level, kind):
        model, coeff = builtin_burgers_const_k()
        kappa = 0.1 if level is CflLevel.MANUAL else cfl_bound(model, level)
        cfg = SchemeConfig(scheme=scheme, lam=kappa / model.sup_fu, cfl_level=level,
                           limiter=LimiterConfig(kind=kind, k_tilde=0.5))
        mesh = Mesh.from_cells(0.0, 1.0, 20)
        initial = StaggeredState(mesh=mesh,
                                 values=np.random.default_rng(20240820).uniform(0.0, 1.0, 20),
                                 kbar=cell_average_coefficient(mesh, coeff, Parity.BASE),
                                 parity=Parity.BASE, time=0.0, step_index=0)
        t_end = 6 * cfg.lam * mesh.dx
        built = []
        real = schemes.DiagnosticsCollector
        monkeypatch.setattr(schemes, "DiagnosticsCollector",
                            lambda *args: built.append(args) or real(*args))
        _, claimed = march(initial, model, coeff, cfg, t_end)
        claimed_built, built[:] = len(built), []
        _, full = march(initial, model, coeff,
                        dataclasses.replace(cfg, collect_diagnostics="all"), t_end)
        assert claimed.steps == full.steps == 6 and len(built) == 1
        keys = _claimed_keys(scheme, kind, level)
        assert claimed_built == (1 if keys & COLLECTOR_KEYS else 0)
        for key, value in dataclasses.asdict(claimed).items():
            if key in ESTIMATE_KEYS and key not in keys:
                assert value is None, key
            else:
                assert _bits(value) == _bits(getattr(full, key)), key
        for key in keys:
            assert getattr(claimed, key) is not None, key
        payload = json.loads(json.dumps(claimed.to_json_dict(), allow_nan=False))
        assert [key for key in ESTIMATE_KEYS if payload[key] is None] == [
            key for key in ESTIMATE_KEYS if key not in keys]

    def test_a_march_without_a_report_computes_no_estimate(self):
        model, coeff, state = burgers_state(np.linspace(1.0, 0.0, 20), x_min=0.0, x_max=1.0)
        cfg = SchemeConfig(lam=0.1, limiter=LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED),
                           collect_diagnostics=False)
        _, report = march(state, model, coeff, cfg, 4 * 0.1 * state.mesh.dx, report=False)
        assert all(getattr(report, key) is None for key in ESTIMATE_KEYS)
