import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import discflux.diagnostics as diagnostics
import discflux.verify as verify

from discflux import (CflLevel, LimiterConfig, LimiterKind, Mesh, Parity, Scheme,
                      SchemeConfig, StaggeredState, builtin_burgers_const_k,
                      cell_average_coefficient, correction_bound_check, nt_step,
                      nu_coefficient, onesided_check, slopes)
from discflux.diagnostics import TOL, DiagnosticsReport
from discflux.verify import (_burgers_setup, _random_states, suite_correction, suite_entropy,
                             suite_maxprinciple, suite_nu, suite_onesided)

# The per-step loops the suites ran before they marched, kept as oracles: each
# steps the public `nt_step` and judges every transition itself.


def _onesided_oracle(n_states, n_steps):
    model, coeff, cfg, mesh = _burgers_setup(CflLevel.ONE_SIDED)
    worst = math.inf
    for state in _random_states(n_states, mesh, coeff, seed=20240818):
        for _ in range(n_steps):
            new, _ = nt_step(state, model, coeff, cfg)
            lhs, rhs, _ = onesided_check(state, new, model, cfg.lam)
            worst = min(worst, rhs - lhs)
            state = new
    return worst


def _nu_oracle(n_states, n_steps):
    model, coeff, cfg, mesh = _burgers_setup(CflLevel.CUBIC_ESTIMATE)
    worst = math.inf
    for state in _random_states(n_states, mesh, coeff, seed=20240819):
        for _ in range(n_steps):
            sig = slopes(state.values, mesh.dx, cfg.limiter)
            nu = nu_coefficient(state, sig, model, cfg.lam)
            worst = min(worst, float(np.min(nu)))
            state, _ = nt_step(state, model, coeff, cfg)
    return worst


def _correction_oracle(dxs, n_steps):
    model, coeff = builtin_burgers_const_k()
    lim = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1.0, alpha=0.75)
    cfg = SchemeConfig(scheme=Scheme.NESSYAHU_TADMOR, lam=0.2, limiter=lim)
    worst = math.inf
    for dx in dxs:
        mesh = Mesh.from_cells(0.0, 1.0, round(1.0 / dx))
        kbar = cell_average_coefficient(mesh, coeff, Parity.BASE)
        values = np.where(mesh.centers(Parity.BASE) < 0.5, 1.0, 0.0)
        state = StaggeredState(mesh=mesh, values=values, kbar=kbar,
                               parity=Parity.BASE, time=0.0, step_index=0)
        for _ in range(n_steps):
            state, corr = nt_step(state, model, coeff, cfg)
            max_a, bound, _ = correction_bound_check(corr, cfg, model, mesh.dx)
            worst = min(worst, bound + TOL - max_a)
    return worst


def _bits(x):
    return np.float64(x).tobytes()


class TestMarchingSuitesEqualTheirStepLoops:
    @pytest.mark.parametrize("n_steps", [2, 20])
    def test_onesided(self, n_steps):
        got = suite_onesided(n_states=2, n_steps=n_steps)
        assert _bits(got.worst_margin) == _bits(_onesided_oracle(2, n_steps))
        assert got.passed

    @pytest.mark.parametrize("n_steps", [2, 20])
    def test_nu(self, n_steps):
        got = suite_nu(n_states=2, n_steps=n_steps)
        assert _bits(got.worst_margin) == _bits(_nu_oracle(2, n_steps))
        assert got.passed

    @pytest.mark.parametrize("n_steps", [2, 20])
    def test_correction(self, n_steps):
        got = suite_correction(dxs=(1e-2, 1e-3), n_steps=n_steps)
        assert _bits(got.worst_margin) == _bits(_correction_oracle((1e-2, 1e-3), n_steps))
        assert got.passed


class TestMaxPrincipleOnNanExtremes:
    # Python's min keeps its left operand against NaN, so `min(worst, margin)` skipped a run
    # whose report held a NaN extreme and the suite passed
    @pytest.mark.parametrize("blown", [0, 3])
    @pytest.mark.parametrize("extreme", ["u_min", "u_max"])
    def test_a_nan_extreme_fails(self, monkeypatch, blown, extreme):
        runs = []

        def run_experiment(spec, scheme, **kwargs):
            report = DiagnosticsReport(u_min=0.2, u_max=0.8)
            if len(runs) == blown:
                setattr(report, extreme, math.nan)
            runs.append(report)
            return SimpleNamespace(report=report)

        monkeypatch.setattr(verify, "run_experiment", run_experiment)
        result = verify.suite_maxprinciple()
        assert len(runs) == 4
        assert not result.passed and math.isnan(result.worst_margin)


class TestMarchingSuitesOnNanMargins:
    # Python's min keeps its left operand against NaN, so a march whose report held a NaN
    # margin was skipped (after the first march, or always from the correction suite's
    # starting inf) and the suite passed
    @pytest.mark.parametrize("blown", [0, 2])
    @pytest.mark.parametrize("suite, field", [(suite_onesided, "onesided_worst_margin"),
                                              (suite_nu, "nu_min"),
                                              (suite_correction, "correction_max")])
    def test_a_nan_margin_fails(self, monkeypatch, suite, field, blown):
        marches = []

        def march(state, model, coeff, cfg, t_end):
            report = DiagnosticsReport(onesided_worst_margin=0.5, nu_min=0.5,
                                       correction_max=0.0, correction_bound=1.0)
            if len(marches) == blown:
                setattr(report, field, math.nan)
            marches.append(report)
            return state, report

        monkeypatch.setattr(verify, "march", march)
        result = suite()
        assert len(marches) > blown
        assert not result.passed and math.isnan(result.worst_margin)


class TestEntropySuiteOnNanResidual:
    # Python's max keeps its left operand against NaN, so a NaN residual from the second
    # example was skipped and the suite passed
    @pytest.mark.parametrize("blown", [0, 1])
    def test_a_nan_residual_fails(self, monkeypatch, blown):
        runs = []

        def run_experiment(spec, scheme, **kwargs):
            report = DiagnosticsReport(entropy_max_residual=1e-15)
            if len(runs) == blown:
                report.entropy_max_residual = math.nan
            runs.append(report)
            return SimpleNamespace(report=report)

        monkeypatch.setattr(verify, "run_experiment", run_experiment)
        result = verify.suite_entropy()
        assert len(runs) == 2
        assert not result.passed and math.isnan(result.worst_margin)


class TestStepSuitesOnNanDeviations:
    # Python's max keeps its left operand against NaN, so a NaN deviation was skipped and
    # the suite passed with a deviation of 0
    @pytest.mark.parametrize("suite", [verify.suite_identity, verify.suite_degeneration])
    def test_a_nan_second_order_step_fails(self, monkeypatch, suite):
        real = verify.nt_step

        def nt_step(state, *args):
            new, corr = real(state, *args)
            return dataclasses.replace(new, values=np.full_like(new.values, math.nan)), corr

        monkeypatch.setattr(verify, "nt_step", nt_step)
        result = suite(n_states=2)
        assert not result.passed and math.isnan(result.worst_margin)


class TestSuitesOnUncomputedFigures:
    # a report holds None for an estimate its march did not compute: the suites raised on it
    # (or, before None, passed on the never-observed default)
    @pytest.mark.parametrize("suite, key", [
        (lambda: suite_onesided(n_states=1, n_steps=2), "onesided_worst_margin"),
        (lambda: suite_nu(n_states=1, n_steps=2), "nu_min"),
        (suite_entropy, "entropy_max_residual"),
        (lambda: suite_correction(dxs=(1e-2,), n_steps=2), "correction_max"),
    ], ids=["onesided", "nu", "entropy", "correction"])
    def test_a_table_that_claims_nothing_fails_the_suite(self, monkeypatch, suite, key):
        monkeypatch.setattr(diagnostics, "CLAIMS", {})
        result = suite()
        assert not result.passed and math.isnan(result.worst_margin)
        assert key in result.detail and "FAIL" in result.line()

    def test_maxprinciple_reads_extremes_that_every_report_takes(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "CLAIMS", {})
        assert suite_maxprinciple().passed
