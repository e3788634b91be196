import math

import numpy as np
import pytest

from discflux import (CflLevel, LimiterConfig, LimiterKind, Mesh, Parity, Scheme,
                      SchemeConfig, StaggeredState, builtin_burgers_const_k,
                      cell_average_coefficient, correction_bound_check, nt_step,
                      nu_coefficient, onesided_check, slopes)
from discflux.diagnostics import TOL
from discflux.verify import (_burgers_setup, _random_states, suite_correction, suite_nu,
                             suite_onesided)

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
