import numpy as np
import pytest

from discflux import (Coefficient, Convexity, FluxModel, builtin_burgers_const_k,
                      builtin_multiplicative, builtin_two_flux_rational, make_model,
                      verify_hypotheses)

BUILTINS = {
    "multiplicative": lambda: builtin_multiplicative(3.0, 1.0),
    "two-flux-rational": builtin_two_flux_rational,
    "burgers-const-k": builtin_burgers_const_k,
}


def quadratic_model():
    """f = k*u^2: violates endpoint flux equality (f(k, 1) = k varies)."""
    model = FluxModel(
        name="k-u-squared",
        eval=lambda k, u: k * u * u,
        d_u=lambda k, u: 2.0 * k * u,
        d_k=lambda k, u: u * u + 0.0 * k,
        d_uu=lambda k, u: 2.0 * k + 0.0 * u,
        d_uk=lambda k, u: 2.0 * u + 0.0 * k,
        u_lo=0.0, u_hi=1.0, k_lo=1.0, k_hi=3.0,
        convexity=Convexity.STRICTLY_CONVEX,
        gamma1=2.0, gamma2=6.0, sup_fu=6.0, sup_fk=1.0, sup_fuk=2.0,
    )
    return model, Coefficient.piecewise_constant([0.0], [3.0, 1.0])


class TestMultiplicative:
    def test_point_value(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        assert model.eval(3.0, 0.15) == pytest.approx(0.3825, rel=1e-12)

    def test_endpoint_fluxes_vanish(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        for k in (1.0, 3.0):
            assert model.eval(k, 0.0) == 0.0
            assert model.eval(k, 1.0) == 0.0

    def test_bounds(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        assert model.gamma1 == 2.0
        assert model.gamma2 == 6.0
        assert model.sup_fu == 3.0
        assert model.convexity is Convexity.STRICTLY_CONCAVE

    def test_coefficient(self):
        _, coeff = builtin_multiplicative(3.0, 1.0)
        assert coeff.breaks == (0.0,)
        assert coeff.bv_norm == 2.0
        assert coeff.sup_norm == 3.0
        assert coeff.limits_at(0.0) == (3.0, 1.0)

    @pytest.mark.parametrize("bad", [(-1.0, 1.0), (2.0, 0.0)])
    def test_rejects_nonpositive_coefficients(self, bad):
        with pytest.raises(ValueError):
            builtin_multiplicative(*bad)


class TestTwoFluxRational:
    def test_flux_crossing_at_half(self):
        # both branches equal 2*0.25/1.5 = 1/3 at u = 0.5: the crossing point
        model, _ = builtin_two_flux_rational()
        assert model.eval(0.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert model.eval(1.0, 0.5) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_endpoint_fluxes_vanish(self):
        model, _ = builtin_two_flux_rational()
        for k in (0.0, 1.0):
            assert model.eval(k, 0.0) == 0.0
            assert model.eval(k, 1.0) == 0.0

    def test_curvature_bounds(self):
        # second u-derivatives are -8/(1+u)^3 and -8/(2-u)^3 on [0, 1]
        model, _ = builtin_two_flux_rational()
        assert model.gamma1 == 1.0
        assert model.gamma2 == 8.0
        assert model.sup_fu == 2.0
        assert model.convexity is Convexity.STRICTLY_CONCAVE


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_derivatives_match_finite_differences(name):
    model, _ = BUILTINS[name]()
    ks = np.linspace(model.k_lo, model.k_hi, 64)
    us = np.linspace(model.u_lo, model.u_hi, 64)
    K, U = np.meshgrid(ks, us, indexing="ij")
    h = 1e-5

    def rel_ok(approx, exact):
        return np.all(np.abs(approx - exact) <= 1e-6 * (1.0 + np.abs(exact)))

    assert rel_ok((model.eval(K, U + h) - model.eval(K, U - h)) / (2 * h), model.d_u(K, U))
    assert rel_ok((model.eval(K + h, U) - model.eval(K - h, U)) / (2 * h), model.d_k(K, U))
    assert rel_ok((model.eval(K, U + h) - 2 * model.eval(K, U) + model.eval(K, U - h)) / h**2,
                  model.d_uu(K, U))
    assert rel_ok((model.eval(K + h, U + h) - model.eval(K + h, U - h)
                   - model.eval(K - h, U + h) + model.eval(K - h, U - h)) / (4 * h * h),
                  model.d_uk(K, U))


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_second_k_difference_vanishes(name):
    # all builtins are affine in k
    model, _ = BUILTINS[name]()
    ks = np.linspace(model.k_lo, model.k_hi, 64)
    us = np.linspace(model.u_lo, model.u_hi, 64)
    K, U = np.meshgrid(ks, us, indexing="ij")
    h = 1e-2
    d2 = (model.eval(K + h, U) - 2 * model.eval(K, U) + model.eval(K - h, U)) / h**2
    assert np.all(np.abs(d2) <= 1e-8 * (1.0 + np.abs(model.eval(K, U))))


class TestVerifyHypotheses:
    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtins_pass(self, name):
        model, coeff = BUILTINS[name]()
        report = verify_hypotheses(model, coeff, 64)
        assert report.all_passed, {k: (v.passed, v.worst) for k, v in report.checks.items()}

    def test_endpoint_inequality_detected(self):
        model, coeff = quadratic_model()
        report = verify_hypotheses(model, coeff, 64)
        assert not report["H5"].passed
        assert report["H5"].worst == pytest.approx(2.0, rel=1e-9)
        assert report["H2"].passed and report["H3"].passed

    def test_crossing_violation_detected(self):
        # flux difference across the jump k: 1 -> 2 is 0.25 - 0.5u, which
        # crosses from + to - as u grows: the inadmissible direction
        model = FluxModel(
            name="crossing-violator",
            eval=lambda k, u: 0.05 * u * u + (k - 1.0) * 0.5 * (0.5 - u),
            d_u=lambda k, u: 0.1 * u - 0.5 * (k - 1.0),
            d_k=lambda k, u: 0.5 * (0.5 - u) + 0.0 * k,
            d_uu=lambda k, u: 0.1 + 0.0 * (k + u),
            d_uk=lambda k, u: -0.5 + 0.0 * (k + u),
            u_lo=0.0, u_hi=1.0, k_lo=1.0, k_hi=2.0,
            convexity=Convexity.STRICTLY_CONVEX,
            gamma1=0.1, gamma2=0.1, sup_fu=0.6, sup_fk=0.25, sup_fuk=0.5,
        )
        coeff = Coefficient.piecewise_constant([0.0], [1.0, 2.0])
        report = verify_hypotheses(model, coeff, 64)
        assert not report["H7"].passed
        u1, u2, x_m = report["H7"].witness
        assert x_m == 0.0 and u1 >= u2

    def test_sample_count_validated(self):
        model, coeff = builtin_burgers_const_k()
        with pytest.raises(ValueError):
            verify_hypotheses(model, coeff, 1)


class TestSupBounds:
    def test_multiplicative_closed_form(self):
        model, _ = builtin_multiplicative(3.0, 1.0)
        fu, g1, g2 = model.sup_fu, model.gamma1, model.gamma2
        assert (fu, g1, g2) == (3.0, 2.0, 6.0)

    def test_burgers(self):
        model, _ = builtin_burgers_const_k()
        fu, g1, g2 = model.sup_fu, model.gamma1, model.gamma2
        assert (fu, g1, g2) == (1.0, 1.0, 1.0)

    def test_sampled_model_close_to_exact(self):
        exact, _ = builtin_multiplicative(3.0, 1.0)
        sampled = FluxModel.from_callables(
            "sampled", exact.eval, exact.d_u, exact.d_k, exact.d_uu, exact.d_uk,
            exact.u_lo, exact.u_hi, exact.k_lo, exact.k_hi, exact.convexity)
        assert not sampled.exact_bounds
        assert sampled.sup_fu == pytest.approx(3.0, rel=1e-6)
        assert sampled.gamma1 == pytest.approx(2.0, rel=1e-6)
        assert sampled.gamma2 == pytest.approx(6.0, rel=1e-6)

    def test_eval_only_fallback_is_flagged(self):
        exact, _ = builtin_burgers_const_k()
        model = FluxModel.from_eval_only("fd", exact.eval, 0.0, 1.0, 1.0, 1.0,
                                         Convexity.STRICTLY_CONVEX, samples=128)
        assert model.fd_derivatives
        assert model.sup_fu == pytest.approx(1.0, rel=1e-4)


class TestCoefficient:
    def test_rejects_unsorted_breaks(self):
        with pytest.raises(ValueError):
            Coefficient.piecewise_constant([1.0, 0.0], [1.0, 2.0, 3.0])

    def test_rejects_piece_count_mismatch(self):
        with pytest.raises(ValueError):
            Coefficient.piecewise_constant([0.0], [1.0])

    def test_bv_norm_sums_jumps(self):
        coeff = Coefficient.piecewise_constant([-1.0, 2.0], [3.0, 1.0, 2.0])
        assert coeff.bv_norm == 3.0
        assert coeff.sup_norm == 3.0
        assert coeff(np.array([-2.0, 0.0, 5.0])).tolist() == [3.0, 1.0, 2.0]


def test_make_model_dispatch():
    model, _ = make_model("multiplicative", k_left=2.0, k_right=1.0)
    assert model.gamma2 == 4.0
    with pytest.raises(ValueError):
        make_model("no-such-model")
