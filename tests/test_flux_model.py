import math

import numpy as np
import pytest

from discflux import (Coefficient, Convexity, FluxModel, builtin_burgers_const_k,
                      builtin_multiplicative, builtin_two_flux_rational, make_model,
                      verify_hypotheses)
from discflux.flux_model import _two_flux_left, _two_flux_right

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

    # (1.0, nan) gave sup_fu 1.0 and bv_norm nan, and a run of it passed the CFL check and
    # ended on a state of NaNs
    @pytest.mark.parametrize("bad", [(-1.0, 1.0), (2.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
                                     (math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0),
                                     (1.0, -math.inf)])
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

    @pytest.mark.parametrize("n", [50, 1999, 2000])
    def test_eval_equals_the_two_branches_bitwise(self, n):
        # `eval` takes the numerator 2u(1-u) once; the former form took it in each branch
        model, _ = builtin_two_flux_rational()
        special = [0.0, -0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 1.0, 2.0, -1.0]
        rng = np.random.default_rng(n)
        u = rng.choice(np.concatenate([special, rng.uniform(-0.5, 1.5, 20)]), n)
        k = rng.choice(np.concatenate([special, [0.0, 1.0] * 10, rng.uniform(0, 1, 20)]), n)
        with np.errstate(all="ignore"):
            got = model.eval(k, u)
            want = k * _two_flux_right(u) + (1.0 - k) * _two_flux_left(u)
        assert got.tobytes() == want.tobytes()


def _former_two_flux(k, u):
    g = 2.0 * u * (1.0 - u)
    return k * (g / (2.0 - u)) + (1.0 - k) * (g / (1.0 + u))


# each builtin flux as it was before it computed in place
FORMER_EVALS = {"multiplicative": lambda k, u: k * u * (1.0 - u),
                "two-flux-rational": _former_two_flux,
                "burgers-const-k": lambda k, u: 0.5 * k * u * u}
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, -np.nan,
                    1.0, 2.0, -1.0, 0.3])
_RNG = np.random.default_rng(20)
EVAL_INPUTS = {
    "arrays": (_RNG.choice(SPECIAL, 2000), _RNG.choice(SPECIAL, 2000)),
    "short arrays": (SPECIAL, SPECIAL[::-1].copy()),
    "python scalars": (0.5, 0.3),
    "numpy scalars": (np.float64(1e308), np.float64(-0.0)),
    "0-d arrays": (np.array(0.25), np.array(np.inf)),
    "scalar k": (0.5, SPECIAL),
    "scalar u": (SPECIAL, 0.75),
    "k broadcast against u": (SPECIAL[:, None], SPECIAL),
    "u broadcast against k": (SPECIAL, SPECIAL[:, None]),
}


def _former_two_flux_d_u(k, u):
    dl = 2.0 * (1.0 - 2.0 * u - u * u) / (1.0 + u) ** 2
    dr = 2.0 * (2.0 - 4.0 * u + u * u) / (2.0 - u) ** 2
    return k * dr + (1.0 - k) * dl


# each builtin f_u as it was before it took its constants as 0-d arrays
FORMER_D_US = {"multiplicative": lambda k, u: k * (1.0 - 2.0 * u),
               "two-flux-rational": _former_two_flux_d_u,
               "burgers-const-k": lambda k, u: k * u}


def _assert_equals_former_bitwise(fn, former, k, u):
    kept = [np.copy(x) for x in (k, u)]
    with np.errstate(all="ignore"):
        got, want = fn(k, u), former(k, u)
    assert isinstance(got, np.ndarray) == isinstance(want, np.ndarray)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert all(np.asarray(x).tobytes() == y.tobytes() for x, y in zip((k, u), kept))  # inputs kept


@pytest.mark.parametrize("inputs", sorted(EVAL_INPUTS))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_eval_equals_its_former_expression_bitwise(name, inputs):
    _assert_equals_former_bitwise(BUILTINS[name]()[0].eval, FORMER_EVALS[name],
                                  *EVAL_INPUTS[inputs])


@pytest.mark.parametrize("inputs", sorted(EVAL_INPUTS))
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_d_u_equals_its_former_expression_bitwise(name, inputs):
    _assert_equals_former_bitwise(BUILTINS[name]()[0].d_u, FORMER_D_US[name],
                                  *EVAL_INPUTS[inputs])


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_python_float_inputs_give_numpy_float64(name):
    # a 0-d constant with a Python float gives numpy.float64, a float subclass; Burgers' f_u,
    # k*u, takes no constant and stays a float
    model, _ = BUILTINS[name]()
    assert type(model.eval(0.5, 0.3)) is np.float64
    assert type(model.d_u(0.5, 0.3)) is (float if name == "burgers-const-k" else np.float64)


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
