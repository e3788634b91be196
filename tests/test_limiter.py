import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discflux import LimiterConfig, LimiterKind, minmod, slopes

MODIFIED = LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=1.0, alpha=0.75)
PLAIN = LimiterConfig()

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
sequences = st.lists(finite, min_size=3, max_size=30)


class TestMinmod:
    @pytest.mark.parametrize("args,expected", [
        ((2.0, 1.5, 1.0), 1.0),
        ((1.0, -1.0, 2.0), 0.0),
        ((-3.0, -1.0, -2.0), -1.0),
        ((0.0, 1.0), 0.0),
        ((5.0,), 5.0),
    ])
    def test_examples(self, args, expected):
        assert minmod(args) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minmod([])

    @given(st.lists(finite, min_size=1, max_size=8))
    def test_result_bounded_by_every_argument(self, args):
        result = minmod(args)
        assert all(abs(result) <= abs(a) + 1e-15 for a in args)
        if result != 0.0:
            assert all(np.sign(a) == np.sign(result) for a in args)


class TestSlopes:
    def test_linear_data(self):
        sig = slopes(np.array([0.0, 1.0, 2.0]), 0.1, PLAIN)
        assert sig.tolist() == [0.0, 1.0, 0.0]

    def test_local_extremum(self):
        sig = slopes(np.array([0.0, 1.0, 0.0]), 0.1, PLAIN)
        assert sig[1] == 0.0

    def test_modified_cap_dominates(self):
        sig = slopes(np.array([0.0, 1.0, 2.0]), 1e-4, MODIFIED)
        assert sig[1] == pytest.approx(1e-3, rel=1e-12)  # (1e-4)**0.75

    def test_zero_kind(self):
        cfg = LimiterConfig(kind=LimiterKind.ZERO)
        assert np.all(slopes(np.array([0.0, 1.0, 0.5, 2.0]), 0.1, cfg) == 0.0)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            slopes(np.array([0.0, 1.0]), 0.1, PLAIN)

    @pytest.mark.parametrize("kind", [LimiterKind.ZERO, LimiterKind.MINMOD_MODIFIED])
    @pytest.mark.parametrize("dx", [-1.0, 0.0, -0.0, -5e-324, float("nan"), float("inf"),
                                    float("-inf")])
    def test_spacing_not_positive_and_finite_refused(self, kind, dx):
        with pytest.raises(ValueError, match="dx"):
            slopes(np.array([0.0, 1.0, 2.0]), dx, LimiterConfig(kind=kind))

    @given(sequences)
    @settings(max_examples=200)
    def test_slope_to_jump_ratio_in_unit_interval(self, values):
        u = np.asarray(values)
        sig = slopes(u, 0.1, PLAIN)
        fwd = u[1:] - u[:-1]
        for j in range(1, len(u) - 1):
            for jump in (fwd[j], fwd[j - 1]):
                if jump != 0.0:
                    assert 0.0 <= sig[j] / jump <= 1.0 + 1e-12
                else:
                    assert sig[j] == 0.0

    @given(sequences)
    def test_zero_at_local_extrema(self, values):
        u = np.asarray(values)
        sig = slopes(u, 0.1, PLAIN)
        for j in range(1, len(u) - 1):
            if (u[j] - u[j - 1]) * (u[j + 1] - u[j]) < 0:
                assert sig[j] == 0.0

    @given(sequences, st.floats(min_value=1e-4, max_value=1.0))
    def test_modified_magnitude_cap(self, values, dx):
        sig = slopes(np.asarray(values), dx, MODIFIED)
        assert np.all(np.abs(sig) <= MODIFIED.k_tilde * dx**MODIFIED.alpha + 1e-12)

    @given(sequences, finite)
    def test_translation_invariance(self, values, shift):
        # exact in exact arithmetic; the shift perturbs differences by rounding
        u = np.asarray(values)
        shifted = slopes(u + shift, 0.1, PLAIN)
        assert np.allclose(shifted, slopes(u, 0.1, PLAIN), rtol=0, atol=1e-12)


class TestLimiterConfig:
    def test_alpha_range_enforced_for_modified(self):
        with pytest.raises(ValueError):
            LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, alpha=0.5)
        with pytest.raises(ValueError):
            LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, alpha=1.0)

    def test_plain_minmod_allows_any_alpha(self):
        LimiterConfig(kind=LimiterKind.MINMOD, alpha=0.5)

    def test_k_tilde_positive(self):
        with pytest.raises(ValueError):
            LimiterConfig(k_tilde=0.0)

    @pytest.mark.parametrize("k_tilde", [float("nan"), float("inf")])
    def test_k_tilde_finite(self, k_tilde):
        # a non-finite cap wrote NaN/Infinity as the correction bound
        with pytest.raises(ValueError):
            LimiterConfig(kind=LimiterKind.MINMOD_MODIFIED, k_tilde=k_tilde)


# Repeated values make zero jumps, where minmod must give +0.0.
with_repeats = st.lists(st.one_of(st.integers(-3, 3).map(float), finite), min_size=3, max_size=30)


class TestPairwiseMinmod:
    @given(with_repeats, st.sampled_from([PLAIN, MODIFIED]),
           st.floats(min_value=1e-4, max_value=1.0))
    @settings(max_examples=300)
    def test_interior_slopes_equal_scalar_minmod_bitwise(self, values, cfg, dx):
        sig = slopes(np.asarray(values), dx, cfg)
        for j in range(1, len(values) - 1):
            fwd = values[j + 1] - values[j]
            args = [fwd, 0.5 * (values[j + 1] - values[j - 1]), values[j] - values[j - 1]]
            if cfg.kind is LimiterKind.MINMOD_MODIFIED:
                args.append(float(np.sign(fwd)) * (cfg.k_tilde * dx**cfg.alpha))
            assert sig[j].tobytes() == np.float64(minmod(args)).tobytes(), (j, args)


def _pairwise_slopes(values, dx, cfg):
    """`slopes` as it was before it took one difference: three columns, each folded
    into the magnitudes and both sign masks."""
    values = np.asarray(values, dtype=float)
    out = np.zeros_like(values)
    if cfg.kind is LimiterKind.ZERO:
        return out
    fwd = values[2:] - values[1:-1]
    bwd = values[1:-1] - values[:-2]
    ctr = 0.5 * (values[2:] - values[:-2])
    cols = [ctr, bwd]
    if cfg.kind is LimiterKind.MINMOD_MODIFIED:
        cols.append(np.sign(fwd) * (cfg.k_tilde * dx**cfg.alpha))
    mags, pos, neg = np.abs(fwd), fwd > 0, fwd < 0
    for col in cols:
        np.minimum(mags, np.abs(col), out=mags)
        pos &= col > 0
        neg &= col < 0
    out[1:-1] = np.where(pos, mags, 0.0) - np.where(neg, mags, 0.0)
    return out


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
edgy = st.one_of(st.sampled_from(SPECIAL), st.integers(-3, 3).map(float), finite,
                 st.floats(allow_nan=False, allow_infinity=False))


class TestSlopesFromOneDifference:
    @given(st.lists(edgy, min_size=3, max_size=40), st.sampled_from(list(LimiterKind)),
           st.one_of(st.sampled_from([1e-300, 1.0, 1e300]),
                     st.floats(min_value=1e-300, max_value=1e300)),
           st.one_of(st.sampled_from([1e-300, 5e-324]), st.floats(min_value=1e-4, max_value=1.0)))
    @settings(max_examples=500)
    def test_equals_pairwise_form_bitwise(self, values, kind, k_tilde, dx):
        cfg = LimiterConfig(kind=kind, k_tilde=k_tilde)
        with np.errstate(all="ignore"):  # inf - inf, 1e308 - -1e308 and the like
            got, want = slopes(np.asarray(values), dx, cfg), _pairwise_slopes(values, dx, cfg)
        assert got.tobytes() == want.tobytes(), (got, want)
