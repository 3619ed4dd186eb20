import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean.mechanisms import (
    _SUM_BLOCK,
    AggregateVector,
    BoundedDataset,
    Mechanism,
    NoisePair,
    PrivacyBudget,
    _ratio,
    clip,
    estimate_independent,
    estimate_shifted,
    estimate_transformed,
    mechanism_plan,
    run_mechanism,
    true_mean,
)
from dpmean.noise import RandomStream

EPS = PrivacyBudget(0.5)
ZERO = NoisePair(0.0, 0.0)

# Pinned output of the transformed mechanism on 1000 copies of 0.5 in [0,1]
# at epsilon=0.5, stream (2024, 0).
RUN_MECHANISM_GOLDEN = 0.5003411850427529

ESTIMATORS = {
    Mechanism.INDEPENDENT: estimate_independent,
    Mechanism.SHIFTED: estimate_shifted,
    Mechanism.TRANSFORMED: estimate_transformed,
}


def exact_aggregates(d, mechanism):
    """The pre-noise pair T(s, n) that the mechanism's plan releases on d."""
    t = mechanism_plan(mechanism, d.lower, d.upper, EPS).t
    return AggregateVector(*t.apply((d.scaled_total, float(len(d)))))


finite_noise = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
any_noise = st.floats(allow_nan=True, allow_infinity=True)


# The closed-form estimators that the one transform/invert/clip estimator
# replaced, kept as references: each clips the ratio of its own noisy pair.
def independent_oracle(d, za, zb):
    return clip(_ratio(d.total + za, len(d) + zb), d.lower, d.upper)


def shifted_oracle(d, za, zb):
    half_w = d.width / 2.0
    shifted_sum = math.fsum((d.values - d.midpoint).tolist())
    return clip(_ratio(shifted_sum + za, len(d) + zb), -half_w, half_w) + d.midpoint


def transformed_oracle(d, za, zb):
    s1 = d.scaled_total
    s1_hat = s1 + za
    s2_hat = (len(d) - s1) + zb
    return d.width * clip(_ratio(s1_hat, s1_hat + s2_hat), 0.0, 1.0) + d.lower


def unit_dataset(values):
    return BoundedDataset(tuple(values), 0.0, 1.0)


class TestValidation:
    def test_privacy_budget(self):
        for bad in (0.0, -1.0, math.inf, math.nan, True, "0.5", None):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                PrivacyBudget(bad)
        PrivacyBudget(1e-9)
        PrivacyBudget(2)
        PrivacyBudget(np.float64(0.5))

    def test_bounds_order(self):
        with pytest.raises(ValueError):
            BoundedDataset((0.5,), 1.0, 0.0)
        with pytest.raises(ValueError):
            BoundedDataset((0.5,), 1.0, 1.0)

    def test_values_inside_bounds(self):
        with pytest.raises(ValueError):
            BoundedDataset((1.5,), 0.0, 1.0)
        with pytest.raises(ValueError):
            BoundedDataset((math.nan,), 0.0, 1.0)

    def test_out_of_bounds_message_names_first_offender(self):
        with pytest.raises(ValueError, match=r"value 2\.0 outside declared bounds \[0\.0, 1\.0\]"):
            BoundedDataset((0.5, 2.0, -1.0), 0.0, 1.0)
        with pytest.raises(ValueError, match="value nan"):
            BoundedDataset(np.array([0.5, math.nan]), 0.0, 1.0)

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            BoundedDataset(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            BoundedDataset([[0.5]], 0.0, 1.0)

    def test_empty_dataset_releases_noise_only(self):
        # the release has no empty-input error, which would reveal n = 0
        d = BoundedDataset((), -2.0, 3.0)
        with pytest.raises(ValueError):
            true_mean(d)
        for mech, est in ESTIMATORS.items():
            plan = mechanism_plan(mech, -2.0, 3.0, EPS)
            for za, zb in itertools.product((0.0, -1.5, 2.25), (0.0, 0.5, -3.0)):
                value = est(d, EPS, NoisePair(za, zb)).value
                assert value == plan.estimate(0.0, 0.0, za, zb)[2]
                assert -2.0 <= value <= 3.0


class TestDatasetStorage:
    def test_values_are_a_read_only_float64_copy(self):
        source = np.array([0.25, 0.5, 0.75])
        d = BoundedDataset(source, 0.0, 1.0)
        assert d.values.dtype == np.float64 and d.values.shape == (3,)
        with pytest.raises(ValueError):
            d.values[0] = 0.9
        with pytest.raises(ValueError):
            d.values.flags.writeable = True
        source[0] = 0.9  # the caller's array changes later
        assert d.values[0] == 0.25
        assert d.total == 1.5

    def test_any_sequence(self):
        for seq in ((0, 1, 1), [0.0, 1.0, 1.0], range(2), np.array([0, 1], dtype=np.int64)):
            d = BoundedDataset(seq, 0, 1)
            assert d.values.dtype == np.float64
            assert list(d.values) == [float(v) for v in seq]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 3.0), (2.0, 4.0)])
    def test_aggregates_match_scalar_fsum(self, lo, hi):
        rng = np.random.default_rng(17)
        values = [float(v) for v in rng.uniform(lo, hi, 5000)] + [lo, hi, (lo + hi) / 2.0]
        d = BoundedDataset(values, lo, hi)
        m, w = (lo + hi) / 2.0, hi - lo
        assert d.total == math.fsum(values)
        assert d.shifted_total == math.fsum(v - m for v in values)
        assert d.scaled_total == math.fsum((v - lo) / w for v in values)

    @settings(max_examples=200)
    @given(st.data())
    def test_aggregates_match_fsum_of_list_bit_for_bit(self, data):
        # fsum reads the values through a buffer view; it must see the same
        # doubles as a list of them, signed zeros and subnormals included.
        lo, hi = data.draw(st.sampled_from(
            [(0.0, 1.0), (-1.0, 1.0), (-3.0, 7.5), (-1e-300, 1e-300), (-5e-324, 5e-324), (-0.0, 2.0**-1022)]
        ))
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, lo, hi])
        element = st.one_of(st.floats(lo, hi), special.filter(lambda v: lo <= v <= hi))
        values = np.array(data.draw(st.lists(element, min_size=1, max_size=100)))
        d = BoundedDataset(values, lo, hi)
        m, w = (lo + hi) / 2.0, hi - lo
        assert d.total.hex() == math.fsum(values.tolist()).hex()
        assert d.shifted_total.hex() == math.fsum((values - m).tolist()).hex()
        assert d.scaled_total.hex() == math.fsum(((values - lo) / w).tolist()).hex()


class TestScaledTotal:
    """``scaled_total`` sums exact per-exponent partials in blocks; it must
    equal fsum of the list of its terms bit for bit."""

    @staticmethod
    def assert_equals_fsum(values, lo, hi):
        d = BoundedDataset(values, lo, hi)
        terms = ((d.values - lo) / (hi - lo)).tolist()
        assert d.scaled_total.hex() == math.fsum(terms).hex()

    @pytest.mark.parametrize(
        "size", [0, 1, _SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 3 * _SUM_BLOCK + 7]
    )
    def test_block_edges(self, size):
        rng = np.random.default_rng(size)
        self.assert_equals_fsum(rng.uniform(-3.0, 7.5, size), -3.0, 7.5)

    def test_million_nine_decimal_values(self):
        # the release benchmark's input: Beta(2, 5) on a grid of 1e-9
        rng = np.random.default_rng(5)
        values = np.rint(rng.beta(2.0, 5.0, 10**6) * 1e9) / 1e9
        values[:3] = (0.0, 1.0, 0.5)
        self.assert_equals_fsum(values, 0.0, 1.0)

    def test_negative_zero_at_a_zero_lower_bound(self):
        # -0.0 - 0.0 keeps the sign bit, so the term is -0.0
        values = np.array([-0.0] * 5 + [0.25, 1.0, -0.0])
        self.assert_equals_fsum(values, 0.0, 1.0)
        self.assert_equals_fsum(np.array([-0.0, -0.0]), 0.0, 1.0)

    def test_subnormal_terms(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.uniform(0.0, 1e-10, 3000), rng.uniform(0.0, 1e300, 10), [5e-324, 1e300]])
        assert 0.0 < (values[0] - 0.0) / 1e300 < 2.0**-1022
        self.assert_equals_fsum(values, 0.0, 1e300)

    def test_partials_are_summed_correctly_rounded(self):
        # exact total 1.5 + 2^-53 + 2^-80 rounds up; adding the four
        # one-bit partials in order rounds twice and ends on 1.5
        values = np.array([2.0**-80, 2.0**-53, 0.5, 1.0])
        d = BoundedDataset(values, 0.0, 1.0)
        assert d.scaled_total == 1.5 + 2.0**-52
        self.assert_equals_fsum(values, 0.0, 1.0)


class TestClip:
    def test_examples(self):
        assert clip(1.5, 0.0, 1.0) == 1.0
        assert clip(-3.0, 0.0, 1.0) == 0.0
        assert clip(0.4, 0.0, 1.0) == 0.4

    def test_nan_maps_to_midpoint(self):
        assert clip(math.nan, 0.0, 1.0) == 0.5
        assert clip(math.nan, -2.0, 6.0) == 2.0

    def test_infinities(self):
        assert clip(math.inf, 0.0, 1.0) == 1.0
        assert clip(-math.inf, 0.0, 1.0) == 0.0

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            clip(0.0, 1.0, 0.0)

    @given(any_noise, finite_noise, finite_noise)
    def test_always_in_range(self, x, a, b):
        lo, hi = min(a, b), max(a, b)
        assert lo <= clip(x, lo, hi) <= hi

    @given(finite_noise, finite_noise, finite_noise)
    def test_idempotent(self, x, a, b):
        lo, hi = min(a, b), max(a, b)
        once = clip(x, lo, hi)
        assert clip(once, lo, hi) == once


    def test_signed_zero_follows_python_max_min(self):
        assert math.copysign(1.0, clip(-0.0, 0.0, 1.0)) == 1.0
        assert math.copysign(1.0, clip(0.0, -0.0, 1.0)) == -1.0

    @given(st.lists(any_noise, min_size=1, max_size=30), finite_noise, finite_noise)
    def test_array_matches_scalar_bitwise(self, xs, a, b):
        lo, hi = min(a, b), max(a, b)
        expected = [max(lo, min(x, hi)) if not math.isnan(x) else (lo + hi) / 2.0 for x in xs]
        got = clip(np.array(xs), lo, hi)
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in expected]
        assert got.tolist() == expected


class TestRatio:
    def test_zero_denominator_of_either_sign(self):
        for den in (0.0, -0.0):
            assert _ratio(2.0, den) == math.inf
            assert _ratio(-2.0, den) == -math.inf
            assert math.isnan(_ratio(0.0, den))
            assert math.isnan(_ratio(-0.0, den))
            assert math.isnan(_ratio(math.nan, den))

    def test_elementwise_on_arrays(self):
        num = np.array([2.0, -2.0, 0.0, 3.0, 1.0])
        den = np.array([-0.0, 0.0, -0.0, -1.5, 4.0])
        got = _ratio(num, den)
        assert got[:2].tolist() == [math.inf, -math.inf]
        assert math.isnan(got[2])
        assert got[3:].tolist() == [-2.0, 0.25]


class TestNoisyEstimate:
    @settings(max_examples=50)
    @given(st.lists(st.tuples(any_noise, any_noise), min_size=1, max_size=20))
    def test_array_equals_scalar_calls(self, pairs):
        # one array evaluation is the scalar estimator applied trial by trial
        d = BoundedDataset((2.5, 3.5, 2.0), 2.0, 4.0)
        za = np.array([p[0] for p in pairs])
        zb = np.array([p[1] for p in pairs])
        for mech in Mechanism:
            plan = mechanism_plan(mech, d.lower, d.upper, EPS)
            first, second, value = plan.estimate(d.scaled_total, float(len(d)), za, zb)
            for i, (a, b) in enumerate(pairs):
                est = ESTIMATORS[mech](d, EPS, NoisePair(a, b))
                assert value[i] == est.value
                assert np.array_equal(
                    [first[i], second[i]],
                    [est.noisy_aggregates.first, est.noisy_aggregates.second],
                    equal_nan=True,
                )


class TestClosedFormOracles:
    @settings(max_examples=300)
    @given(
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=0.01, max_value=200.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        finite_noise,
        finite_noise,
    )
    def test_generic_estimator_matches_closed_forms(self, lo, span, fractions, za, zb):
        hi = lo + span
        d = BoundedDataset([min(hi, lo + f * span) for f in fractions], lo, hi)
        noise = NoisePair(za, zb)
        assert estimate_transformed(d, EPS, noise).value == transformed_oracle(d, za, zb)
        for est, oracle in ((estimate_independent, independent_oracle), (estimate_shifted, shifted_oracle)):
            got, want = est(d, EPS, noise).value, oracle(d, za, zb)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (est.__name__, got, want)

    def test_transformed_matches_closed_form_on_nonfinite_noise(self):
        # the inverse's zero coefficient drops its term, so an infinite or NaN
        # coordinate does not leak into the other one as 0 * inf
        d = BoundedDataset((2.5, 3.5, 2.0), 2.0, 4.0)
        edge = (0.0, 1.5, -2.0, math.inf, -math.inf, math.nan)
        for za, zb in itertools.product(edge, edge):
            got = estimate_transformed(d, EPS, NoisePair(za, zb)).value
            assert np.array_equal(got, transformed_oracle(d, za, zb), equal_nan=True), (za, zb)


class TestTrueMean:
    def test_examples(self):
        assert true_mean(unit_dataset([0.2, 0.4, 0.6])) == pytest.approx(0.4, rel=1e-15)
        assert true_mean(unit_dataset([0.0, 1.0])) == 0.5

    def test_ones_over_zeros_form(self):
        k, n = 7, 13
        d = unit_dataset([1.0] * k + [0.0] * n)
        assert true_mean(d) == pytest.approx(k / (n + k), rel=1e-15)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    def test_mean_within_bounds(self, values):
        mu = true_mean(unit_dataset(values))
        assert 0.0 <= mu <= 1.0


class TestIndependent:
    def test_zero_noise_recovers_mean(self):
        d = unit_dataset([0.2, 0.4, 0.6])
        est = estimate_independent(d, EPS, ZERO)
        assert est.value == pytest.approx(true_mean(d), rel=1e-15)

    def test_positive_sum_noise_clips_high(self):
        d = unit_dataset([1.0, 1.0])
        assert estimate_independent(d, EPS, NoisePair(1.0, 0.0)).value == 1.0

    def test_zero_denominator_follows_numerator_sign(self):
        d = unit_dataset([0.5])
        # count noise -1 cancels the count; 0.5/0 resolves to +inf, clips to 1
        assert estimate_independent(d, EPS, NoisePair(0.0, -1.0)).value == 1.0

    def test_zero_over_zero_hits_midpoint(self):
        d = unit_dataset([0.5])
        est = estimate_independent(d, EPS, NoisePair(-0.5, -1.0))
        assert est.value == 0.5

    def test_negative_denominator_not_floored(self):
        d = unit_dataset([0.5, 0.5])
        est = estimate_independent(d, EPS, NoisePair(0.0, -3.0))
        # 1 / -1 = -1, clipped to the lower bound
        assert est.value == 0.0


class TestShifted:
    def test_zero_noise_recovers_mean(self):
        d = unit_dataset([0.25, 0.75])
        assert estimate_shifted(d, EPS, ZERO).value == pytest.approx(0.5, rel=1e-15)

    def test_hand_evaluated_upper_clip(self):
        d = unit_dataset([1.0, 1.0])
        # shifted sum 1, noisy 1.5, count 2: clip(0.75, -1/2, 1/2) + 1/2 = 1
        assert estimate_shifted(d, EPS, NoisePair(0.5, 0.0)).value == 1.0

    def test_hand_evaluated_lower_clip(self):
        d = unit_dataset([0.0, 0.0, 0.0, 0.0])
        # shifted sum -2, noisy -6 over count 4: clip(-1.5) = -1/2 -> 0
        assert estimate_shifted(d, EPS, NoisePair(-4.0, 0.0)).value == 0.0


class TestTransformed:
    def test_zero_noise_recovers_mean(self):
        d = unit_dataset([0.2, 0.4, 0.6])
        assert estimate_transformed(d, EPS, ZERO).value == pytest.approx(0.4, rel=1e-15)

    def test_hand_evaluated_clip(self):
        d = unit_dataset([1.0, 1.0])
        # s1=2, s2=0; (2.5)/(2.5 - 0.5) = 1.25 -> clip to 1
        assert estimate_transformed(d, EPS, NoisePair(0.5, -0.5)).value == 1.0

    def test_general_bounds_zero_noise(self):
        d = BoundedDataset((3.0, 3.0), 2.0, 4.0)
        assert estimate_transformed(d, EPS, ZERO).value == pytest.approx(3.0, rel=1e-15)

    def test_aggregate_pair_invariants(self):
        d = BoundedDataset((2.2, 3.7, 2.9), 2.0, 4.0)
        agg = exact_aggregates(d, Mechanism.TRANSFORMED)
        assert agg.first >= 0.0
        assert agg.second >= 0.0
        assert agg.first + agg.second == pytest.approx(len(d), rel=1e-15)

    @given(st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=1, max_size=30))
    def test_sum_count_aggregate_invariants(self, values):
        d = BoundedDataset(tuple(values), -1.0, 3.0)
        agg = exact_aggregates(d, Mechanism.INDEPENDENT)
        assert agg.second == len(d)
        assert d.lower * agg.second - 1e-9 <= agg.first <= d.upper * agg.second + 1e-9


class TestRunMechanism:
    def test_golden_pinned(self):
        d = unit_dataset([0.5] * 1000)
        est = run_mechanism(d, EPS, Mechanism.TRANSFORMED, RandomStream(2024, 0))
        assert est.value == RUN_MECHANISM_GOLDEN

    def test_mechanisms_differ_on_same_seed(self):
        d = unit_dataset([0.5] * 1000)
        stream = RandomStream(2024, 0)
        a = run_mechanism(d, EPS, Mechanism.INDEPENDENT, stream)
        b = run_mechanism(d, EPS, Mechanism.SHIFTED, RandomStream(2024, 0))
        assert a.value != b.value

    def test_output_always_in_bounds(self):
        d = BoundedDataset((2.5, 3.0), 2.0, 4.0)
        for mech in Mechanism:
            for sid in range(50):
                est = run_mechanism(d, PrivacyBudget(0.05), mech, RandomStream(5, sid))
                assert 2.0 <= est.value <= 4.0

    def test_noise_scales(self):
        d = BoundedDataset((0.0,), -2.0, 6.0)
        e = PrivacyBudget(0.5)
        assert mechanism_plan(Mechanism.INDEPENDENT, d.lower, d.upper, e).scales == (24.0, 4.0)
        assert mechanism_plan(Mechanism.SHIFTED, d.lower, d.upper, e).scales == (16.0, 4.0)
        assert mechanism_plan(Mechanism.TRANSFORMED, d.lower, d.upper, e).scales == (2.0, 2.0)

    def test_plan_rejects_dataset_with_other_bounds(self):
        plan = mechanism_plan(Mechanism.TRANSFORMED, 0.0, 1.0, EPS)
        with pytest.raises(ValueError, match="differ from the plan"):
            plan.mean_estimate(BoundedDataset((2.5,), 2.0, 4.0), ZERO)


class TestRangeInvariant:
    @given(any_noise, any_noise)
    def test_adversarial_noise_stays_in_range(self, za, zb):
        d = BoundedDataset((2.5, 3.5, 2.0), 2.0, 4.0)
        noise = NoisePair(za, zb)
        for est in ESTIMATORS.values():
            v = est(d, EPS, noise).value
            assert 2.0 <= v <= 4.0


class TestSymmetries:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
        st.randoms(use_true_random=False),
        finite_noise,
        finite_noise,
    )
    def test_order_and_duplicates_irrelevant(self, values, rng, za, zb):
        shuffled = list(values)
        rng.shuffle(shuffled)
        noise = NoisePair(za, zb)
        for est in ESTIMATORS.values():
            assert (
                est(unit_dataset(values), EPS, noise).value
                == est(unit_dataset(shuffled), EPS, noise).value
            )

    @settings(max_examples=50)
    @given(
        st.floats(min_value=-8.0, max_value=8.0),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20),
        finite_noise,
        finite_noise,
    )
    def test_translation_equivariance(self, c, values, za, zb):
        noise = NoisePair(za, zb)
        d = unit_dataset(values)
        shifted_d = BoundedDataset(tuple(v + c for v in values), 0.0 + c, 1.0 + c)
        for est in (estimate_shifted, estimate_transformed):
            base = est(d, EPS, noise).value
            moved = est(shifted_d, EPS, noise).value
            assert moved - c == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestAddRemoveSensitivity:
    """The exact aggregate displacement of one add/remove, weighted by the
    noise scales, never exceeds epsilon: the analytic core of the privacy
    guarantee for all three mechanisms."""

    @settings(max_examples=200)
    @given(
        st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=1, max_size=4),
        st.floats(min_value=-1.0, max_value=3.0),
        st.sampled_from(list(Mechanism)),
    )
    def test_weighted_displacement_at_most_epsilon(self, values, x, mech):
        lo, hi = -1.0, 3.0
        eps = PrivacyBudget(0.8)
        d = BoundedDataset(tuple(values), lo, hi)
        d_plus = BoundedDataset(tuple(values) + (x,), lo, hi)
        a = exact_aggregates(d, mech)
        b = exact_aggregates(d_plus, mech)
        sa, sb = mechanism_plan(mech, lo, hi, eps).scales
        weighted = abs(a.first - b.first) / sa + abs(a.second - b.second) / sb
        assert weighted <= eps.epsilon * (1 + 1e-9)
