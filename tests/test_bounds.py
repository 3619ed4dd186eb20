import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpmean.bounds import (
    ClippedRatioTerms,
    NeighborModel,
    add_remove_minmax_leading,
    clipped_ratio_mse_bound,
    clipped_ratio_terms,
    clipped_ratio_terms_for,
    geometric_count_variance,
    lower_bound_leading,
    mechanism_mse_bound,
    minmax_risk,
    shifted_mse_bound_from_stats,
    shifted_mse_bound_leading,
    swap_minmax_leading,
    transformed_mse_bound_from_stats,
    transformed_mse_bound_leading,
)
from dpmean.mechanisms import (
    BoundedDataset,
    Mechanism,
    PrivacyBudget,
    noise_scales,
    noisy_estimate,
    true_mean,
)

# Series oracle values for 2a/(1-a)^2, a = exp(-eps); frozen from summing
# 2 * sum_k k^2 (1-a)/(1+a) a^k to convergence.
GEO_VAR_EPS_HALF = 7.835396178065527
GEO_VAR_EPS_ONE = 1.8413471884155848



def closed_form_laplace_terms(a, b, cap, scale_a, scale_b):
    """(linear_sq, remainder_sq_bound, tail) for independent Laplace Z_a, Z_b:
    the closed form that the generic moment builder replaced, kept as a
    reference."""
    linear_sq = 2.0 * scale_a**2 / b**2 + a**2 * 2.0 * scale_b**2 / b**4
    remainder = (8.0 * cap**2 * 24.0 * scale_b**4 + 8.0 * 4.0 * scale_a**2 * scale_b**2) / b**4
    tail = 4.0 * cap**2 * 0.5 * math.exp(-b / (2.0 * scale_b))
    return linear_sq, remainder, tail


bounded_triples = st.tuples(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=200.0),
)


class TestMinMaxLeading:
    def test_plug_in_values(self):
        assert swap_minmax_leading(0.5, 0.0, 1.0) == 8.0
        assert swap_minmax_leading(1.0, 0.0, 2.0) == 8.0
        assert add_remove_minmax_leading(0.5, 0.0, 1.0) == 8.0
        assert add_remove_minmax_leading(0.1, 0.0, 1.0) == pytest.approx(200.0, rel=1e-12)
        assert lower_bound_leading(0.5, 0.0, 1.0) == 8.0
        assert lower_bound_leading(1.0, 0.0, 1.0) == 2.0

    def test_width_scaling(self):
        assert swap_minmax_leading(0.5, 2.0, 4.0) == 4.0 * swap_minmax_leading(0.5, 0.0, 1.0)

    @given(bounded_triples)
    def test_models_agree_everywhere(self, triple):
        eps, lo, span = triple
        hi = lo + span
        assert swap_minmax_leading(eps, lo, hi) == add_remove_minmax_leading(eps, lo, hi)
        assert lower_bound_leading(eps, lo, hi) == add_remove_minmax_leading(eps, lo, hi)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            swap_minmax_leading(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            add_remove_minmax_leading(0.5, 1.0, 1.0)

    def test_risk_report(self):
        report = minmax_risk(NeighborModel.ADD_REMOVE, 0.5, 0.0, 1.0)
        assert report.leading_term == 8.0
        assert report.asymptotic is True
        assert report.model is NeighborModel.ADD_REMOVE


class TestPerDatasetBounds:
    def test_centered_values(self):
        assert shifted_mse_bound_from_stats(1000, 0.5, 0.5, 0.0, 1.0) == pytest.approx(8e-6)
        assert transformed_mse_bound_from_stats(1000, 0.5, 0.5, 0.0, 1.0) == pytest.approx(4e-6)

    def test_boundary_mean_doubles(self):
        n, eps = 1000, 0.5
        assert shifted_mse_bound_from_stats(n, 1.0, eps, 0.0, 1.0) == pytest.approx(
            4.0 / (n**2 * eps**2)
        )
        assert transformed_mse_bound_from_stats(n, 1.0, eps, 0.0, 1.0) == pytest.approx(
            2.0 / (n**2 * eps**2)
        )

    def test_monotone_in_distance_from_midpoint(self):
        values = [shifted_mse_bound_from_stats(100, mu, 0.5, 0.0, 1.0) for mu in (0.5, 0.6, 0.8, 1.0)]
        assert values == sorted(values)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_ratio_exactly_two(self, n, mu, eps):
        b2 = shifted_mse_bound_from_stats(n, mu, eps, 0.0, 1.0)
        b3 = transformed_mse_bound_from_stats(n, mu, eps, 0.0, 1.0)
        assert b2 == pytest.approx(2.0 * b3, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_transformed_below_minmax_per_dataset(self, n, mu, eps):
        b3 = transformed_mse_bound_from_stats(n, mu, eps, 0.0, 1.0)
        cap = add_remove_minmax_leading(eps, 0.0, 1.0) / n**2
        assert b3 <= cap * (1 + 1e-12)

    def test_dataset_interface(self):
        d = BoundedDataset((0.2, 0.4, 0.6), 0.0, 1.0)
        eps = PrivacyBudget(0.5)
        assert shifted_mse_bound_leading(d, eps) == pytest.approx(
            shifted_mse_bound_from_stats(3, 0.4, 0.5, 0.0, 1.0), rel=1e-12
        )
        assert transformed_mse_bound_leading(d, eps) == pytest.approx(
            transformed_mse_bound_from_stats(3, 0.4, 0.5, 0.0, 1.0), rel=1e-12
        )


class TestGeometricCountVariance:
    def test_series_oracle_values(self):
        assert geometric_count_variance(0.5) == pytest.approx(GEO_VAR_EPS_HALF, rel=1e-12)
        assert geometric_count_variance(1.0) == pytest.approx(GEO_VAR_EPS_ONE, rel=1e-12)
        alpha = math.exp(-0.5)
        series = 2 * sum(k * k * (1 - alpha) / (1 + alpha) * alpha**k for k in range(1, 5000))
        assert geometric_count_variance(0.5) == pytest.approx(series, rel=1e-12)

    def test_small_eps_limit(self):
        for eps in (0.01, 0.001):
            assert geometric_count_variance(eps) / (2 / eps**2) == pytest.approx(1.0, abs=2 * eps)

    def test_matches_empirical_sampler(self):
        from dpmean.noise import RandomStream, two_sided_geometric_from_uniform

        eps = 0.5
        us = RandomStream(777, 0).cursor().uniforms_open(1_000_000)
        zs = two_sided_geometric_from_uniform(us, math.exp(-eps))
        assert abs(zs.var() / geometric_count_variance(eps) - 1) < 0.02

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            geometric_count_variance(0.0)


class TestClippedRatioTerms:
    def test_zero_numerator_drops_second_summand(self):
        terms = clipped_ratio_terms(0.0, 10.0, 1.0, 1.5, 0.5)
        assert terms.linear_sq == pytest.approx(2 * 1.5**2 / 100.0, rel=1e-12)

    def test_ratio_cap_enforced(self):
        with pytest.raises(ValueError):
            clipped_ratio_terms(20.0, 10.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ClippedRatioTerms(20.0, 10.0, 1.0, 0.1, 0.1, 0.0)

    def test_shifted_terms_match_leading_formula(self):
        n, eps = 1000, 0.5
        d = BoundedDataset((0.75,) * n, 0.0, 1.0)
        terms = clipped_ratio_terms_for(d, Mechanism.SHIFTED, PrivacyBudget(eps))
        expected = (2.0 + 8.0 * 0.25**2) / (n**2 * eps**2)
        assert terms.linear_sq == pytest.approx(expected, rel=1e-12)

    def test_transformed_terms_match_leading_formula(self):
        n, eps = 1000, 0.5
        d = BoundedDataset((0.75,) * n, 0.0, 1.0)
        terms = clipped_ratio_terms_for(d, Mechanism.TRANSFORMED, PrivacyBudget(eps))
        expected = (1.0 + 4.0 * 0.25**2) / (n**2 * eps**2)
        assert terms.linear_sq == pytest.approx(expected, rel=1e-12)

    def test_independent_laplace_terms_match_closed_form(self):
        for args in ((5.0, 10.0, 1.0, 1.0, 0.8), (-3.0, 6.0, 1.0, 0.5, 0.5), (0.0, 8.0, 0.5, 2.0, 1.0)):
            terms = clipped_ratio_terms(*args)
            got = (terms.linear_sq, terms.remainder_sq_bound, terms.tail)
            assert got == pytest.approx(closed_form_laplace_terms(*args), rel=1e-12)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0, 4.0), (-1.0, 3.0)])
    def test_generic_shifted_terms_match_closed_form(self, lo, hi):
        # the closed form bounds the shifted ratio in data units around the
        # midpoint; the generic terms are in normalized units, w times smaller
        rng = np.random.default_rng(5)
        w, eps = hi - lo, PrivacyBudget(0.5)
        for n in (1, 7, 300):
            d = BoundedDataset(rng.uniform(lo, hi, n), lo, hi)
            shifted_sum = math.fsum((d.values - d.midpoint).tolist())
            old = closed_form_laplace_terms(shifted_sum, n, w / 2.0, w / 0.5, 2.0 / 0.5)
            terms = clipped_ratio_terms_for(d, Mechanism.SHIFTED, eps)
            got = (terms.linear_sq, terms.remainder_sq_bound, terms.tail)
            assert [w**2 * g for g in got] == pytest.approx(old, rel=1e-12)
            old_bound = old[0] + old[1] + 2.0 * math.sqrt(old[0] * old[1]) + old[2]
            assert mechanism_mse_bound(d, Mechanism.SHIFTED, eps) == pytest.approx(old_bound, rel=1e-12)

    def test_bound_collapses_to_linear_term_for_large_n(self):
        d = BoundedDataset((0.6,) * 1_000_000, 0.0, 1.0)
        for mech in (Mechanism.SHIFTED, Mechanism.TRANSFORMED):
            terms = clipped_ratio_terms_for(d, mech, PrivacyBudget(0.5))
            ratio = clipped_ratio_mse_bound(terms) / terms.linear_sq
            assert 1.0 <= ratio < 1.001

    def test_bound_exposes_terms(self):
        terms = clipped_ratio_terms(5.0, 10.0, 1.0, 1.0, 0.8)
        total = clipped_ratio_mse_bound(terms)
        assert total == pytest.approx(
            terms.linear_sq + terms.remainder_sq_bound + terms.cross_term + terms.tail
        )
        assert total > terms.linear_sq


class TestBoundValidity:
    """Monte-Carlo check that the combined bound dominates the true MSE of
    the clipped-ratio estimator; the sampler here is plain numpy, independent
    of the package's own noise path."""

    def test_independent_laplace_configs(self):
        rng = np.random.default_rng(42)
        trials = 400_000
        for a, b, cap, sa, sb, lo, hi in [
            (5.0, 10.0, 1.0, 1.0, 0.8, 0.0, 1.0),
            (0.0, 8.0, 0.5, 2.0, 1.0, -0.5, 0.5),
            (-3.0, 6.0, 1.0, 0.5, 0.5, -1.0, 1.0),
        ]:
            za = rng.laplace(scale=sa, size=trials)
            zb = rng.laplace(scale=sb, size=trials)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (a + za) / (b + zb)
            ratio = np.nan_to_num(ratio, nan=(lo + hi) / 2)
            mse = float(np.mean((np.clip(ratio, lo, hi) - a / b) ** 2))
            bound = clipped_ratio_mse_bound(clipped_ratio_terms(a, b, cap, sa, sb))
            assert mse <= bound

    def test_transformed_pair_config(self):
        rng = np.random.default_rng(43)
        trials = 400_000
        n, eps = 30, 0.5
        d = BoundedDataset((0.3,) * n, 0.0, 1.0)
        s1 = d.scaled_total
        z1 = rng.laplace(scale=1 / eps, size=trials)
        z2 = rng.laplace(scale=1 / eps, size=trials)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (s1 + z1) / (n + z1 + z2)
        ratio = np.nan_to_num(ratio, nan=0.5)
        mse = float(np.mean((np.clip(ratio, 0.0, 1.0) - s1 / n) ** 2))
        assert mse <= mechanism_mse_bound(d, Mechanism.TRANSFORMED, PrivacyBudget(eps))

    def test_independent_mechanism_on_wide_bounds(self):
        # the package's estimator on plain numpy noise at its own scales
        rng = np.random.default_rng(44)
        eps = PrivacyBudget(0.5)
        for n in (30, 200):
            d = BoundedDataset(np.linspace(-1.0, 3.0, n) ** 2 / 3.0 - 1.0, -1.0, 3.0)
            sa, sb = noise_scales(d, Mechanism.INDEPENDENT, eps)
            za = rng.laplace(scale=sa, size=400_000)
            zb = rng.laplace(scale=sb, size=400_000)
            _, _, est = noisy_estimate(d, Mechanism.INDEPENDENT, za, zb)
            mse = float(np.mean((est - true_mean(d)) ** 2))
            assert mse <= mechanism_mse_bound(d, Mechanism.INDEPENDENT, eps)

    def test_mechanism_bound_scales_with_width(self):
        d01 = BoundedDataset((0.25,) * 50, 0.0, 1.0)
        d24 = BoundedDataset((2.5,) * 50, 2.0, 4.0)
        eps = PrivacyBudget(0.5)
        b01 = mechanism_mse_bound(d01, Mechanism.TRANSFORMED, eps)
        b24 = mechanism_mse_bound(d24, Mechanism.TRANSFORMED, eps)
        assert b24 == pytest.approx(4.0 * b01, rel=1e-12)


class TestLowerBoundEnvelope:
    def test_floor_sits_below_measured_worst_case(self, eps_half_grid_reports):
        # each mechanism's measured worst case over the mean grid, read at its
        # +3-stderr upper envelope, must sit above the information floor
        floor = lower_bound_leading(0.5, 0.0, 1.0)
        for mech, reports in eps_half_grid_reports.items():
            envelope = max(r.normalized_mse + 3 * r.stderr * r.n**2 for r in reports)
            assert floor <= envelope, (mech, envelope)
