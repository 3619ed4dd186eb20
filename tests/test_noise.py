import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean import noise
from dpmean.noise import (
    Cursor,
    GeometricParams,
    LaplaceParams,
    RandomStream,
    laplace_from_uniform,
    laplace_sample,
    _BLOCK,
    open_uniform_pairs,
    philox_first_words,
    trial_uniform_pairs,
    two_sided_geometric_from_uniform,
    two_sided_geometric_sample,
)

# Oracle for the u=0.75 example: bisection on F(x) = 1 - exp(-x)/2 gave
# 0.6931471805599454; the u=0.25, b=2 case follows by symmetry and scaling.
LAPLACE_INV_075 = 0.6931471805599454

# Oracle for alpha = exp(-0.5): 2 * sum_{k>=1} k^2 (1-a)/(1+a) a^k summed to
# convergence equals the closed form 2a/(1-a)^2.
GEO_VAR_HALF = 7.835396178065527
GEO_P0_HALF = 0.24491866240370913

# First draws pinned for (seed=9001, stream_id, params); any change to the
# stream derivation or the inverse-CDF transforms is a breaking change.
LAPLACE_GOLDEN = (
    -4.362880998781808,
    0.7010020573935201,
    -2.094534212911996,
    0.054228273399195476,
    -1.0640211850158539,
    -0.9288499834990356,
    -0.7122541929026606,
    0.24263113417595,
    0.09172494127247914,
    -2.775049461320611,
    -0.7697806824871625,
    2.1269125537404365,
    -3.9180718749143737,
    -0.3659588770877901,
    3.094267278629553,
    -2.0609576806112346,
)
GEOMETRIC_GOLDEN = (1, 0, -1, 1, -1, 2, 1, 0, 1, -2, -6, 0, 0, -7, 1, -1)
UNIFORM_GOLDEN = (
    0.1796671817876464,
    0.4569087745608038,
    0.4558884829682003,
    0.704490587451108,
)


def numpy_stream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream_id], dtype=np.uint64)))


def geo_cdf(k: int, alpha: float) -> float:
    if k < 0:
        return alpha ** (-k) / (1 + alpha)
    return 1 - alpha ** (k + 1) / (1 + alpha)


class TestParams:
    def test_laplace_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0)
        with pytest.raises(ValueError):
            LaplaceParams(-1.0)
        with pytest.raises(ValueError):
            LaplaceParams(math.inf)

    def test_geometric_alpha_in_open_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                GeometricParams(bad)

    def test_stream_ids_are_uint64(self):
        for seed, sid in ((-1, 0), (0, 2**64), (1.5, 0), (0, 1.0), (True, 0), (0, np.bool_(True))):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                RandomStream(seed, sid)
        RandomStream(2**64 - 1, 2**64 - 1)
        RandomStream(np.uint64(2**64 - 1), np.int64(3))


class TestLaplaceTransform:
    def test_median_maps_to_zero(self):
        assert laplace_from_uniform(0.5, 1.0) == 0.0

    def test_inverse_cdf_values(self):
        assert laplace_from_uniform(0.75, 1.0) == pytest.approx(LAPLACE_INV_075, rel=1e-12)
        assert laplace_from_uniform(0.25, 2.0) == pytest.approx(-2 * LAPLACE_INV_075, rel=1e-12)

    def test_scalar_sampler_matches_transform(self):
        # scalar draws and one array evaluation agree bit for bit
        cursor = RandomStream(5, 5).cursor()
        us = Cursor(RandomStream(5, 5)).uniforms_open(200)
        xs = laplace_from_uniform(us, 0.7)
        for u, x in zip(us, xs):
            assert laplace_sample(cursor, LaplaceParams(0.7)) == x == laplace_from_uniform(float(u), 0.7)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=1e-6, max_value=1e6))
    def test_antisymmetric_in_u(self, u, scale):
        # 1 - u is itself rounded, so allow the magnified tail error
        a = laplace_from_uniform(u, scale)
        b = laplace_from_uniform(1 - u, scale)
        assert a == pytest.approx(-b, rel=1e-6, abs=1e-9 * scale)

    @given(st.lists(st.floats(min_value=1e-9, max_value=1 - 1e-9), min_size=2, max_size=20))
    def test_monotone_in_u(self, us):
        us = sorted(us)
        xs = [float(laplace_from_uniform(u, 1.3)) for u in us]
        assert xs == sorted(xs)

    def test_moments_over_million_draws(self):
        b = 1.5
        cursor = RandomStream(123, 0).cursor()
        xs = laplace_from_uniform(cursor.uniforms_open(1_000_000), b)
        n = xs.size
        assert abs(xs.mean()) < 5 * b / math.sqrt(n)
        var = xs.var()
        assert abs(var - 2 * b * b) / (2 * b * b) < 0.01


class TestGeometricTransform:
    def test_degenerate_small_alpha_is_zero(self):
        cursor = RandomStream(1, 1).cursor()
        samples = [two_sided_geometric_sample(cursor, GeometricParams(1e-12)) for _ in range(200)]
        assert all(s == 0 for s in samples)

    def test_p_zero_and_variance_against_series(self):
        alpha = math.exp(-0.5)
        c = (1 - alpha) / (1 + alpha)
        assert c == pytest.approx(GEO_P0_HALF, rel=1e-12)
        series = 2 * sum(k * k * c * alpha**k for k in range(1, 5000))
        assert series == pytest.approx(GEO_VAR_HALF, rel=1e-12)

    def test_empirical_variance_million_draws(self):
        alpha = math.exp(-0.5)
        cursor = RandomStream(321, 0).cursor()
        zs = two_sided_geometric_from_uniform(cursor.uniforms_open(1_000_000), alpha)
        assert abs(zs.var() / GEO_VAR_HALF - 1) < 0.02

    def test_empirical_p0(self):
        alpha = math.exp(-0.5)
        cursor = RandomStream(322, 0).cursor()
        zs = two_sided_geometric_from_uniform(cursor.uniforms_open(400_000), alpha)
        assert (zs == 0).mean() == pytest.approx(GEO_P0_HALF, abs=0.005)

    def test_scalar_sampler_matches_transform(self):
        alpha = math.exp(-0.7)
        cursor = RandomStream(6, 6).cursor()
        probe = Cursor(RandomStream(6, 6))
        for _ in range(500):
            u = probe.uniform_open()
            z = two_sided_geometric_sample(cursor, GeometricParams(alpha))
            assert z == int(two_sided_geometric_from_uniform(u, alpha))

    @settings(max_examples=300)
    @given(
        st.floats(min_value=1e-6, max_value=1 - 1e-6),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_inverse_cdf_consistency(self, u, alpha):
        k = int(two_sided_geometric_from_uniform(u, alpha))
        # min{k : F(k) >= u}: allow float slack right at cell boundaries
        assert geo_cdf(k, alpha) >= u - 1e-9
        assert geo_cdf(k - 1, alpha) <= u + 1e-9

    def test_symmetry_of_distribution(self):
        alpha = 0.6
        cursor = RandomStream(55, 0).cursor()
        zs = two_sided_geometric_from_uniform(cursor.uniforms_open(500_000), alpha)
        assert abs(zs.mean()) < 0.01
        assert abs((zs > 0).mean() - (zs < 0).mean()) < 0.005


class TestStreams:
    def test_same_stream_reproduces(self):
        a = RandomStream(42, 0).cursor()
        b = RandomStream(42, 0).cursor()
        assert [a.uniform_open() for _ in range(100)] == [b.uniform_open() for _ in range(100)]

    def test_distinct_stream_ids_decorrelated(self):
        # at 10^4 draws the 0.1 gate sits 10 standard errors out
        a = RandomStream(42, 0).cursor().uniforms_open(10_000)
        b = RandomStream(42, 1).cursor().uniforms_open(10_000)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.1
        assert not np.array_equal(a[:100], b[:100])

    def test_distinct_seeds_differ(self):
        a = RandomStream(42, 0).cursor()
        b = RandomStream(43, 0).cursor()
        assert a.uniform_open() != b.uniform_open()

    def test_jump_to_equals_fresh_cursor(self):
        cursor = Cursor(RandomStream(7, 0))
        for sid in (3, 0, 2**63, 11):
            cursor.jump_to(RandomStream(7, sid))
            fresh = Cursor(RandomStream(7, sid))
            assert [cursor.uniform_open() for _ in range(8)] == [
                fresh.uniform_open() for _ in range(8)
            ]

    def test_batch_uniforms_match_scalar(self):
        a = RandomStream(9, 9).cursor()
        b = RandomStream(9, 9).cursor()
        xs = a.uniforms_open(64)
        ys = np.array([b.uniform_open() for _ in range(64)])
        assert np.array_equal(xs, ys)

    def test_cross_correlation_many_streams(self):
        # pairwise correlation over a block of streams stays small
        base = [RandomStream(1000, sid).cursor().uniforms_open(200) for sid in range(8)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert abs(np.corrcoef(base[i], base[j])[0, 1]) < 0.25


class TestGolden:
    def test_laplace_draws_pinned(self):
        cursor = RandomStream(9001, 7).cursor()
        params = LaplaceParams(1.5)
        draws = tuple(laplace_sample(cursor, params) for _ in range(16))
        assert draws == LAPLACE_GOLDEN

    def test_geometric_draws_pinned(self):
        cursor = RandomStream(9001, 8).cursor()
        params = GeometricParams(math.exp(-0.5))
        draws = tuple(two_sided_geometric_sample(cursor, params) for _ in range(16))
        assert draws == GEOMETRIC_GOLDEN

    def test_uniform_draws_pinned(self):
        cursor = RandomStream(9001, 9).cursor()
        draws = tuple(cursor.uniform_open() for _ in range(4))
        assert draws == UNIFORM_GOLDEN


class _FirstDrawZero:
    """Generator stand-in whose first draw reads as 0.0 (it still consumes
    the word), then delegates."""

    def __init__(self, gen):
        self._gen = gen
        self._first = True

    def random(self):
        u = self._gen.random()
        if self._first:
            self._first = False
            return 0.0
        return u


class TestPhiloxKernel:
    @staticmethod
    def assert_matches_numpy(seed, ids):
        w0, w1 = philox_first_words(seed, ids)
        u0, u1 = open_uniform_pairs(seed, ids)
        for i, sid in enumerate(ids.tolist()):
            assert numpy_stream(seed, sid).bit_generator.random_raw(2).tolist() == [w0[i], w1[i]]
            gen = numpy_stream(seed, sid)
            assert (gen.random(), gen.random()) == (u0[i], u1[i])

    def test_first_words_match_numpy_philox(self):
        self.assert_matches_numpy(20240601, np.arange(10_000, dtype=np.uint64))

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_edge_keys(self, seed):
        # ids near 2^64 - 1 make the Weyl increments of the key wrap
        top = np.arange(2**64 - 600, 2**64, dtype=np.uint64)
        ids = np.concatenate([np.arange(600, dtype=np.uint64), top, np.array([2**63], dtype=np.uint64)])
        self.assert_matches_numpy(seed, ids)

    def test_scalar_id_is_a_batch_of_one(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w0, w1 = philox_first_words(2**64 - 1, 2**64 - 1)
        assert numpy_stream(2**64 - 1, 2**64 - 1).bit_generator.random_raw(2).tolist() == [w0[0], w1[0]]

    def test_seed_validated(self):
        for bad in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                open_uniform_pairs(bad, np.arange(3, dtype=np.uint64))

    @pytest.mark.parametrize(
        "ids",
        [[1.5], [True], np.array([-1]), np.array([3, -1], dtype=np.int8),
         [2**64 - 1, 1.0], [2**64 - 1, True], [2**64 - 1, -1], [2**64 - 1, 2**64]],
        ids=["float", "bool", "negative", "negative-int8",
             "float-beside-top", "bool-beside-top", "negative-beside-top", "too-large-beside-top"],
    )
    def test_stream_ids_validated(self, ids):
        for kernel in (open_uniform_pairs, philox_first_words):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                kernel(7, ids)

    def test_integer_stream_ids_of_any_width(self):
        # a signed array without negative entries keys the same streams
        expected = philox_first_words(7, np.array([0, 5], dtype=np.uint64))
        for ids in ([0, 5], np.array([0, 5], dtype=np.int32), np.array([0, 5], dtype=np.uint8)):
            assert np.array_equal(philox_first_words(7, ids), expected)

    def test_list_ids_above_2_63_convert_exactly(self):
        # np.asarray would make this list float64 and reject it
        ids = [2**64 - 1, 1, 2**63]
        as_array = np.array(ids, dtype=np.uint64)
        self.assert_matches_numpy(7, as_array)
        assert np.array_equal(philox_first_words(7, ids), philox_first_words(7, as_array))
        for got, expected in zip(open_uniform_pairs(7, ids), open_uniform_pairs(7, as_array)):
            assert got.tobytes() == expected.tobytes()
        seeds = [[2**64 - 1], [5]]
        for got, expected in zip(
            open_uniform_pairs(seeds, ids), open_uniform_pairs(np.array(seeds, dtype=np.uint64), as_array)
        ):
            assert got.shape == (2, 3) and got.tobytes() == expected.tobytes()

    def test_pairs_equal_two_scalar_draws(self):
        ids = np.array([0, 5, 2**40, 3], dtype=np.uint64)
        u0, u1 = open_uniform_pairs(77, ids)
        for i, sid in enumerate(ids.tolist()):
            cursor = RandomStream(77, sid).cursor()
            assert (cursor.uniform_open(), cursor.uniform_open()) == (u0[i], u1[i])

    def test_zero_word_redraws_like_scalar_cursor(self, monkeypatch):
        seed, target = 31, 17
        ids = np.arange(64, dtype=np.uint64)
        clean = open_uniform_pairs(seed, ids)

        def forced(seed_, ids_):
            w0, w1 = philox_first_words(seed_, ids_)
            w0[ids_ == target] = 0
            return w0, w1

        real_init = Cursor.__init__

        def init(self, stream):
            real_init(self, stream)
            if stream == RandomStream(seed, target):
                self._gen = _FirstDrawZero(self._gen)

        monkeypatch.setattr(noise, "philox_first_words", forced)
        monkeypatch.setattr(Cursor, "__init__", init)
        u0, u1 = open_uniform_pairs(seed, ids)
        scalar = RandomStream(seed, target).cursor()
        assert (u0[target], u1[target]) == (scalar.uniform_open(), scalar.uniform_open())
        # the redraw skips the zero word: the pair is words 1 and 2
        gen = numpy_stream(seed, target)
        gen.random()
        assert (u0[target], u1[target]) == (gen.random(), gen.random())
        others = ids != target
        assert np.array_equal(u0[others], clean[0][others])
        assert np.array_equal(u1[others], clean[1][others])

    def test_seed_grid_matches_per_seed_calls(self):
        seeds = np.array([[0], [5], [2**63], [2**64 - 1], [20240601]], dtype=np.uint64)
        ids = np.concatenate([np.arange(37, dtype=np.uint64), np.array([2**64 - 1], dtype=np.uint64)])
        w0, w1 = philox_first_words(seeds, ids)
        u0, u1 = open_uniform_pairs(seeds, ids)
        assert w0.shape == u0.shape == (5, 38)
        for row, seed in enumerate(seeds[:, 0].tolist()):
            one = philox_first_words(seed, ids)
            assert np.array_equal(w0[row], one[0]) and np.array_equal(w1[row], one[1])
            pair = open_uniform_pairs(seed, ids)
            assert np.array_equal(u0[row], pair[0]) and np.array_equal(u1[row], pair[1])
            for col, sid in enumerate(ids.tolist()):
                expected = numpy_stream(seed, sid).bit_generator.random_raw(2).tolist()
                assert expected == [w0[row, col], w1[row, col]]

    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_block_edges_equal_one_stream_at_a_time(self, size):
        # a different seed every few streams, so blocks also cut across seeds
        ids = np.arange(size, dtype=np.uint64)
        seeds = 2**64 - 1 - ids // 3
        w0, w1 = philox_first_words(seeds, ids)
        for i in range(size):
            expected = numpy_stream(int(seeds[i]), i).bit_generator.random_raw(2).tolist()
            assert expected == [w0[i], w1[i]]
        for i in {0, _BLOCK - 1, _BLOCK, size - 1} & set(range(size)):
            one = philox_first_words(int(seeds[i]), i)
            assert (one[0][0], one[1][0]) == (w0[i], w1[i])

    def test_max_seed_in_an_array_raises_no_warning(self):
        seeds = np.array([[2**64 - 1], [1]], dtype=np.uint64)
        ids = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w0, w1 = philox_first_words(seeds, ids)
            pairs = list(trial_uniform_pairs([2**64 - 1, 1], 3))
        expected = numpy_stream(2**64 - 1, 2**64 - 1).bit_generator.random_raw(2).tolist()
        assert expected == [w0[0, 2], w1[0, 2]]
        gen = numpy_stream(2**64 - 1, 2)
        assert (pairs[0][0][2], pairs[0][1][2]) == (gen.random(), gen.random())

    def test_zero_word_in_a_seed_batch_redraws_from_its_own_seed(self, monkeypatch):
        seeds = np.array([[31], [32], [33]], dtype=np.uint64)
        hit_seed, target = 32, 17
        ids = np.arange(64, dtype=np.uint64)
        clean = open_uniform_pairs(seeds, ids)

        def forced(seeds_, ids_):
            w0, w1 = philox_first_words(seeds_, ids_)
            w0[(seeds_ == hit_seed) & (ids_ == target)] = 0
            return w0, w1

        real_init = Cursor.__init__

        def init(self, stream):
            real_init(self, stream)
            if stream == RandomStream(hit_seed, target):
                self._gen = _FirstDrawZero(self._gen)

        monkeypatch.setattr(noise, "philox_first_words", forced)
        monkeypatch.setattr(Cursor, "__init__", init)
        u0, u1 = open_uniform_pairs(seeds, ids)
        gen = numpy_stream(hit_seed, target)
        gen.random()  # the zero word
        assert (u0[1, target], u1[1, target]) == (gen.random(), gen.random())
        others = np.ones(u0.shape, dtype=bool)
        others[1, target] = False
        assert np.array_equal(u0[others], clean[0][others])
        assert np.array_equal(u1[others], clean[1][others])

    @pytest.mark.parametrize("trials", [1, 7, _BLOCK // 3, _BLOCK + 1])
    def test_trial_pairs_equal_per_seed_calls(self, trials):
        seeds = [3, 2**64 - 1, 0, 2**40, 9]
        pairs = list(trial_uniform_pairs(seeds, trials))
        assert len(pairs) == len(seeds)
        for seed, (u_a, u_b) in zip(seeds, pairs):
            expected = open_uniform_pairs(seed, np.arange(trials, dtype=np.uint64))
            assert np.array_equal(u_a, expected[0]) and np.array_equal(u_b, expected[1])

    @pytest.mark.parametrize("trials", [0, -1, True, 2.0])
    def test_trial_count_validated(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            next(trial_uniform_pairs([3, 9], trials))
