import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean.noise import (
    Cursor,
    GeometricParams,
    LaplaceParams,
    RandomStream,
    laplace_from_uniform,
    laplace_sample,
    trial_cursor,
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

    @staticmethod
    def reference(u, scale):
        """The Laplace inverse CDF as one expression of fresh arrays."""
        t = np.asarray(u, dtype=np.float64) - 0.5
        x = -scale * np.sign(t) * np.log1p(-2.0 * np.abs(t))
        return x if x.ndim else float(x)

    def test_in_place_form_matches_reference_in_hex(self):
        edges = [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 2.0**-53, 1.0 - 2.0**-53]
        u = np.concatenate([Cursor(RandomStream(17, 0)).uniforms_open(100_000), edges])
        u.flags.writeable = False  # the transform must not write its input
        rows = u.reshape(5, -1)
        scales = np.array([0.3, 1.0, 2.0, 7.5e3, 1e-300])[:, None]

        def hexes(x):
            return [float(v).hex() for v in np.ravel(x)]

        for scale in (0.7, 2.0):
            assert hexes(laplace_from_uniform(u, scale)) == hexes(self.reference(u, scale))
        assert hexes(laplace_from_uniform(rows, scales)) == hexes(self.reference(rows, scales))
        for v in edges:
            got, want = laplace_from_uniform(float(v), 1.3), self.reference(float(v), 1.3)
            assert type(got) is float and got.hex() == want.hex()
        assert laplace_from_uniform(0.5, 1.0).hex() == "0x0.0p+0"  # +0.0, not -0.0

    def test_unit_transform_times_scale_keeps_bits(self):
        # the sweep and the family transform each draw once at unit scale and
        # scale it per plan: the sign is exact and the product rounds once
        edges = [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 2.0**-53, 2.0**-52, 1.0 - 2.0**-53]
        u = np.concatenate([Cursor(RandomStream(23, 0)).uniforms_open(100_000), edges])
        unit = laplace_from_uniform(u, 1.0)
        for scale in (0.3, 1.0, 2.0, 4.0, 20.0, 7.5e3, 1e300, 1e-300, 5e-324):
            assert np.array_equal((unit * scale).view(np.uint64), laplace_from_uniform(u, scale).view(np.uint64))
            for v in edges:
                got = laplace_from_uniform(float(v), 1.0) * scale
                assert type(got) is float and got.hex() == laplace_from_uniform(float(v), scale).hex()
        assert (laplace_from_uniform(0.5, 1.0) * 2.0).hex() == "0x0.0p+0"  # +0.0, not -0.0

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

    @pytest.mark.parametrize("alpha", [1e-12, math.exp(-0.1), math.exp(-0.5), math.exp(-1.0), 0.9999])
    def test_one_log_equals_the_two_log_formula(self, alpha):
        def two_logs(u):
            neg = u * (1.0 + alpha) <= alpha
            k_neg = np.ceil(-np.log(u * (1.0 + alpha)) / math.log(alpha))
            k_pos = np.maximum(0.0, np.ceil(np.log((1.0 - u) * (1.0 + alpha)) / math.log(alpha) - 1.0))
            return np.where(neg, k_neg, k_pos).astype(np.int64)

        # the sides meet at u = alpha/(1+alpha)
        c = alpha / (1.0 + alpha)
        edges = np.array([2.0**-53, 0.5, 1.0 - 2.0**-53, c, np.nextafter(c, 0.0), np.nextafter(c, 1.0)])
        u = np.concatenate([edges, Cursor(RandomStream(29, 0)).uniforms_open(100_000)])
        assert np.array_equal(two_sided_geometric_from_uniform(u, alpha), two_logs(u))
        for e in edges.tolist():
            assert two_sided_geometric_from_uniform(e, alpha) == int(two_logs(np.array(e)))

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

    def test_cursor_at_counter_skips_whole_blocks(self):
        # block t of a stream is the 4 words after the first 4t
        for t in (0, 1, 2**40):
            at = Cursor(RandomStream(7, 3), t)
            gen = numpy_stream(7, 3)
            if t < 2**20:
                gen.bit_generator.random_raw(4 * t)
            else:
                gen.bit_generator.advance(t)
            assert [at.uniform_open() for _ in range(6)] == [gen.random() for _ in range(6)]

    def test_cursor_counter_validated(self):
        for bad in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError, match="counter must be an unsigned 64-bit integer"):
                Cursor(RandomStream(7, 0), bad)

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


def one_seed(seed, trials):
    """``trial_uniform_pairs`` of the one-seed list [seed]: its one row, as
    the (u_a, u_b) views of its trial pairs."""
    (u,) = trial_uniform_pairs([seed], trials)
    return u[:, 0], u[:, 1]


class TestPhiloxKernel:
    """``trial_uniform_pairs``, drawn through numpy's C Philox kernel,
    against numpy's Philox from the stream's start: trial t reads doubles 2t
    and 2t+1 of stream (seed, 0), the first two draws of a cursor past its
    first 2t doubles."""

    @staticmethod
    def numpy_trial(seed, t):
        """numpy's generator on stream (seed, 0), past its first 2t doubles."""
        gen = numpy_stream(seed, 0)
        gen.random(2 * t)
        return gen

    def test_first_words_match_numpy_philox(self):
        trials = 10_000
        u0, u1 = one_seed(20240601, trials)
        assert u0.shape == u1.shape == (trials,)
        doubles = numpy_stream(20240601, 0).random(2 * trials)
        assert np.array_equal(u0, doubles[0::2]) and np.array_equal(u1, doubles[1::2])

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_edge_keys(self, seed):
        trials = 600
        u0, u1 = one_seed(seed, trials)
        for t in (0, 1, trials - 1):
            gen = self.numpy_trial(seed, t)
            assert (gen.random(), gen.random()) == (u0[t], u1[t])

    def test_scalar_id_is_a_batch_of_one(self):
        u0, u1 = one_seed(2**64 - 1, 1)
        gen = numpy_stream(2**64 - 1, 0)
        assert u0.shape == u1.shape == (1,)
        assert (gen.random(), gen.random()) == (u0[0], u1[0])

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 1])
    def test_trial_zero_is_the_release_stream(self, seed):
        # `dpmean estimate` draws from RandomStream(seed, 0) from its start
        u0, u1 = one_seed(seed, 5)
        cursor = RandomStream(seed, 0).cursor()
        assert (cursor.uniform_open(), cursor.uniform_open()) == (u0[0], u1[0])

    def test_seed_validated(self):
        for bad in (-1, 2**64, 1.5, True):
            with pytest.raises(ValueError, match="unsigned 64-bit integer"):
                trial_uniform_pairs([bad], 3)

    def test_pairs_equal_two_scalar_draws(self):
        u0, u1 = one_seed(77, 50)
        for t in (0, 5, 17, 48, 49):
            cursor = trial_cursor(RandomStream(77, 0), t)
            assert (cursor.uniform_open(), cursor.uniform_open()) == (u0[t], u1[t])

    @pytest.mark.parametrize("t", [0, 1, 2, 7, 4096, 4097])
    def test_trial_cursor_is_past_two_doubles_per_trial(self, t):
        # block t // 2 opens the cursor; an odd t starts halfway through it
        cursor = trial_cursor(RandomStream(7, 3), t)
        gen = numpy_stream(7, 3)
        gen.random(2 * t)
        assert [cursor.uniform_open() for _ in range(6)] == [gen.random() for _ in range(6)]

    @staticmethod
    def force_zero_double(monkeypatch, seed, index):
        """Make double ``index`` of stream (seed, 0) read as 0.0 in every draw
        that reaches it: the row draw of a cursor keyed (seed, 0), opened or
        moved there by ``jump_to``, and the draws of a trial's own cursor,
        the two it skips included."""
        real_init = Cursor.__init__

        class ZeroedDouble:
            def __init__(self, gen):
                self._gen = gen

            def random(self, size=None, out=None):
                st = self._gen.bit_generator.state
                # the stream's doubles drawn before this call
                drawn = 4 * int(st["state"]["counter"][0]) + st["buffer_pos"] - 4
                scalar = size is None and out is None
                u = self._gen.random(1 if scalar else size, out=out)
                flat = u.reshape(-1)  # a view: ``out`` is C-contiguous
                if st["state"]["key"].tolist() == [seed, 0] and 0 <= index - drawn < flat.size:
                    flat[index - drawn] = 0.0
                return float(u[0]) if scalar else u

        def init(self, stream, counter=0):
            real_init(self, stream, counter)
            self._gen = ZeroedDouble(self._gen)

        monkeypatch.setattr(Cursor, "__init__", init)

    def test_zero_word_redraws_like_scalar_cursor(self, monkeypatch):
        # a zero at double 2t: the pair is doubles 2t+1 and 2t+2, and trial
        # t+1 still reads 2t+2 and 2t+3
        seed, target = 31, 17
        clean = one_seed(seed, 64)
        self.force_zero_double(monkeypatch, seed, 2 * target)
        u0, u1 = one_seed(seed, 64)
        scalar = trial_cursor(RandomStream(seed, 0), target)
        assert (u0[target], u1[target]) == (scalar.uniform_open(), scalar.uniform_open())
        doubles = numpy_stream(seed, 0).random(130)
        assert (u0[target], u1[target]) == (doubles[2 * target + 1], doubles[2 * target + 2])
        assert (u0[target + 1], u1[target + 1]) == (doubles[2 * target + 2], doubles[2 * target + 3])
        others = np.arange(64) != target
        assert np.array_equal(u0[others], clean[0][others])
        assert np.array_equal(u1[others], clean[1][others])

    def test_zero_second_double_takes_the_next_one(self, monkeypatch):
        # a zero at double 2t+1, for an even t: the pair is doubles 2t and 2t+2
        seed, target = 31, 20
        clean = one_seed(seed, 64)
        self.force_zero_double(monkeypatch, seed, 2 * target + 1)
        u0, u1 = one_seed(seed, 64)
        scalar = trial_cursor(RandomStream(seed, 0), target)
        assert (u0[target], u1[target]) == (scalar.uniform_open(), scalar.uniform_open())
        doubles = numpy_stream(seed, 0).random(130)
        assert (u0[target], u1[target]) == (doubles[2 * target], doubles[2 * target + 2])
        others = np.arange(64) != target
        assert np.array_equal(u0[others], clean[0][others])
        assert np.array_equal(u1[others], clean[1][others])

    @pytest.mark.parametrize("trials, index", [(63, 124), (63, 125), (64, 126), (64, 127)])
    def test_zero_at_the_last_trial_reads_past_the_row(self, monkeypatch, trials, index):
        # the last pair takes double 2 * trials, which the row draw never made
        seed, target = 31, trials - 1
        clean = one_seed(seed, trials)
        self.force_zero_double(monkeypatch, seed, index)
        u0, u1 = one_seed(seed, trials)
        doubles = numpy_stream(seed, 0).random(2 * trials + 1)
        first = doubles[2 * target + 1] if index == 2 * target else doubles[2 * target]
        assert (u0[target], u1[target]) == (first, doubles[2 * trials])
        assert np.array_equal(u0[:-1], clean[0][:-1]) and np.array_equal(u1[:-1], clean[1][:-1])

    def test_zero_word_in_a_seed_batch_redraws_from_its_own_seed(self, monkeypatch):
        # of a sweep's cells, only the hit one moves, and it redraws from its own seed
        seeds, hit_seed, target = (31, 32, 33), 32, 17
        clean = [one_seed(s, 64) for s in seeds]
        self.force_zero_double(monkeypatch, hit_seed, 2 * target)
        pairs = {s: one_seed(s, 64) for s in seeds}
        for seed, (u0, u1) in zip(seeds, clean):
            if seed != hit_seed:
                assert np.array_equal(pairs[seed][0], u0) and np.array_equal(pairs[seed][1], u1)
        u0, u1 = pairs[hit_seed]
        gen = self.numpy_trial(hit_seed, target)
        gen.random()  # the zero double
        assert (u0[target], u1[target]) == (gen.random(), gen.random())
        assert np.array_equal(np.delete(u0, target), np.delete(clean[1][0], target))

    def test_zero_word_in_one_row_of_a_batch_call_moves_only_that_row(self, monkeypatch):
        seeds, hit_seed, target = [31, 32, 33], 32, 17
        clean = trial_uniform_pairs(seeds, 64)
        self.force_zero_double(monkeypatch, hit_seed, 2 * target)
        u = trial_uniform_pairs(seeds, 64)
        moved = np.zeros((3, 64), dtype=bool)
        moved[1, target] = True
        assert np.array_equal(u[~moved], clean[~moved])
        gen = self.numpy_trial(hit_seed, target)
        gen.random()  # the zero double
        assert tuple(u[1, target]) == (gen.random(), gen.random())

    @pytest.mark.parametrize("trials", [1, 7, 4097])
    def test_rows_equal_per_seed_calls(self, trials):
        seeds = [0, 2**63, 2**64 - 1]
        u = trial_uniform_pairs(seeds, trials)
        assert u.shape == (3, trials, 2)
        for row, seed in enumerate(seeds):
            a, b = one_seed(seed, trials)
            assert u[row].flags.c_contiguous
            assert np.array_equal(u[row, :, 0], a) and np.array_equal(u[row, :, 1], b)

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, True])
    def test_bad_seed_in_a_sequence_raises_the_scalar_error(self, bad):
        with pytest.raises(ValueError) as scalar:
            trial_uniform_pairs([bad], 3)
        with pytest.raises(ValueError) as batch:
            trial_uniform_pairs([5, bad], 3)
        assert str(batch.value) == str(scalar.value)

    def test_max_seed_in_an_array_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u0, u1 = one_seed(2**64 - 1, 3)
        gen = self.numpy_trial(2**64 - 1, 2)
        assert (u0[2], u1[2]) == (gen.random(), gen.random())

    @pytest.mark.parametrize("trials", [1, 7, 1365, 4097])
    def test_trial_pairs_equal_per_seed_calls(self, trials):
        for seed in (3, 2**64 - 1, 0, 2**40, 9):
            u_a, u_b = one_seed(seed, trials)
            cursors = [trial_cursor(RandomStream(seed, 0), t) for t in range(trials)]
            expected = [(c.uniform_open(), c.uniform_open()) for c in cursors]
            assert list(zip(u_a.tolist(), u_b.tolist())) == expected

    @pytest.mark.parametrize("trials", [0, -1, True, 2.0])
    def test_trial_count_validated(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            trial_uniform_pairs([3], trials)

    def test_adjacent_trials_uncorrelated(self):
        # at 10^5 trials the 0.02 gate sits over 6 standard errors out
        u0, u1 = one_seed(20240601, 100_000)
        for a, b in ((u0[:-1], u0[1:]), (u1[:-1], u1[1:]), (u0[:-1], u1[1:]), (u0, u1)):
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.02
