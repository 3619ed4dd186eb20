import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmean import harness
from dpmean.bounds import geometric_count_variance, mechanism_mse_bound
from dpmean.harness import (
    CSV_HEADER,
    GEOMETRIC_COUNT,
    DatasetKind,
    DatasetSpec,
    ExperimentConfig,
    _derived_seed,
    config_from_json,
    config_metadata,
    estimate_mse,
    generate_dataset,
    preset_config,
    preset_family_k,
    reports_to_csv,
    squared_errors,
    sweep,
    worst_case_over_family,
    write_metadata,
)
from dpmean.mechanisms import (
    COMPLEMENT_TRANSFORM,
    BoundedDataset,
    Mechanism,
    PrivacyBudget,
    run_mechanism,
    true_mean,
)
from dpmean.noise import GeometricParams, RandomStream, trial_cursor, two_sided_geometric_sample

EPS = PrivacyBudget(0.5)
GATE_SEED = 20240601

# bounds of the ones-over-zeros property test: unit, symmetric, off-centre,
# all-negative and widely scaled intervals
FAMILY_BOUNDS = [
    (0.0, 1.0), (-1.0, 1.0), (-2.86, 4.07), (-1e3, 1e-3), (0.1, 0.3), (-5.0, -2.0), (1e-6, 1e6),
]


MIXED_SPECS = (
    DatasetSpec(DatasetKind.TWO_POINT, 60, 0.3, (0.0, 1.0)),
    DatasetSpec(DatasetKind.CONSTANT, 37, 2.5, (-3.0, 7.5)),
    DatasetSpec(DatasetKind.TWO_POINT, 25, 0.9, (0.0, 1.0)),
    DatasetSpec(DatasetKind.TWO_POINT, 60, -1.0, (-3.0, 7.5)),
)


def small_config(trials=50, seed=11):
    specs = (
        DatasetSpec(DatasetKind.TWO_POINT, 40, 0.5, (0.0, 1.0)),
        DatasetSpec(DatasetKind.CONSTANT, 40, 0.25, (0.0, 1.0)),
    )
    return ExperimentConfig(
        (Mechanism.SHIFTED, Mechanism.TRANSFORMED), (0.5, 1.0), specs, trials, seed
    )


class TestSeedDerivation:
    def test_matches_splitmix64_reference_vector(self):
        # first output of the reference SplitMix64 sequence seeded with 0
        assert _derived_seed(0, 0) == 0xE220A8397B1DCDAF

    def test_cells_get_distinct_seeds(self):
        seeds = {_derived_seed(7, i) for i in range(100)}
        assert len(seeds) == 100


class TestGenerateDataset:
    def test_constant(self):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 3, 0.4, (0.0, 1.0)))
        assert tuple(d.values) == (0.4, 0.4, 0.4)

    def test_two_point(self):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 4, 0.5, (0.0, 1.0)))
        assert sorted(d.values) == [0.0, 0.0, 1.0, 1.0]

    def test_two_point_rounding_accuracy(self):
        for size in (7, 100, 1001):
            for target in (0.1, 0.37, 0.5):
                spec = DatasetSpec(DatasetKind.TWO_POINT, size, target, (0.0, 1.0))
                d = generate_dataset(spec)
                assert len(d) == size
                assert abs(true_mean(d) - target) <= 1.0 / (2.0 * size) + 1e-12

    def test_target_mean_validated(self):
        with pytest.raises(ValueError):
            DatasetSpec(DatasetKind.CONSTANT, 3, 1.5, (0.0, 1.0))

    def test_bounds_must_be_finite(self):
        # the last pair is finite, but its width overflows to inf
        for bounds in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="bounds must be finite"):
                DatasetSpec(DatasetKind.CONSTANT, 3, 0.5, bounds)

    def test_family_kind_rejected(self):
        with pytest.raises(ValueError, match="is not a valid DatasetKind"):
            DatasetSpec("lower_bound_family", 3, 0.5, (0.0, 1.0))

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=st.sampled_from(FAMILY_BOUNDS),
        n=st.integers(1, 10**5),
        i=st.integers(1, 1000),
    )
    def test_two_point_spec_holds_family_member(self, bounds, n, i):
        # member i of the ones-over-zeros family: i uppers over n lowers
        lo, hi = bounds
        d = generate_dataset(DatasetSpec("two_point", n + i, (i * hi + n * lo) / (n + i), bounds))
        assert np.array_equal(d.values, np.repeat([hi, lo], [i, n]))
        assert d.scaled_total == float(i)


class TestEstimateMse:
    def test_zero_noise_double_gives_zero_mse(self):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 20, 0.5, (0.0, 1.0)))
        exact = lambda data, eps, cursor: true_mean(data)
        report = estimate_mse(d, exact, EPS, 100, 3)
        assert report.mse == 0.0
        assert report.stderr == 0.0

    def test_report_identities(self):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 50, 0.5, (0.0, 1.0)))
        report = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 200, 5)
        assert report.normalized_mse == report.mse * report.n**2
        assert report.normalized_mse / report.n**2 == report.mse
        assert report.trials == 200 and report.n == 50

    def test_single_trial_has_zero_stderr(self):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 10, 0.5, (0.0, 1.0)))
        report = estimate_mse(d, Mechanism.SHIFTED, EPS, 1, 5)
        assert report.stderr == 0.0
        assert report.mse >= 0.0

    @pytest.mark.parametrize("trials", [1, 2, 7, 1000, 4097, 8193, 65537])
    def test_row_reductions_equal_one_dimensional_ones(self, trials):
        # numpy sums each contiguous row pairwise, as it sums a 1-D array
        sq = np.random.default_rng(trials).lognormal(0.0, 3.0, (3, trials)) ** 2
        rows = [(Mechanism.SHIFTED, 0.5, None, 10, seed) for seed in range(3)]
        got = [(r.mse, r.stderr) for r in harness._mse_reports(sq, rows)]
        expected = [
            (float(np.sum(row)) / trials, float(np.std(row, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0)
            for row in sq
        ]
        assert got == expected

    def test_workers_do_not_change_results(self):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 100, 0.25, (0.0, 1.0)))
        base = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 997, 7, workers=1)
        for w in (2, 3, 8):
            par = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 997, 7, workers=w)
            assert par.mse == base.mse
            assert par.stderr == base.stderr

    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_trials_equal_scalar_release_path(self, mech):
        # trial t of the array engine is run_mechanism on a cursor past the
        # first 2t doubles of stream (seed, 0)
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 300, 0.02, (0.0, 1.0)))
        eps = PrivacyBudget(0.2)
        mu = true_mean(d)
        expected = []
        for t in range(997):
            err = run_mechanism(d, eps, mech, trial_cursor(RandomStream(8128, 0), t)).value - mu
            expected.append(err * err)
        assert squared_errors(d, mech, eps, 997, 8128).tolist() == expected

    def test_statistical_gate_transformed_center(self):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, 0.5, (0.0, 1.0)))
        report = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 10_000, GATE_SEED)
        assert 3.6 <= report.normalized_mse <= 4.4

    def test_statistical_gate_transformed_boundary(self):
        for mu in (0.0, 1.0):
            d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, mu, (0.0, 1.0)))
            report = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 10_000, GATE_SEED)
            assert report.normalized_mse <= 8.8

    def test_statistical_gate_mechanism_ratio(self):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, 0.5, (0.0, 1.0)))
        shifted = estimate_mse(d, Mechanism.SHIFTED, EPS, 10_000, GATE_SEED)
        transformed = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 10_000, GATE_SEED)
        assert 1.8 <= shifted.mse / transformed.mse <= 2.2

    def test_measured_mse_stays_below_analytic_bound(self):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 400, 0.3, (0.0, 1.0)))
        for mech in Mechanism:
            report = estimate_mse(d, mech, EPS, 4000, 17)
            bound = mechanism_mse_bound(d, mech, EPS)
            assert report.mse <= bound + 3 * report.stderr


class TestScalingReduction:
    def test_coupled_seeds_scale_mse_by_width_squared(self):
        # dyadic values keep the affine map exact in floats; coupled seeds
        # then reproduce the (u-l)^2 factor to rounding error
        vals_norm = tuple(k / 1024 for k in range(0, 1024, 5))
        d_norm = BoundedDataset(vals_norm, 0.0, 1.0)
        d_orig = BoundedDataset(tuple(2 * v + 2 for v in vals_norm), 2.0, 4.0)
        for mech in (Mechanism.SHIFTED, Mechanism.TRANSFORMED):
            orig = estimate_mse(d_orig, mech, EPS, 2000, 99).mse
            norm = estimate_mse(d_norm, mech, EPS, 2000, 99).mse
            assert orig / norm == pytest.approx(4.0, rel=1e-9)


class TestSweep:
    def test_stable_order_and_determinism(self):
        config = small_config()
        a = sweep(config)
        b = sweep(config)
        assert [(r.mechanism, r.epsilon, r.dataset_spec) for r in a] == [
            (m, e, s)
            for m in config.mechanisms
            for e in config.epsilons
            for s in config.dataset_specs
        ]
        assert [(r.mse, r.stderr, r.seed) for r in a] == [(r.mse, r.stderr, r.seed) for r in b]

    def test_csv_round_trip(self):
        reports = sweep(small_config())
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(reports) + 1
        for line, report in zip(lines[1:], reports):
            cells = line.split(",")
            assert cells[0] == report.mechanism.value
            assert float(cells[1]) == report.epsilon
            assert float(cells[6]) == report.mse
            assert float(cells[7]) == report.normalized_mse
            assert float(cells[8]) == report.stderr
            assert int(cells[9]) == report.seed

    def test_extra_columns_appended(self):
        reports = sweep(small_config())
        text = reports_to_csv(reports, extra_columns={"ratio": [1.0] * len(reports)})
        assert text.splitlines()[0] == CSV_HEADER + ",ratio"

    def test_metadata_round_trip(self):
        config = small_config()
        meta = config_metadata(config, preset=None)
        parsed = config_from_json(json.loads(json.dumps(meta)))
        assert parsed == config

    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7)])
    def test_numpy_integer_seed_runs_as_int(self, seed):
        # _derived_seed's step past 2^64 overflowed a NumPy integer seed
        config = small_config(seed=seed)
        assert sweep(config) == sweep(small_config(seed=7))
        assert type(config.seed) is int and config == small_config(seed=7)
        json.dumps(config_metadata(config))

    def test_sidecar_with_family_k_replays(self):
        # sidecars written before the family kind went hold "family_k": null
        meta = config_metadata(small_config(), preset=None)
        meta["dataset_specs"] = [{**spec, "family_k": None} for spec in meta["dataset_specs"]]
        assert config_from_json(meta) == small_config()

    def test_failing_cell_aborts_with_context(self, monkeypatch):
        boom = ValueError("boom")
        errors = harness._squared_errors

        def exploding(plan, *args, **kwargs):
            if plan.g == COMPLEMENT_TRANSFORM:  # the transformed mechanism's G
                raise boom
            return errors(plan, *args, **kwargs)

        monkeypatch.setattr(harness, "_squared_errors", exploding)
        specs = (DatasetSpec(DatasetKind.CONSTANT, 5, 0.5, (0.0, 1.0)),)
        config = ExperimentConfig((Mechanism.SHIFTED, Mechanism.TRANSFORMED), (0.5,), specs, 3, 1)
        with pytest.raises(RuntimeError, match="sweep cell 1 failed") as info:
            sweep(config)
        assert info.value.__cause__ is boom
        assert "(mechanism=Mechanism.TRANSFORMED, epsilon=0.5, bounds=(0.0, 1.0))" in str(info.value)

    def test_failing_draw_names_every_mechanism(self, monkeypatch):
        # the mechanisms of a pair share its draw, so its failure is all of theirs
        boom = ValueError("boom")

        def exploding(*args):
            raise boom

        monkeypatch.setattr(harness, "trial_uniform_pairs", exploding)
        specs = (DatasetSpec(DatasetKind.CONSTANT, 5, 0.5, (0.0, 1.0)),)
        config = ExperimentConfig((Mechanism.SHIFTED, Mechanism.TRANSFORMED), (0.5, 1.0), specs, 3, 1)
        with pytest.raises(RuntimeError) as info:
            sweep(config)
        assert str(info.value) == (
            "sweep cell 0, 2 failed (mechanism=Mechanism.SHIFTED and Mechanism.TRANSFORMED,"
            " epsilon=0.5, bounds=(0.0, 1.0))"
        )
        assert info.value.__cause__ is boom

    @pytest.mark.parametrize(
        "mechanisms, kind, bounds, epsilons",
        [
            (["shifted", "transformed"], DatasetKind.TWO_POINT, (0.0, 1.0), (0.5, 1.0)),
            ((Mechanism.SHIFTED, Mechanism.TRANSFORMED), "two_point", (0.0, 1.0), (0.5, 1.0)),
            ((Mechanism.SHIFTED, Mechanism.TRANSFORMED), DatasetKind.TWO_POINT, [0.0, 1.0], (0.5, 1.0)),
            ((Mechanism.SHIFTED, Mechanism.TRANSFORMED), DatasetKind.TWO_POINT, (0.0, 1.0), [0.5, 1.0]),
        ],
        ids=["mechanism names", "kind names", "list bounds", "list epsilons"],
    )
    def test_loose_input_forms_are_canonical(self, mechanisms, kind, bounds, epsilons, tmp_path):
        # each form sweeps like the canonical config and its sidecar reads back equal
        config = ExperimentConfig(mechanisms, epsilons, (DatasetSpec(kind, 40, 0.5, bounds),), 20, 11)
        canonical = dataclasses.replace(small_config(trials=20), dataset_specs=small_config().dataset_specs[:1])
        assert sweep(config) == sweep(canonical)
        path = tmp_path / "sweep.csv.meta.json"
        write_metadata(path, config)
        assert config_from_json(json.loads(path.read_text())) == canonical
        assert config == canonical
        assert all(isinstance(m, Mechanism) for m in config.mechanisms)
        assert config.dataset_specs[0].kind is DatasetKind.TWO_POINT

    def test_unknown_mechanism_rejected_at_construction(self):
        specs = (DatasetSpec(DatasetKind.CONSTANT, 5, 0.5, (0.0, 1.0)),)
        with pytest.raises(ValueError, match="bogus"):
            ExperimentConfig(("transformed", "bogus"), (0.5,), specs, 3, 1)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            DatasetSpec("bogus", 5, 0.5, (0.0, 1.0))

    @staticmethod
    def assert_reports_equal_per_pair_estimate_mse(config):
        """Each report is estimate_mse on its cell with the seed of its
        (epsilon, spec) pair: pair j, counted epsilon-major, takes derived
        seed number j, and every mechanism of the pair reports it."""
        pairs = [(e, s) for e in config.epsilons for s in config.dataset_specs]
        reports = sweep(config)
        assert len(reports) == len(config.mechanisms) * len(pairs)
        for m, mech in enumerate(config.mechanisms):
            for j, (e, spec) in enumerate(pairs):
                report = reports[m * len(pairs) + j]
                seed = _derived_seed(config.seed, j)
                d = generate_dataset(spec)
                assert report.seed == seed
                assert report == estimate_mse(d, mech, PrivacyBudget(e), config.trials, seed, dataset_spec=spec)

    @pytest.mark.parametrize("trials", [1, 7, 1365, 4097])
    def test_reports_equal_per_cell_estimate_mse(self, trials):
        self.assert_reports_equal_per_pair_estimate_mse(small_config(trials=trials, seed=2**64 - 1))

    @pytest.mark.parametrize("trials", [1, 7, 4097])
    def test_mixed_bounds_rows_equal_per_cell_estimate_mse(self, trials):
        # two bounds pairs interleaved, a constant spec and two sizes: the
        # pairs of one (epsilon, bounds) share a batch and its draw
        config = ExperimentConfig(tuple(Mechanism), (0.5, 2.0), MIXED_SPECS, trials, 2**64 - 1)
        self.assert_reports_equal_per_pair_estimate_mse(config)

    @pytest.mark.parametrize("cap", [7, 2 * 7, 4 * 7 + 3])
    def test_split_batches_change_no_report(self, monkeypatch, cap):
        # fig2c groups its cells by six: in batches of 1, of 2, of 4 and 2
        config = preset_config("fig2c", 5, trials=7)
        whole = sweep(config)
        monkeypatch.setattr(harness, "_BATCH_TRIALS", cap)
        assert sweep(config) == whole

    def test_shared_draws_cut_the_ratio_variance(self):
        # the shifted/transformed MSE ratio of each fig2c cell over seeds
        # 0-49 (fixed in advance) at 10^3 trials: fig2c's mechanisms share a
        # pair's draw; independent draws come from one-mechanism sweeps
        # seeded s (shifted) and s + 10^6 (transformed)
        shared, independent = [], []
        for seed in range(50):
            config = preset_config("fig2c", seed, trials=1000)
            both = sweep(config)
            shifted = sweep(dataclasses.replace(config, mechanisms=(Mechanism.SHIFTED,)))
            transformed = sweep(dataclasses.replace(config, mechanisms=(Mechanism.TRANSFORMED,), seed=seed + 10**6))
            assert shifted == both[:30]  # one mechanism alone draws as it does beside another
            shared.append([s.mse / t.mse for s, t in zip(both[:30], both[30:])])
            independent.append([s.mse / t.mse for s, t in zip(shifted, transformed)])
        variance_ratios = np.var(independent, axis=0, ddof=1) / np.var(shared, axis=0, ddof=1)
        assert len(variance_ratios) == 30
        assert np.median(variance_ratios) >= 2.0

    @pytest.mark.parametrize(
        "mechanism, epsilon, bounds",
        [("transformed", 5e-324, (0.0, 1.0)), ("shifted", 0.5, (0.0, 1e308)), ("independent", 0.5, (-1e308, 1e307))],
    )
    def test_overflowing_laplace_scale_rejected_at_construction(self, mechanism, epsilon, bounds):
        # the infinite noise made every ratio NaN, which clips to the midpoint
        # of the bounds: a two-point spec of mean 0.5 reported an MSE of 0
        spec = DatasetSpec(DatasetKind.TWO_POINT, 30, sum(bounds) / 2, bounds)
        with pytest.raises(ValueError, match="Laplace scale must be positive and finite"):
            ExperimentConfig((mechanism,), (0.5, epsilon), (spec,), 10, 1)

    @pytest.mark.parametrize("field", ["mechanisms", "epsilons", "dataset_specs"])
    def test_empty_axis_rejected(self, field):
        with pytest.raises(ValueError, match="a sweep needs at least one"):
            dataclasses.replace(small_config(), **{field: ()})


class TestPresets:
    def test_preset_shapes(self):
        a = preset_config("fig2a", 1)
        assert a.mechanisms == (Mechanism.TRANSFORMED,)
        assert len(a.epsilons) == 5 and len(a.dataset_specs) == 6
        b = preset_config("fig2b", 1)
        assert b.epsilons == (0.5,)
        c = preset_config("fig2c", 1)
        assert c.mechanisms == (Mechanism.SHIFTED, Mechanism.TRANSFORMED)
        assert a.trials == 10_000

    def test_trials_override(self):
        assert preset_config("fig2a", 1, trials=5).trials == 5

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("fig9z", 1)

    def test_family_k_rule(self):
        assert preset_family_k(1000, 0.5) == math.ceil((2000.0) ** (1 / 3) / 2)
        assert preset_family_k(1000, 0.5) >= 1


class TestPresetBehavior:
    def test_gate_ratio_peaks_in_small_mean_region(self, eps_half_grid_reports):
        # the normalized-MSE-to-bound ratio is largest where the mean sits a
        # handful of noise scales from the boundary: the 1/(n*eps)-scale means
        reports = eps_half_grid_reports[Mechanism.TRANSFORMED]
        ratios = {r.dataset_spec.target_mean: r.normalized_mse / (2.0 / 0.5**2) for r in reports}
        argmax = max(ratios, key=ratios.get)
        assert argmax in {0.02, 0.005, 0.002}

    def test_mechanism_ratio_near_two_across_grid(self, fig2c_reports):
        by_cell = {}
        for r in fig2c_reports:
            by_cell.setdefault((r.epsilon, r.dataset_spec.target_mean), {})[r.mechanism] = r.mse
        assert len(by_cell) == 30
        for cell, pair in by_cell.items():
            ratio = pair[Mechanism.SHIFTED] / pair[Mechanism.TRANSFORMED]
            assert 1.5 <= ratio <= 2.5, (cell, ratio)

    def test_transformed_center_within_five_percent(self):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, 0.5, (0.0, 1.0)))
        report = estimate_mse(d, Mechanism.TRANSFORMED, EPS, 10_000, GATE_SEED)
        assert report.normalized_mse == pytest.approx(1.0 / 0.5**2, rel=0.05)


class TestWorstCaseFamily:
    def test_geometric_count_matches_analytic_variance(self):
        value = worst_case_over_family(GEOMETRIC_COUNT, EPS, 1000, 3, 30_000, 13)
        assert value == pytest.approx(geometric_count_variance(0.5), rel=0.05)

    def test_degenerate_single_member(self):
        value = worst_case_over_family(Mechanism.TRANSFORMED, EPS, 200, 1, 400, 13)
        assert value >= 0.0

    def test_worst_case_grows_with_k(self):
        small = worst_case_over_family(Mechanism.TRANSFORMED, EPS, 500, 1, 2000, 13)
        big = worst_case_over_family(Mechanism.TRANSFORMED, EPS, 500, 5, 2000, 13)
        assert big >= small

    @staticmethod
    def scalar_worst(mech, n, k, trials, seed):
        """worst_case_over_family as a loop of one release per trial."""
        geo = GeometricParams(math.exp(-EPS.epsilon))
        members = {i: BoundedDataset(np.repeat([1.0, 0.0], [i, n]), 0.0, 1.0) for i in range(1, k + 1)}
        worst = -math.inf
        for i in range(1, k + 1):
            member_seed = _derived_seed(seed, i - 1)
            errs = []
            for t in range(trials):
                cursor = trial_cursor(RandomStream(member_seed, 0), t)
                if mech == GEOMETRIC_COUNT:
                    errs.append(float(two_sided_geometric_sample(cursor, geo)))
                else:
                    errs.append(n * run_mechanism(members[i], EPS, mech, cursor).value - i)
            sq = np.array([e * e for e in errs])
            worst = max(worst, float(np.sum(sq)) / trials)
        return worst

    def test_matches_scalar_loop(self):
        n, k, trials, seed = 200, 3, 300, 13
        for mech in (GEOMETRIC_COUNT, *Mechanism):
            expected = self.scalar_worst(mech, n, k, trials, seed)
            assert worst_case_over_family(mech, EPS, n, k, trials, seed) == expected

    @pytest.mark.parametrize("k, trials", [(3, 1366), (2, 4097)])
    def test_matches_scalar_loop_across_blocks(self, k, trials):
        # two trials per Philox block: thousands of blocks per member
        for mech in (GEOMETRIC_COUNT, Mechanism.INDEPENDENT):
            expected = self.scalar_worst(mech, 300, k, trials, 29)
            assert worst_case_over_family(mech, EPS, 300, k, trials, 29) == expected

    @pytest.mark.parametrize("mech", [GEOMETRIC_COUNT, *Mechanism])
    def test_split_batches_change_no_worst_case(self, monkeypatch, mech):
        # cleared each time: an entry keeps the batches it was drawn in
        harness._family_uniforms.cache_clear()
        whole = worst_case_over_family(mech, EPS, 300, 5, 40, 17)
        monkeypatch.setattr(harness, "_BATCH_TRIALS", 2 * 40)
        harness._family_uniforms.cache_clear()
        assert worst_case_over_family(mech, EPS, 300, 5, 40, 17) == whole
        # a real split: the members were drawn again, three batches of at most two
        assert harness._family_uniforms.cache_info().misses == 1
        assert [len(members) for members, _ in harness._family_uniforms(17, 5, 40)] == [2, 2, 1]

    @pytest.mark.parametrize("cap, sizes", [(1 << 16, [7]), (4 * 600, [4, 3])])
    def test_four_calls_in_a_row_equal_fresh_calls(self, monkeypatch, cap, sizes):
        monkeypatch.setattr(harness, "_BATCH_TRIALS", cap)
        mechs = (GEOMETRIC_COUNT, *Mechanism)
        harness._family_uniforms.cache_clear()
        in_a_row = [worst_case_over_family(m, EPS, 1000, 7, 600, 41).hex() for m in mechs]
        info = harness._family_uniforms.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert [len(members) for members, _ in harness._family_uniforms(41, 7, 600)] == sizes
        fresh = []
        for m in mechs:
            harness._family_uniforms.cache_clear()
            fresh.append(worst_case_over_family(m, EPS, 1000, 7, 600, 41).hex())
        assert in_a_row == fresh

    def test_cached_uniforms_are_read_only(self):
        harness._family_uniforms.cache_clear()
        batches = harness._family_uniforms(5, 3, 20)
        for _, uniforms in batches:
            for u in uniforms:
                with pytest.raises(ValueError, match="read-only"):
                    u[0, 0] = 0.5
        assert [list(members) for members, _ in batches] == [[1, 2, 3]]

    def test_cache_holds_one_entry(self):
        harness._family_uniforms.cache_clear()
        worst_case_over_family(Mechanism.SHIFTED, EPS, 100, 4, 30, 3)
        worst_case_over_family(Mechanism.SHIFTED, EPS, 100, 4, 30, 3)
        assert harness._family_uniforms.cache_info()[:2] == (1, 1)  # hits, misses
        for k in (5, 4, 5):  # each differs from the entry before it
            harness._family_uniforms(3, k, 30)
            assert harness._family_uniforms.cache_info().currsize == 1
        assert harness._family_uniforms.cache_info()[:2] == (1, 4)
        assert harness._family_uniforms.cache_info().maxsize == 1

    @pytest.mark.parametrize("mech", [Mechanism.TRANSFORMED, GEOMETRIC_COUNT])
    @pytest.mark.parametrize("seed", [np.uint64(7), np.int64(7)])
    def test_numpy_integer_seed_equals_int_seed(self, mech, seed):
        # cleared first: the equal key of an earlier int call would be a cache hit
        harness._family_uniforms.cache_clear()
        as_numpy = worst_case_over_family(mech, EPS, 100, 3, 50, seed).hex()
        harness._family_uniforms.cache_clear()
        assert as_numpy == worst_case_over_family(mech, EPS, 100, 3, 50, 7).hex()

    def test_k_validated(self):
        with pytest.raises(ValueError):
            worst_case_over_family(Mechanism.TRANSFORMED, EPS, 100, 0, 10, 1)

    @pytest.mark.parametrize("mech", list(Mechanism))
    def test_overflowing_laplace_scale_rejected(self, mech):
        # infinite noise clipped every estimate to the midpoint: a worst case of 16.0
        with pytest.raises(ValueError, match="Laplace scale must be positive and finite"):
            worst_case_over_family(mech, PrivacyBudget(5e-324), 10, 2, 5, 1)

    @pytest.mark.parametrize("mech", [Mechanism.TRANSFORMED, GEOMETRIC_COUNT])
    @pytest.mark.parametrize("trials", [0, 10.5, True])
    def test_trials_validated(self, mech, trials):
        with pytest.raises(ValueError, match="trials must be an integer >= 1"):
            worst_case_over_family(mech, EPS, 100, 2, trials, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_validated(self, seed):
        # masking to 64 bits would run -1 as 2^64 - 1 and 2^64 as 0
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            worst_case_over_family(Mechanism.TRANSFORMED, EPS, 100, 3, 50, seed)
