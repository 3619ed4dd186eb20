"""Per-layer timings taken from outside: each stage alone, on pre-built
inputs, through the package's public functions.

Every figure is the median over repetitions of (batch time / batch size).
``scale`` shrinks the batch sizes for the self-test.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path


# Unit of each figure whose name does not end in its unit.
UNITS = {
    "mechanisms.estimate_us.independent": "us",
    "mechanisms.estimate_us.shifted": "us",
    "mechanisms.estimate_us.transformed": "us",
    "harness.self_us_per_trial": "us",
    "harness.workers2_ratio": "ratio",
}


def per_call(fn, calls: int, reps: int = 5) -> float:
    """Median seconds per call of ``fn(i)`` over ``reps`` batches."""
    calls = max(1, calls)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def measure(dp, workdir: Path, scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Every per-layer timing as name -> (value, unit)."""
    noise, mech, harness, geometry, bounds = dp.noise, dp.mechanisms, dp.harness, dp.geometry, dp.bounds

    def n(count: int) -> int:
        return max(2, int(count * scale))

    out: dict[str, float] = {}
    eps = mech.PrivacyBudget(0.5)
    d = harness.generate_dataset(
        harness.DatasetSpec(harness.DatasetKind.TWO_POINT, 1000, 0.25, (0.0, 1.0))
    )
    d.total, d.shifted_total, d.scaled_total  # fill the aggregate caches, as a sweep cell does

    # noise
    cursor = noise.Cursor(noise.RandomStream(7, 0))
    out["noise.stream_setup_us"] = 1e6 * per_call(
        lambda i: cursor.jump_to(noise.RandomStream(7, i)), n(10_000)
    )
    lap = noise.LaplaceParams(2.0)
    out["noise.laplace_sample_us"] = 1e6 * per_call(lambda i: noise.laplace_sample(cursor, lap), n(20_000))
    geo = noise.GeometricParams(math.exp(-0.5))
    out["noise.geometric_sample_us"] = 1e6 * per_call(
        lambda i: noise.two_sided_geometric_sample(cursor, geo), n(20_000)
    )
    size = n(1_000_000)
    u = noise.Cursor(noise.RandomStream(7, 1)).uniforms_open(size)
    out["noise.laplace_from_uniform_ns"] = 1e9 * per_call(lambda i: noise.laplace_from_uniform(u, 2.0), 1) / size
    del u

    # mechanisms
    out["mechanisms.run_mechanism_us"] = 1e6 * per_call(
        lambda i: mech.run_mechanism(d, eps, mech.Mechanism.TRANSFORMED, cursor), n(5_000)
    )
    pair = mech.NoisePair(0.3, -0.7)
    for kind in ("independent", "shifted", "transformed"):
        estimator = getattr(mech, f"estimate_{kind}")
        out[f"mechanisms.estimate_us.{kind}"] = 1e6 * per_call(lambda i: estimator(d, eps, pair), n(5_000))
    values = tuple(cursor.uniforms_open(size).tolist())
    builds, aggregates = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        big = mech.BoundedDataset(values, 0.0, 1.0)
        t1 = time.perf_counter()
        big.scaled_total
        t2 = time.perf_counter()
        builds.append(t1 - t0)
        aggregates.append(t2 - t1)
        del big
    del values
    out["mechanisms.dataset_build_s"] = statistics.median(builds)
    out["mechanisms.aggregate_s"] = statistics.median(aggregates)

    # harness: per-trial loop cost with an estimator that does no work,
    # minus the stream set-up the loop performs for every trial, timed
    # right next to it so a drift in machine speed cancels.
    trials = n(5_000)
    constant = lambda dataset, budget, cur: 0.5  # noqa: E731
    own = []
    for _ in range(15):
        loop = per_call(lambda i: harness.estimate_mse(d, constant, eps, trials, 11), 1, 1) / trials
        setup = per_call(lambda i: cursor.jump_to(noise.RandomStream(11, i)), trials, 1)
        own.append(loop - setup)
    out["harness.self_us_per_trial"] = 1e6 * statistics.median(own)
    out["harness.worst_case_call_s"] = per_call(
        lambda i: harness.worst_case_over_family(
            mech.Mechanism.TRANSFORMED, eps, 1000, 7, n(200), 13
        ),
        1,
    )
    config = harness.preset_config("fig2c", 17, trials=2)
    reports = harness.sweep(config)
    ratios = {"ratio_shifted_to_transformed": [1.0] * len(reports)}
    csv_path = workdir / "layers.csv"

    def write_csv(i):
        csv_path.write_text(harness.reports_to_csv(reports, extra_columns=ratios))
        harness.write_metadata(workdir / "layers.csv.meta.json", config, preset="fig2c")

    out["harness.csv_write_ms"] = 1e3 * per_call(write_csv, n(20))
    cell_trials = n(4000)
    one, two = [], []
    for _ in range(3):
        one.append(per_call(lambda i: harness.estimate_mse(d, "transformed", eps, cell_trials, 5, workers=1), 1, 1))
        two.append(per_call(lambda i: harness.estimate_mse(d, "transformed", eps, cell_trials, 5, workers=2), 1, 1))
    out["harness.workers2_ratio"] = statistics.median(two) / statistics.median(one)

    # geometry and bounds: off the workloads' paths today
    t = geometry.COMPLEMENT_TRANSFORM
    out["geometry.transform_procedure_us"] = 1e6 * per_call(
        lambda i: geometry.transform_procedure_estimate(d, eps, t, pair), n(300)
    )
    out["geometry.l1_sensitivity_us"] = 1e6 * per_call(
        lambda i: geometry.l1_sensitivity_under(t, geometry.UNIT_SEGMENT), n(20_000)
    )
    out["bounds.mechanism_mse_bound_us"] = 1e6 * per_call(
        lambda i: bounds.mechanism_mse_bound(d, mech.Mechanism.TRANSFORMED, eps), n(5_000)
    )
    return {name: (value, UNITS.get(name, name.rsplit("_", 1)[-1])) for name, value in out.items()}
