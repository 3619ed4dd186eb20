"""Acceptance gates for the whole package, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Statistical gates use fixed seeds and the tolerances stated
inline; nothing is calibrated after the fact.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

from dpmean.bounds import (
    add_remove_minmax_leading,
    geometric_count_variance,
    mechanism_mse_bound,
    swap_minmax_leading,
)
from dpmean.geometry import (
    CENTERING_TRANSFORM,
    COMPLEMENT_TRANSFORM,
    IDENTITY_TRANSFORM,
    UNIT_SEGMENT,
    ball_polygon,
    l1_sensitivity_under,
    transform_procedure_estimate,
)
from dpmean.harness import (
    DatasetKind,
    DatasetSpec,
    estimate_mse,
    generate_dataset,
    preset_config,
    preset_family_k,
    sweep,
    worst_case_over_family,
)
from dpmean.cli import main as cli_main
from dpmean.mechanisms import (
    AggregateVector,
    BoundedDataset,
    Mechanism,
    NoisePair,
    PrivacyBudget,
    estimate_shifted,
    estimate_transformed,
    mechanism_plan,
)

SEED = 20240601


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def central_reports():
    """Both mechanisms on the constant dataset at the center, 10^4 trials."""
    d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, 0.5, (0.0, 1.0)))
    eps = PrivacyBudget(0.5)
    return {
        mech: estimate_mse(d, mech, eps, 10_000, SEED)
        for mech in (Mechanism.SHIFTED, Mechanism.TRANSFORMED)
    }


def test_criterion_01_factor_two_ratio():
    eps_grid = (0.2, 0.5, 1.0)
    mu_grid = (0.25, 0.5, 0.75)
    start = time.perf_counter()
    ratios = {}
    for idx, (e, mu) in enumerate(itertools.product(eps_grid, mu_grid)):
        d = generate_dataset(DatasetSpec(DatasetKind.TWO_POINT, 1000, mu, (0.0, 1.0)))
        eps = PrivacyBudget(e)
        cell_seed = SEED + idx
        shifted = estimate_mse(d, Mechanism.SHIFTED, eps, 10_000, cell_seed)
        transformed = estimate_mse(d, Mechanism.TRANSFORMED, eps, 10_000, cell_seed)
        ratios[(e, mu)] = shifted.mse / transformed.mse
    elapsed = time.perf_counter() - start
    bad = {cell: r for cell, r in ratios.items() if not 1.7 <= r <= 2.3}
    lo, hi = min(ratios.values()), max(ratios.values())
    _verdict(
        1,
        "factor-two MSE ratio",
        not bad and elapsed < 60.0,
        f"9 cells, ratio range [{lo:.3f}, {hi:.3f}] within [1.7, 2.3], "
        f"{elapsed:.1f}s < 60s; offenders: {bad or 'none'}",
    )


def test_criterion_02_transformed_constant(central_reports):
    center = central_reports[Mechanism.TRANSFORMED].normalized_mse
    boundary = {}
    eps = PrivacyBudget(0.5)
    for mu in (0.0, 1.0):
        d = generate_dataset(DatasetSpec(DatasetKind.CONSTANT, 1000, mu, (0.0, 1.0)))
        boundary[mu] = estimate_mse(d, Mechanism.TRANSFORMED, eps, 10_000, SEED).normalized_mse
    ok = 3.6 <= center <= 4.4 and all(v <= 8.8 for v in boundary.values())
    _verdict(
        2,
        "transformed-mechanism constant",
        ok,
        f"center {center:.3f} in [3.6, 4.4]; boundary "
        f"{boundary[0.0]:.3f}, {boundary[1.0]:.3f} <= 8.8",
    )


def test_criterion_03_shifted_constant(central_reports):
    center = central_reports[Mechanism.SHIFTED].normalized_mse
    _verdict(3, "shifted-mechanism constant", 7.2 <= center <= 8.8, f"center {center:.3f} in [7.2, 8.8]")


def test_criterion_04_minmax_agreement():
    rng = random.Random(404)
    mismatches = 0
    for _ in range(1000):
        eps = rng.uniform(0.01, 20.0)
        lo = rng.uniform(-50.0, 50.0)
        hi = lo + rng.uniform(1e-3, 100.0)
        if add_remove_minmax_leading(eps, lo, hi) != swap_minmax_leading(eps, lo, hi):
            mismatches += 1
    _verdict(4, "neighbor models agree", mismatches == 0, f"{mismatches} mismatches over 1000 triples")


def test_criterion_05_geometry_exactness():
    s_id = l1_sensitivity_under(IDENTITY_TRANSFORM, UNIT_SEGMENT)
    s_cent = l1_sensitivity_under(CENTERING_TRANSFORM, UNIT_SEGMENT)
    s_comp = l1_sensitivity_under(COMPLEMENT_TRANSFORM, UNIT_SEGMENT)
    tight = []
    for i in range(11):
        x = i / 10.0
        v1, v2 = COMPLEMENT_TRANSFORM.apply((x, 1.0))
        tight.append(abs(abs(v1) + abs(v2) - 1.0))
    verts = ball_polygon(COMPLEMENT_TRANSFORM, 1.0).vertices
    expected = ((1.0, 1.0), (0.0, 1.0), (-1.0, -1.0), (0.0, -1.0))
    ok = (
        s_id == 2.0
        and s_cent == 1.0
        and s_comp == 1.0
        and max(tight) < 1e-12
        and verts == expected
    )
    _verdict(
        5,
        "geometry exactness",
        ok,
        f"radii ({s_id}, {s_cent}, {s_comp}) == (2, 1, 1); max grid deviation "
        f"{max(tight):.2e} < 1e-12; parallelogram vertices {verts}",
    )


def test_criterion_06_coupling_equivalence():
    rng = random.Random(606)
    grid = [-5.0 + 0.5 * i for i in range(21)]
    datasets = []
    for _ in range(20):
        lo, hi = rng.choice([(0.0, 1.0), (0.0, 1.0), (2.0, 4.0), (-1.0, 3.0)])
        n = rng.randint(1, 5)
        datasets.append(BoundedDataset(tuple(rng.uniform(lo, hi) for _ in range(n)), lo, hi))
    eps = PrivacyBudget(0.5)
    worst_t = 0.0
    worst_c = 0.0
    for d in datasets:
        for za in grid:
            for zb in grid:
                noise = NoisePair(za, zb)
                via = transform_procedure_estimate(d, eps, COMPLEMENT_TRANSFORM, noise).value
                direct = estimate_transformed(d, eps, noise).value
                worst_t = max(worst_t, abs(via - direct) / max(1.0, abs(direct)))
                via_c = transform_procedure_estimate(d, eps, CENTERING_TRANSFORM, noise).value
                direct_c = estimate_shifted(d, eps, NoisePair(d.width * za, 2.0 * zb)).value
                worst_c = max(worst_c, abs(via_c - direct_c) / max(1.0, abs(direct_c)))
    ok = worst_t <= 1e-12 and worst_c <= 1e-12
    _verdict(
        6,
        "transform-procedure coupling",
        ok,
        f"20 datasets x 441 noise pairs: worst rel. error "
        f"{worst_t:.2e} (complement), {worst_c:.2e} (centering) <= 1e-12",
    )


def test_criterion_07_dp_likelihood_ratio():
    value_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    lo, hi = 0.0, 1.0
    eps = PrivacyBudget(0.5)
    cap = math.exp(eps.epsilon) * (1 + 1e-9)
    worst = 0.0
    pairs = 0
    for size in range(0, 4):
        for base in itertools.combinations_with_replacement(value_grid, size):
            d = BoundedDataset(base, lo, hi)
            for x in value_grid:
                d_plus = BoundedDataset(base + (x,), lo, hi)
                pairs += 1
                for mech in Mechanism:
                    c0 = AggregateVector(*mechanism_plan(mech, lo, hi, eps).t.apply((d.scaled_total, float(len(d)))))
                    c1 = AggregateVector(*mechanism_plan(mech, lo, hi, eps).t.apply((d_plus.scaled_total, float(len(d_plus)))))
                    b1, b2 = mechanism_plan(mech, lo, hi, eps).scales
                    t1 = np.linspace(min(c0.first, c1.first) - 3 * b1, max(c0.first, c1.first) + 3 * b1, 10)
                    t2 = np.linspace(min(c0.second, c1.second) - 3 * b2, max(c0.second, c1.second) + 3 * b2, 10)
                    g1, g2 = np.meshgrid(t1, t2)
                    log_ratio = (
                        np.abs(g1 - c1.first) - np.abs(g1 - c0.first)
                    ) / b1 + (np.abs(g2 - c1.second) - np.abs(g2 - c0.second)) / b2
                    worst = max(worst, float(np.exp(np.abs(log_ratio)).max()))
    ok = worst <= cap
    _verdict(
        7,
        "aggregate density ratio",
        ok,
        f"{pairs} add/remove neighbor pairs x 3 mechanisms x 100 points: "
        f"max ratio {worst:.9f} <= e^eps (1+1e-9) = {cap:.9f}",
    )


def test_criterion_08_bound_validity_on_grid():
    config = preset_config("fig2a", SEED)
    reports = sweep(config)
    eps_cache = {}
    violations = []
    margins = []
    for report in reports:
        d = generate_dataset(report.dataset_spec)
        eps = eps_cache.setdefault(report.epsilon, PrivacyBudget(report.epsilon))
        bound = mechanism_mse_bound(d, Mechanism.TRANSFORMED, eps)
        slack = bound + 3 * report.stderr
        margins.append(report.mse / slack)
        if report.mse > slack:
            violations.append((report.epsilon, report.dataset_spec.target_mean))
    _verdict(
        8,
        "clipped-ratio bound validity",
        not violations,
        f"{len(reports)} grid cells: max measured/bound fraction {max(margins):.3f}; "
        f"violations: {violations or 'none'}",
    )


def test_criterion_09_lower_bound_proximity():
    eps = PrivacyBudget(0.5)
    k = preset_family_k(1000, 0.5)
    worst = worst_case_over_family(Mechanism.TRANSFORMED, eps, 1000, k, 10_000, SEED)
    benchmark = 2.0 / 0.5**2
    geo_fraction = geometric_count_variance(0.5) / benchmark
    ok = worst >= 0.8 * benchmark and abs(geo_fraction - 0.9795) <= 1e-3
    _verdict(
        9,
        "lower-bound proximity",
        ok,
        f"worst family count MSE {worst:.3f} >= {0.8 * benchmark}; "
        f"geometric variance fraction {geo_fraction:.6f} within 0.9795 +/- 1e-3 (k={k})",
    )


def test_criterion_10_determinism(tmp_path):
    outputs = []
    for run_idx, workers in ((0, 1), (1, 1), (2, 4)):
        path = tmp_path / f"fig2c_{run_idx}.csv"
        code = cli_main(
            [
                "figures",
                "--preset", "fig2c",
                "--seed", "7",
                "--workers", str(workers),
                "--output", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] and outputs[0] == outputs[2]
    _verdict(
        10,
        "byte-identical reruns",
        ok,
        f"two single-worker runs identical: {outputs[0] == outputs[1]}; "
        f"4-worker run identical: {outputs[0] == outputs[2]} "
        f"({len(outputs[0])} bytes each)",
    )
