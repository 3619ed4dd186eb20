"""Monte-Carlo experiment engine: dataset generators, MSE estimation with
standard errors, parameter sweeps, and worst-case exploration over the
ones-over-zeros dataset family.

Determinism contract
--------------------
Trial t of a cell seeded with s draws from stream (s, t): its estimate is
exactly ``run_mechanism(d, eps, mechanism, RandomStream(s, t))``.  Sweep
cell i derives its seed from the experiment seed with a SplitMix64 step
(documented in _derived_seed).

Trials are evaluated as arrays, one cell at a time: the first two uniforms
of every trial stream come from one counter-based Philox kernel
(``noise.open_uniform_pairs``), then the Laplace inverse CDF, the estimator
and the squared error run elementwise through the same functions a single
release uses.  Per-trial squared errors are in trial order and reduced with
numpy's pairwise summation.  A cell is one array pass; ``estimate_mse``
accepts and ignores a ``workers`` argument.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mechanisms import (
    BoundedDataset,
    Mechanism,
    PrivacyBudget,
    check_bounds,
    noise_scales,
    noisy_estimate,
    run_mechanism,  # noqa: F401  (per-trial form of _estimates; perfbench/tracing.py patches it here)
    true_mean,
)
from .noise import (
    Cursor,
    GeometricParams,
    RandomStream,
    check_uint64,
    laplace_from_uniform,
    open_uniform_pairs,
    two_sided_geometric_from_uniform,
    two_sided_geometric_sample,  # noqa: F401  (per-trial form of the geometric draws; patched likewise)
)

CSV_HEADER = "mechanism,epsilon,dataset_kind,n,target_mean,trials,mse,normalized_mse,stderr,seed"

#: Pseudo-mechanism accepted by worst_case_over_family: release the count of
#: upper-bound values directly with two-sided geometric noise of decay
#: exp(-eps) instead of going through a mean estimate.
GEOMETRIC_COUNT = "geometric_count"

_MASK64 = 2**64 - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _check_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer >= 1 (not a bool)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _derived_seed(seed: int, index: int) -> int:
    """SplitMix64 output number ``index`` for the given base seed."""
    z = (seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class DatasetKind(str, enum.Enum):
    CONSTANT = "constant"
    TWO_POINT = "two_point"
    LOWER_BOUND_FAMILY = "lower_bound_family"


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a synthetic dataset with a prescribed mean.

    For ``lower_bound_family``, ``family_k`` is the member index i: the
    dataset holds i copies of the upper bound over ``size`` copies of the
    lower bound (so ``size + i`` elements in total).
    """

    kind: DatasetKind
    size: int
    target_mean: float
    bounds: tuple[float, float]
    family_k: int | None = None

    def __post_init__(self) -> None:
        lo, hi = self.bounds
        _check_count("dataset size", self.size)
        check_bounds(lo, hi)
        if not (lo <= self.target_mean <= hi):
            raise ValueError(f"target mean {self.target_mean} outside bounds {self.bounds}")
        if self.kind is DatasetKind.LOWER_BOUND_FAMILY:
            _check_count("family_k", self.family_k)


def family_member_spec(n: int, i: int, bounds: tuple[float, float] = (0.0, 1.0)) -> DatasetSpec:
    """Member i of the family: i upper-bound values over n lower-bound values."""
    lo, hi = bounds
    mean = (i * hi + n * lo) / (n + i)
    return DatasetSpec(DatasetKind.LOWER_BOUND_FAMILY, n, mean, bounds, family_k=i)


def generate_dataset(spec: DatasetSpec) -> BoundedDataset:
    lo, hi = spec.bounds
    if spec.kind is DatasetKind.CONSTANT:
        values = np.full(spec.size, spec.target_mean, dtype=np.float64)
    elif spec.kind is DatasetKind.TWO_POINT:
        k = round(spec.size * (spec.target_mean - lo) / (hi - lo))
        values = np.repeat(np.array([hi, lo], dtype=np.float64), [k, spec.size - k])
    else:
        values = np.repeat(np.array([hi, lo], dtype=np.float64), [spec.family_k, spec.size])
    return BoundedDataset(values, lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    mechanisms: tuple[Mechanism, ...]
    epsilons: tuple[float, ...]
    dataset_specs: tuple[DatasetSpec, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        _check_count("trials", self.trials)
        for e in self.epsilons:
            PrivacyBudget(e)
        check_uint64("seed", self.seed)


@dataclass(frozen=True)
class MseReport:
    mechanism: Mechanism
    epsilon: float
    dataset_spec: DatasetSpec | None
    n: int
    mse: float
    normalized_mse: float
    stderr: float
    trials: int
    seed: int


def _estimates(
    d: BoundedDataset, eps: PrivacyBudget, mechanism: Mechanism, seed: int, trials: int
) -> np.ndarray:
    """Estimates of trials 0..trials-1: entry t is run_mechanism on stream
    (seed, t), evaluated for all trials at once."""
    u_a, u_b = open_uniform_pairs(seed, np.arange(trials, dtype=np.uint64))
    scale_a, scale_b = noise_scales(d, mechanism, eps)
    _, _, values = noisy_estimate(
        d, mechanism, laplace_from_uniform(u_a, scale_a), laplace_from_uniform(u_b, scale_b)
    )
    return values


def squared_errors(
    d: BoundedDataset,
    mechanism,
    eps: PrivacyBudget,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Per-trial squared errors (estimate - true mean)^2, in trial order.

    Trial t draws its noise from stream (seed, t).  ``mechanism`` is a
    Mechanism, evaluated for all trials in one array pass, or -- for testing
    the estimator machinery itself -- any callable (dataset, eps, cursor) ->
    float, which is called once per trial.
    """
    _check_count("trials", trials)
    if isinstance(mechanism, str):
        mechanism = Mechanism(mechanism)
    mu = true_mean(d)
    if isinstance(mechanism, Mechanism):
        err = _estimates(d, eps, mechanism, seed, trials) - mu
        return err * err
    sq = np.empty(trials, dtype=np.float64)
    cursor = Cursor(RandomStream(seed, 0))
    for t in range(trials):
        cursor.jump_to(RandomStream(seed, t))
        err = mechanism(d, eps, cursor) - mu
        sq[t] = err * err
    return sq


def estimate_mse(
    d: BoundedDataset,
    mechanism,
    eps: PrivacyBudget,
    trials: int,
    seed: int,
    workers: int = 1,
    dataset_spec: DatasetSpec | None = None,
) -> MseReport:
    """Monte-Carlo MSE of one mechanism on one dataset.

    The squared errors are those of ``squared_errors``.  ``stderr`` is their
    sample standard deviation divided by sqrt(trials) (zero when
    trials == 1).  ``workers`` is accepted and ignored.
    """
    if isinstance(mechanism, str):
        mechanism = Mechanism(mechanism)
    sq = squared_errors(d, mechanism, eps, trials, seed)
    mse = float(np.sum(sq)) / trials
    stderr = float(np.std(sq, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    n = len(d)
    return MseReport(
        mechanism=mechanism,
        epsilon=eps.epsilon,
        dataset_spec=dataset_spec,
        n=n,
        mse=mse,
        normalized_mse=mse * float(n * n),
        stderr=stderr,
        trials=trials,
        seed=seed,
    )


def sweep(config: ExperimentConfig) -> list[MseReport]:
    """Run the Cartesian product (mechanism, epsilon, dataset_spec) in that
    nesting order; deterministic given the config seed.  Each distinct spec
    is built into a dataset once and shared by its cells."""
    cells = [
        (mech, e, spec)
        for mech in config.mechanisms
        for e in config.epsilons
        for spec in config.dataset_specs
    ]
    datasets: dict[DatasetSpec, BoundedDataset] = {}
    reports = []
    for index, (mech, e, spec) in enumerate(cells):
        try:
            d = datasets.get(spec)
            if d is None:
                d = datasets[spec] = generate_dataset(spec)
            reports.append(
                estimate_mse(
                    d,
                    mech,
                    PrivacyBudget(e),
                    config.trials,
                    _derived_seed(config.seed, index),
                    dataset_spec=spec,
                )
            )
        except Exception as exc:
            raise RuntimeError(
                f"sweep cell {index} failed (mechanism={mech}, epsilon={e}, spec={spec})"
            ) from exc
    return reports


def worst_case_over_family(
    mechanism: Mechanism | str,
    eps: PrivacyBudget,
    n: int,
    k: int,
    trials: int,
    seed: int,
) -> float:
    """Largest count-estimation MSE over family members 1..k.

    For mean mechanisms the count estimate for member i is n * estimate and
    the error is measured against i; for GEOMETRIC_COUNT the count itself is
    released with two-sided geometric noise of decay exp(-eps).  Compare the
    result against the 2/eps^2 benchmark.
    """
    _check_count("k", k)
    _check_count("trials", trials)
    worst = -math.inf
    geometric = mechanism == GEOMETRIC_COUNT
    alpha = GeometricParams(math.exp(-eps.epsilon)).alpha if geometric else None
    for i in range(1, k + 1):
        member_seed = _derived_seed(seed, i - 1)
        if geometric:
            u, _ = open_uniform_pairs(member_seed, np.arange(trials, dtype=np.uint64))
            err = two_sided_geometric_from_uniform(u, alpha).astype(np.float64)
        else:
            d = generate_dataset(family_member_spec(n, i))
            err = n * _estimates(d, eps, Mechanism(mechanism), member_seed, trials) - i
        worst = max(worst, float(np.sum(err * err)) / trials)
    return worst


# --- figure presets -------------------------------------------------------

PRESET_EPSILONS = (0.1, 0.2, 0.5, 1.0, 2.0)
PRESET_MEANS = (0.5, 0.25, 0.1, 0.02, 0.005, 0.002)
PRESET_SIZE = 1000
PRESET_TRIALS = 10_000
PRESET_NAMES = ("fig2a", "fig2b", "fig2c")


def preset_family_k(n: int, eps: float) -> int:
    """Family size for worst-case exploration: ceil((n/eps)^(1/3) / 2),
    small enough that the count-to-mean reduction error stays negligible."""
    return math.ceil((n / eps) ** (1.0 / 3.0) / 2.0)


def _preset_specs() -> tuple[DatasetSpec, ...]:
    return tuple(
        DatasetSpec(DatasetKind.TWO_POINT, PRESET_SIZE, mu, (0.0, 1.0)) for mu in PRESET_MEANS
    )


def preset_config(name: str, seed: int, trials: int | None = None) -> ExperimentConfig:
    """Sweep configuration for one of the bundled figure presets.

    fig2a: transformed mechanism over the full epsilon x mean grid.
    fig2b: transformed mechanism, epsilon fixed at 0.5, mean sweep.
    fig2c: shifted and transformed mechanisms over the full grid.
    """
    trials = PRESET_TRIALS if trials is None else trials
    specs = _preset_specs()
    if name == "fig2a":
        return ExperimentConfig((Mechanism.TRANSFORMED,), PRESET_EPSILONS, specs, trials, seed)
    if name == "fig2b":
        return ExperimentConfig((Mechanism.TRANSFORMED,), (0.5,), specs, trials, seed)
    if name == "fig2c":
        return ExperimentConfig(
            (Mechanism.SHIFTED, Mechanism.TRANSFORMED), PRESET_EPSILONS, specs, trials, seed
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


# --- serialization --------------------------------------------------------


def csv_cell(x) -> str:
    """Full-precision cell text: floats use repr, which round-trips exactly."""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def report_row(report: MseReport) -> list[str]:
    spec = report.dataset_spec
    if spec is None:
        raise ValueError("CSV rows need the dataset spec; pass dataset_spec to estimate_mse")
    return [
        report.mechanism.value,
        csv_cell(report.epsilon),
        spec.kind.value,
        str(report.n),
        csv_cell(spec.target_mean),
        str(report.trials),
        csv_cell(report.mse),
        csv_cell(report.normalized_mse),
        csv_cell(report.stderr),
        str(report.seed),
    ]


def reports_to_csv(reports: list[MseReport], extra_columns: dict[str, list[float]] | None = None) -> str:
    """Render reports in the sweep CSV schema, optionally with appended
    columns (one value per report)."""
    header = CSV_HEADER
    extras = extra_columns or {}
    for name, values in extras.items():
        if len(values) != len(reports):
            raise ValueError(f"extra column {name!r} has {len(values)} values for {len(reports)} rows")
        header += f",{name}"
    lines = [header]
    for idx, report in enumerate(reports):
        row = report_row(report)
        row.extend(csv_cell(values[idx]) for values in extras.values())
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _spec_to_json(spec: DatasetSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "size": spec.size,
        "target_mean": spec.target_mean,
        "bounds": list(spec.bounds),
        "family_k": spec.family_k,
    }


def config_metadata(config: ExperimentConfig, preset: str | None = None) -> dict:
    from . import __version__

    return {
        "version": __version__,
        "preset": preset,
        "csv_schema": CSV_HEADER,
        "mechanisms": [m.value for m in config.mechanisms],
        "epsilons": list(config.epsilons),
        "dataset_specs": [_spec_to_json(s) for s in config.dataset_specs],
        "trials": config.trials,
        "seed": config.seed,
    }


def write_metadata(path: str | Path, config: ExperimentConfig, preset: str | None = None) -> None:
    Path(path).write_text(json.dumps(config_metadata(config, preset), indent=2) + "\n")


def config_from_json(data: dict) -> ExperimentConfig:
    """Parse an explicit sweep configuration (the metadata sidecar format)."""
    specs = tuple(
        DatasetSpec(
            DatasetKind(s["kind"]),
            s["size"],
            s["target_mean"],
            tuple(s["bounds"]),
            s.get("family_k"),
        )
        for s in data["dataset_specs"]
    )
    return ExperimentConfig(
        tuple(Mechanism(m) for m in data["mechanisms"]),
        tuple(data["epsilons"]),
        specs,
        data["trials"],
        data["seed"],
    )
