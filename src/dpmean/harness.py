"""Monte-Carlo experiment engine: dataset generators, MSE estimation with
standard errors, parameter sweeps, and worst-case exploration over the
ones-over-zeros dataset family.

Determinism contract
--------------------
Trial t of a cell seeded with s draws from stream (s, t): its estimate is
exactly ``run_mechanism(d, eps, mechanism, RandomStream(s, t))``.  Sweep
cell i derives its seed from the experiment seed with a SplitMix64 step
(documented in _derived_seed).

Trials are evaluated as arrays: several cells share one pass of the Philox
kernel, in blocks of 4096 streams (``noise.trial_uniform_pairs``), then each
cell runs the Laplace inverse CDF, its ``MechanismPlan`` (built once, as for
a release) and the squared error elementwise on its own uniforms.  Each
cell's squared errors are in trial order and reduced on their own with
numpy's pairwise summation, so grouping moves no output bit.  Every sweep
cell is a ``Mechanism``; only ``squared_errors`` and ``estimate_mse`` take a
per-trial callable, and ``estimate_mse`` accepts and ignores ``workers``.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .mechanisms import (
    BoundedDataset,
    Mechanism,
    MechanismPlan,
    PrivacyBudget,
    check_bounds,
    mechanism_plan,
    run_mechanism,  # noqa: F401  (per-trial form of _estimates; perfbench/tracing.py patches it here)
    true_mean,
)
from .noise import (
    Cursor,
    GeometricParams,
    RandomStream,
    check_count,
    check_uint64,
    laplace_from_uniform,
    trial_uniform_pairs,
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


def _derived_seed(seed: int, index: int) -> int:
    """SplitMix64 output number ``index`` for the given base seed."""
    z = (seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class DatasetKind(str, enum.Enum):
    CONSTANT = "constant"
    TWO_POINT = "two_point"


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a synthetic dataset of ``size`` values with a prescribed
    mean.  ``kind`` may be given by name and ``bounds`` as any pair; both
    are stored in canonical form.
    """

    kind: DatasetKind
    size: int
    target_mean: float
    bounds: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DatasetKind(self.kind))
        object.__setattr__(self, "bounds", tuple(self.bounds))
        lo, hi = self.bounds
        check_count("dataset size", self.size)
        check_bounds(lo, hi)
        if not (lo <= self.target_mean <= hi):
            raise ValueError(f"target mean {self.target_mean} outside bounds {self.bounds}")


def generate_dataset(spec: DatasetSpec) -> BoundedDataset:
    lo, hi = spec.bounds
    if spec.kind is DatasetKind.CONSTANT:
        values = np.full(spec.size, spec.target_mean, dtype=np.float64)
    else:
        k = round(spec.size * (spec.target_mean - lo) / (hi - lo))
        values = np.repeat(np.array([hi, lo], dtype=np.float64), [k, spec.size - k])
    return BoundedDataset(values, lo, hi)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep's axes, trials and seed.  Mechanisms may be named and the axes
    given as any sequences; they are stored as tuples, values untouched."""

    mechanisms: tuple[Mechanism, ...]
    epsilons: tuple[float, ...]
    dataset_specs: tuple[DatasetSpec, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mechanisms", tuple(map(Mechanism, self.mechanisms)))
        object.__setattr__(self, "epsilons", tuple(self.epsilons))
        object.__setattr__(self, "dataset_specs", tuple(self.dataset_specs))
        if not (self.mechanisms and self.epsilons and self.dataset_specs):
            raise ValueError("a sweep needs at least one mechanism, epsilon and dataset spec")
        check_count("trials", self.trials)
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


def _estimates(plan: MechanismPlan, s: float, n: float, uniforms) -> np.ndarray:
    """Estimates of the plan on the aggregates (s, n), one per trial: given
    uniforms (u_a, u_b), entry t is run_mechanism on the stream whose first
    two uniforms are u_a[t] and u_b[t]."""
    return plan.estimate(s, n, *map(laplace_from_uniform, uniforms, plan.scales))[2]


def _cell_squared_errors(d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget, uniforms) -> np.ndarray:
    """Per-trial squared errors of the mechanism on d, given its trials' uniform pairs."""
    plan = mechanism_plan(mechanism, d.lower, d.upper, eps)
    err = _estimates(plan, d.scaled_total, float(len(d)), uniforms) - true_mean(d)
    return err * err


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
    check_count("trials", trials)
    if isinstance(mechanism, str):  # a Mechanism or its name
        (uniforms,) = trial_uniform_pairs([seed], trials)
        return _cell_squared_errors(d, mechanism, eps, uniforms)
    mu = true_mean(d)
    sq = np.empty(trials, dtype=np.float64)
    cursor = Cursor(RandomStream(seed, 0))
    for t in range(trials):
        cursor.jump_to(RandomStream(seed, t))
        err = mechanism(d, eps, cursor) - mu
        sq[t] = err * err
    return sq


def _mse_report(sq: np.ndarray, mechanism, eps: PrivacyBudget, n: int, seed: int, spec) -> MseReport:
    """The MseReport of one cell's per-trial squared errors."""
    trials = len(sq)
    mse = float(np.sum(sq)) / trials
    stderr = float(np.std(sq, ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
    return MseReport(mechanism, eps.epsilon, spec, n, mse, mse * float(n * n), stderr, trials, seed)


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
    return _mse_report(sq, mechanism, eps, len(d), seed, dataset_spec)


def sweep(config: ExperimentConfig) -> list[MseReport]:
    """Run the Cartesian product (mechanism, epsilon, dataset_spec) in that
    nesting order; deterministic given the config seed.  Each distinct spec
    is built into a dataset once and shared by its cells, and the cells'
    trial uniforms come from shared kernel passes.  Each report equals
    ``estimate_mse`` on its cell with the cell's derived seed."""
    cells = [
        (mech, e, spec)
        for mech in config.mechanisms
        for e in config.epsilons
        for spec in config.dataset_specs
    ]
    seeds = [_derived_seed(config.seed, i) for i in range(len(cells))]
    datasets: dict[DatasetSpec, BoundedDataset] = {}
    reports = []
    uniforms = trial_uniform_pairs(seeds, config.trials)
    for index, ((mech, e, spec), seed, pair) in enumerate(zip(cells, seeds, uniforms)):
        try:
            d = datasets.get(spec)
            if d is None:
                d = datasets[spec] = generate_dataset(spec)
            eps = PrivacyBudget(e)
            sq = _cell_squared_errors(d, mech, eps, pair)
            reports.append(_mse_report(sq, mech, eps, len(d), seed, spec))
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
    check_count("k", k)
    check_count("dataset size", n)  # trials are checked by trial_uniform_pairs
    worst = -math.inf
    geometric = mechanism == GEOMETRIC_COUNT
    alpha = GeometricParams(math.exp(-eps.epsilon)).alpha if geometric else None
    plan = None if geometric else mechanism_plan(mechanism, 0.0, 1.0, eps)  # members lie in [0, 1]
    members = trial_uniform_pairs([_derived_seed(seed, i) for i in range(k)], trials)
    for i, uniforms in enumerate(members, start=1):
        if geometric:
            err = two_sided_geometric_from_uniform(uniforms[0], alpha).astype(np.float64)
        else:  # member i holds i ones over n zeros: (s, n) = (i, n + i) exactly
            err = n * _estimates(plan, float(i), float(n + i), uniforms) - i
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


def config_metadata(config: ExperimentConfig, preset: str | None = None) -> dict:
    from . import __version__

    return {"version": __version__, "preset": preset, "csv_schema": CSV_HEADER, **asdict(config)}


def write_metadata(path: str | Path, config: ExperimentConfig, preset: str | None = None) -> None:
    Path(path).write_text(json.dumps(config_metadata(config, preset), indent=2) + "\n")


def config_from_json(data: dict) -> ExperimentConfig:
    """Parse an explicit sweep configuration (the metadata sidecar format)."""
    specs = [
        DatasetSpec(s["kind"], s["size"], s["target_mean"], s["bounds"])
        for s in data["dataset_specs"]
    ]
    return ExperimentConfig(data["mechanisms"], data["epsilons"], specs, data["trials"], data["seed"])
