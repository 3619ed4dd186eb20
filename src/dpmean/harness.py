"""Monte-Carlo experiment engine: dataset generators, MSE estimation with
standard errors, parameter sweeps, and worst-case exploration over the
ones-over-zeros dataset family.

Determinism contract
--------------------
Trial t of a cell seeded with s draws from a cursor opened at counter t of
stream (s, 0): its estimate is exactly
``run_mechanism(d, eps, mechanism, Cursor(RandomStream(s, 0), t))``.
Trial 0 is stream (s, 0) from its start, the stream a release seeded s
draws from.  Sweep cell i derives its seed from the experiment seed with a
SplitMix64 step (documented in _derived_seed).

Trials are evaluated as arrays, and cells that share a ``MechanismPlan``
(a sweep's cells of one mechanism, epsilon and bounds, or one mechanism's
family members) as rows of one array: the group builds its plan once, as
for a release, draws each row's uniforms from the row's own seed with one
``noise.trial_uniform_pairs`` call, then runs the Laplace inverse CDF, the
plan and the squared error elementwise.  Each row holds one cell's squared
errors in trial order and is reduced on its own along its contiguous axis
with numpy's pairwise summation, bit for bit as a 1-D sum of that cell's
errors, so a cell's output depends on no other cell, nor on which cells
share its batch.  A batch holds at most ``_BATCH_TRIALS`` trials; a cell
with more runs alone.  A single cell (``squared_errors``, ``estimate_mse``)
is the one-row case.  Every sweep cell is a ``Mechanism``; only
``squared_errors`` and ``estimate_mse`` take a per-trial callable, and
``estimate_mse`` accepts and ignores ``workers``.

``worst_case_over_family`` keeps the read-only uniforms of its last call
(``_family_uniforms``), so calls in a row with equal (seed, k, trials),
such as the geometric count and the three mechanisms at one epsilon, draw
once, bit for bit as alone, and hold k * trials * 16 bytes between calls.
"""

from __future__ import annotations

import enum
import functools
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
    given as any sequences; they are stored as tuples, values untouched.
    ``plans`` maps each (mechanism, epsilon, bounds) of the cells, in the
    first form of each in cell order, to its plan.  They are built here, so
    an epsilon or a Laplace scale that a plan refuses is refused before any
    cell runs."""

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
        keys = dict.fromkeys(
            (mech, e, spec.bounds)
            for mech in self.mechanisms
            for e in self.epsilons
            for spec in self.dataset_specs
        )
        plans = {key: mechanism_plan(key[0], *key[2], PrivacyBudget(key[1])) for key in keys}
        object.__setattr__(self, "plans", plans)  # not a field: no part of the config's record
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


#: Trials evaluated in one array pass, over all the rows of a batch; a cell
#: with more trials than this is a batch of its own.
_BATCH_TRIALS = 1 << 16


def _batch_step(trials: int) -> int:
    """Items per batch of ``trials`` trials each: as many as _BATCH_TRIALS
    holds, one at the least."""
    return max(1, _BATCH_TRIALS // trials)


def _batches(items, step: int) -> list:
    """Consecutive slices of ``items``, ``step`` items per slice."""
    return [items[i : i + step] for i in range(0, len(items), step)]


def _estimates(plan: MechanismPlan, s, n, uniforms) -> np.ndarray:
    """Estimates of the plan on the aggregates (s, n), one per trial: given
    uniforms (u_a, u_b), entry t is run_mechanism on a cursor whose first
    two uniforms are u_a[t] and u_b[t].  Column arrays s, n of one entry per
    row evaluate rows of uniforms, one cell per row."""
    return plan.estimate(s, n, *map(laplace_from_uniform, uniforms, plan.scales))[2]


def _squared_error_rows(plan: MechanismPlan, datasets, seeds, trials: int) -> np.ndarray:
    """Squared errors (estimate - true mean)^2 of the plan, one C-contiguous
    row per dataset in trial order: row j draws its trials from seeds[j]."""
    s, n, mu = np.array([(d.scaled_total, float(len(d)), true_mean(d)) for d in datasets]).T[..., None]
    err = _estimates(plan, s, n, trial_uniform_pairs(seeds, trials))
    err -= mu
    err *= err
    return err


def squared_errors(
    d: BoundedDataset,
    mechanism,
    eps: PrivacyBudget,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Per-trial squared errors (estimate - true mean)^2, in trial order.

    Trial t draws its noise from a cursor at counter t of stream (seed, 0).
    ``mechanism`` is a Mechanism, evaluated for all trials in one array pass
    as a one-row case of the sweep's rows, or -- for testing the estimator
    machinery itself -- any callable (dataset, eps, cursor) -> float, which
    is called once per trial.
    """
    check_count("trials", trials)
    if isinstance(mechanism, str):  # a Mechanism or its name
        plan = mechanism_plan(mechanism, d.lower, d.upper, eps)
        return _squared_error_rows(plan, [d], [seed], trials)[0]
    mu = true_mean(d)
    sq = np.empty(trials, dtype=np.float64)
    stream = RandomStream(seed, 0)
    for t in range(trials):
        err = mechanism(d, eps, Cursor(stream, t)) - mu
        sq[t] = err * err
    return sq


def _mse_reports(sq: np.ndarray, rows) -> list[MseReport]:
    """One MseReport per row of squared errors, rows[j] = (mechanism,
    epsilon, dataset spec, n, seed) of row j.  Each row is reduced on its own
    along its contiguous axis, bit for bit as a 1-D sum and std of it."""
    trials = sq.shape[1]
    mse = (np.sum(sq, axis=1) / trials).tolist()
    stderr = (np.std(sq, axis=1, ddof=1) / math.sqrt(trials)).tolist() if trials > 1 else [0.0] * len(mse)
    return [
        MseReport(mech, e, spec, n, m, m * float(n * n), se, trials, seed)
        for (mech, e, spec, n, seed), m, se in zip(rows, mse, stderr)
    ]


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
    return _mse_reports(sq[None], [(mechanism, eps.epsilon, dataset_spec, len(d), seed)])[0]


def sweep(config: ExperimentConfig) -> list[MseReport]:
    """Run the Cartesian product (mechanism, epsilon, dataset_spec) in that
    nesting order; deterministic given the config seed.  Each distinct spec
    is built into a dataset once and shared by its cells.  The cells of one
    (mechanism, epsilon, bounds) share one plan and run as rows of one array,
    in batches of at most _BATCH_TRIALS trials.  Each report equals
    ``estimate_mse`` on its cell with the cell's derived seed."""
    cells = [
        (mech, e, spec)
        for mech in config.mechanisms
        for e in config.epsilons
        for spec in config.dataset_specs
    ]
    groups: dict[tuple, list[int]] = {}
    for index, (mech, e, spec) in enumerate(cells):
        groups.setdefault((mech, e, spec.bounds), []).append(index)
    datasets: dict[DatasetSpec, BoundedDataset] = {}
    reports: list[MseReport] = [None] * len(cells)
    for (mech, e, bounds), indices in groups.items():
        plan = config.plans[(mech, e, bounds)]
        for batch in _batches(indices, _batch_step(config.trials)):
            specs = [cells[i][2] for i in batch]
            seeds = [_derived_seed(config.seed, i) for i in batch]
            try:
                for spec in specs:
                    if spec not in datasets:
                        datasets[spec] = generate_dataset(spec)
                ds = [datasets[spec] for spec in specs]
                sq = _squared_error_rows(plan, ds, seeds, config.trials)
                # a cell reports its own epsilon: equal to the group's, in its own form
                rows = [(*cells[i], len(d), seed) for i, d, seed in zip(batch, ds, seeds)]
                for i, report in zip(batch, _mse_reports(sq, rows)):
                    reports[i] = report
            except Exception as exc:
                raise RuntimeError(
                    f"sweep cell {', '.join(map(str, batch))} failed"
                    f" (mechanism={mech}, epsilon={e}, bounds={bounds})"
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
    result against the 2/eps^2 benchmark.  Member i draws its trials from
    the derived seed number i - 1; the members share one plan and run as
    rows of one array, each row reduced on its own.
    """
    check_count("k", k)
    check_count("dataset size", n)
    check_uint64("seed", seed)
    check_count("trials", trials)
    worst = -math.inf
    geometric = mechanism == GEOMETRIC_COUNT
    alpha = GeometricParams(math.exp(-eps.epsilon)).alpha if geometric else None
    plan = None if geometric else mechanism_plan(mechanism, 0.0, 1.0, eps)  # members lie in [0, 1]
    for members, uniforms in _family_uniforms(seed, k, trials, _batch_step(trials)):
        if geometric:
            err = two_sided_geometric_from_uniform(uniforms[0], alpha).astype(np.float64)
        else:  # member i holds i ones over n zeros: (s, n) = (i, n + i) exactly
            ones = np.array([float(i) for i in members])[:, None]
            sizes = np.array([float(n + i) for i in members])[:, None]
            err = _estimates(plan, ones, sizes, uniforms)
            err *= n
            err -= ones
        err *= err
        worst = max(worst, *(np.sum(err, axis=1) / trials).tolist())
    return worst


@functools.lru_cache(maxsize=1)
def _family_uniforms(seed: int, k: int, trials: int, step: int) -> tuple:
    """``(members, (u_a, u_b))`` per batch of ``step`` family members 1..k,
    member i's row drawn from the derived seed number i - 1, read-only.

    The draws are a pure function of the four arguments, and the one entry
    kept is keyed by all of them, so only calls in a row with equal (seed,
    k, trials), such as the four at one epsilon, share a draw; a batch step
    of its own splits the members afresh.  No row, seed or older call is
    kept: a sequence of calls whose last k differs from its first, as the
    script's epsilons 0.2 ... 1.0 do, draws anew each time it is repeated,
    so a repeated run (a benchmark's pass pair among them) draws as much as
    the first.
    """
    batches = []
    for members in _batches(range(1, k + 1), step):
        uniforms = trial_uniform_pairs([_derived_seed(seed, i - 1) for i in members], trials)
        for u in uniforms:
            u.flags.writeable = False
        batches.append((members, uniforms))
    return tuple(batches)


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
