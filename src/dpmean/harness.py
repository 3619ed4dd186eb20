"""Monte-Carlo experiment engine: dataset generators, MSE estimation with
standard errors, parameter sweeps, and worst-case exploration over the
ones-over-zeros dataset family.

Determinism contract
--------------------
A release seeded s is trial 0 of stream (s, 0); trial t reads doubles 2t
and 2t+1; a zero double gives way to the next one.  So trial t of a cell
seeded s is ``run_mechanism`` on ``Cursor(RandomStream(s, 0), 2 * t)``.
A sweep's mechanisms share the seed of each (epsilon, dataset spec) pair:
pair j, counted epsilon-major, takes SplitMix64 output j of the experiment
seed (_derived_seed), so with one mechanism pair j is cell j.

Trials are evaluated as arrays, and cells that share a draw (a sweep's
pairs of one epsilon and bounds, or the family's members) as rows of one
array: one ``noise.trial_uniform_pairs`` call draws each row from its own
seed into one (rows, trials, 2) array, the Laplace inverse CDF runs once
over all of it at unit scale, and each plan, built once as for a release,
scales its [..., 0] and [..., 1] views and runs the estimator and the
squared error elementwise.  Each row holds one cell's squared errors in
trial order and is reduced on its own along its contiguous axis with
numpy's pairwise summation, bit for bit as a 1-D sum of that cell's errors,
so a cell's output depends on no other cell, nor on which cells share its
batch.  A batch holds at most ``_BATCH_TRIALS`` trials per mechanism; a
cell with more runs alone.  A single cell (``squared_errors``,
``estimate_mse``) is the one-row case.  Every sweep cell is a
``Mechanism``; only ``squared_errors`` and ``estimate_mse`` take a
per-trial callable, and ``estimate_mse`` accepts and ignores ``workers``.

``worst_case_over_family`` keeps the read-only uniforms of its last call
and their unit Laplace transform (``_family_uniforms``), so calls in a row
with equal (seed, k, trials), such as the four at one epsilon, draw and
transform once, bit for bit as alone, and hold k * trials * 32 bytes.
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
    is_real,
    mechanism_plan,
    run_mechanism,  # noqa: F401  (per-trial form of _squared_errors; perfbench/tracing.py patches it here)
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
        if not is_real(self.target_mean):
            raise ValueError(f"target mean must be a real number, got {self.target_mean!r}")
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
    given as any sequences; they are stored as tuples, values untouched, and
    the seed as a Python int (a NumPy integer seed would overflow in
    ``_derived_seed``).  ``plans`` maps each (epsilon, bounds) of the
    (epsilon, spec) pairs, in the first form of each in pair order, to the
    mechanisms' plans in order.  They are built here, so an epsilon or a
    Laplace scale that a plan refuses is refused before any cell runs."""

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
        keys = dict.fromkeys((e, spec.bounds) for e in self.epsilons for spec in self.dataset_specs)
        plans = {(e, b): [mechanism_plan(m, *b, PrivacyBudget(e)) for m in self.mechanisms] for e, b in keys}
        object.__setattr__(self, "plans", plans)  # not a field: no part of the config's record
        object.__setattr__(self, "seed", check_uint64("seed", self.seed))


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


def _batches(items, trials: int) -> list:
    """Consecutive slices of ``items`` of ``trials`` trials each, as many
    items per slice as _BATCH_TRIALS holds, one at the least."""
    step = max(1, _BATCH_TRIALS // trials)
    return [items[i : i + step] for i in range(0, len(items), step)]


def _squared_errors(plan: MechanismPlan, s, n, unit, target, factor=1.0, out=None) -> np.ndarray:
    """(factor * estimate - target)^2 of the plan on aggregates (s, n), one
    per trial, into ``out`` if given.  Given ``unit = laplace_from_uniform(u,
    1.0)`` of trial pairs u, estimate t is run_mechanism on a cursor whose
    first two uniforms are u[..., t, :]: times a scale, the sign is exact and
    the product rounds once, so it is ``laplace_from_uniform(u, scale)`` bit
    for bit.  Column arrays s, n, target evaluate rows, one each."""
    est = plan.estimate(s, n, *(unit[..., i] * scale for i, scale in enumerate(plan.scales)))[2]
    err = np.multiply(est, factor, out=est if out is None else out)
    err -= target
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

    ``mechanism`` is a Mechanism, evaluated for all trials in one array pass
    as a one-row case of the sweep's rows, or -- for testing the estimator
    machinery itself -- any callable (dataset, eps, cursor) -> float, called
    on trial t's cursor ``Cursor(RandomStream(seed, 0), 2 * t)``.
    """
    check_count("trials", trials)
    if isinstance(mechanism, str):  # a Mechanism or its name
        plan = mechanism_plan(mechanism, d.lower, d.upper, eps)
        s, n, mu = np.array([(d.scaled_total, float(len(d)), true_mean(d))]).T[..., None]
        return _squared_errors(plan, s, n, laplace_from_uniform(trial_uniform_pairs([seed], trials), 1.0), mu)[0]
    mu = true_mean(d)
    sq = np.empty(trials, dtype=np.float64)
    stream = RandomStream(seed, 0)
    for t in range(trials):
        err = mechanism(d, eps, Cursor(stream, 2 * t)) - mu
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
    nesting order; deterministic given the config seed.  The mechanisms of
    one (epsilon, spec) pair share its draw: pair j, counted epsilon-major,
    takes derived seed number j, which each of its cells reports.  The
    pairs of one (epsilon, bounds) are rows of one draw, in batches of at
    most _BATCH_TRIALS trials, and each distinct spec is built once.  Each
    report equals ``estimate_mse`` on its cell with its pair's seed."""
    pairs = [(e, spec) for e in config.epsilons for spec in config.dataset_specs]
    groups: dict[tuple, list[int]] = {}
    for j, (e, spec) in enumerate(pairs):
        groups.setdefault((e, spec.bounds), []).append(j)
    mechs = range(len(config.mechanisms))
    aggregates: dict[DatasetSpec, tuple] = {}
    reports: list[MseReport] = [None] * (len(mechs) * len(pairs))
    for (e, bounds), indices in groups.items():
        for batch in _batches(indices, config.trials):
            seeds = [_derived_seed(config.seed, j) for j in batch]
            cells = [[p * len(pairs) + j for j in batch] for p in mechs]
            failing = mechs  # the draw is every mechanism's
            try:
                for spec in (pairs[j][1] for j in batch):
                    if spec not in aggregates:
                        d = generate_dataset(spec)
                        aggregates[spec] = (d.scaled_total, float(len(d)), true_mean(d))
                s, n, mu = np.array([aggregates[pairs[j][1]] for j in batch]).T[..., None]
                unit = laplace_from_uniform(trial_uniform_pairs(seeds, config.trials), 1.0)
                sq = np.empty((len(mechs), len(batch), config.trials))
                for p, plan in enumerate(config.plans[(e, bounds)]):
                    failing = [p]
                    _squared_errors(plan, s, n, unit, mu, out=sq[p])
            except Exception as exc:
                raise RuntimeError(
                    f"sweep cell {', '.join(str(i) for p in failing for i in cells[p])} failed (mechanism="
                    f"{' and '.join(str(config.mechanisms[p]) for p in failing)}, epsilon={e}, bounds={bounds})"
                ) from exc
            # a cell reports its own epsilon: equal to the group's, in its own form
            rows = [(config.mechanisms[p], *pairs[j], int(size), seed)
                    for p in mechs for j, size, seed in zip(batch, n[:, 0].tolist(), seeds)]
            for i, report in zip(sum(cells, []), _mse_reports(sq.reshape(-1, config.trials), rows)):
                reports[i] = report
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
    seed = check_uint64("seed", seed)
    check_count("trials", trials)
    worst = -math.inf
    geometric = mechanism == GEOMETRIC_COUNT
    alpha = GeometricParams(math.exp(-eps.epsilon)).alpha if geometric else None
    plan = None if geometric else mechanism_plan(mechanism, 0.0, 1.0, eps)  # members lie in [0, 1]
    for members, (u, unit) in _family_uniforms(seed, k, trials):
        if geometric:
            err = np.square(two_sided_geometric_from_uniform(u[..., 0], alpha), dtype=np.float64)
        else:  # member i holds i ones over n zeros: (s, n) = (i, n + i) exactly
            ones = np.array([float(i) for i in members])[:, None]
            sizes = np.array([float(n + i) for i in members])[:, None]
            err = _squared_errors(plan, ones, sizes, unit, ones, factor=n)
        worst = max(worst, *(np.sum(err, axis=1) / trials).tolist())
    return worst


@functools.lru_cache(maxsize=1)
def _family_uniforms(seed: int, k: int, trials: int) -> tuple:
    """``(members, (u, unit))`` per batch of family members 1..k, read-only:
    the ``trial_uniform_pairs`` of the members, member i's row drawn from the
    derived seed number i - 1, and their unit Laplace transform.

    The draws are a pure function of (seed, k, trials), and the one entry
    kept is keyed by exactly those, so calls in a row with equal (seed, k,
    trials), such as the four at one epsilon, share a draw; the batches
    only group the rows, and no value depends on them (an entry keeps the
    batches it was drawn in).  No row, seed or older call is kept: a
    sequence of calls whose last k differs from its first, as the script's
    epsilons 0.2 ... 1.0 do, draws anew each time it is repeated, so a
    repeated run (a benchmark's pass pair among them) draws as much as the
    first.
    """
    batches = []
    for members in _batches(range(1, k + 1), trials):
        u = trial_uniform_pairs([_derived_seed(seed, i - 1) for i in members], trials)
        unit = laplace_from_uniform(u, 1.0)
        u.flags.writeable = unit.flags.writeable = False
        batches.append((members, (u, unit)))
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
