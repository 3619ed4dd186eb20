"""The three benchmark workloads and the checks on their outputs.

Each workload turns ``--seed`` into inputs in ``setup()``, runs one pass of
the program in ``run_pass(i)`` (the only timed call) and checks the pass's
outputs in ``check(i, result)``, returning a list of problems.  Passes come
in pairs that share a seed (passes 2j and 2j+1), so every pair also checks
that the program is deterministic given its seed.

Workloads reach the package only through attributes of the namespace ``dp``
(``dp.cli.main``, ``dp.harness.worst_case_over_family``, ...), so a traced
pass sees the same calls through the wrappers that ``tracing`` patches in.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Schema from the README ("CSV schemas") plus the column fig2c appends.
FIG2C_HEADER = (
    "mechanism,epsilon,dataset_kind,n,target_mean,trials,mse,normalized_mse,stderr,seed,"
    "ratio_shifted_to_transformed"
)
RATIO_BAND = (1.7, 2.3)  # acceptance criterion 1
FAMILY_EPSILONS = (0.2, 0.5, 1.0)
FAMILY_N = 1000
RELEASE_EPSILON = 0.5
# Standard errors allowed between a Monte-Carlo estimate and its exact
# expectation.  6.5 rather than 6 absorbs the quadrature's slight
# underestimate of fourth moments (about 4% at 400 nodes).
Z_SE = 6.5
GENERATE_CHUNK = 100_000  # release input values formatted at a time


@dataclass(frozen=True)
class Sizes:
    sweep_trials: int = 1000
    release_values: int = 1_000_000
    family_trials: int = 1000
    setup_reps: int = 11
    micro_scale: float = 1.0


FULL = Sizes()
SMALL = Sizes(sweep_trials=300, release_values=5000, family_trials=200, setup_reps=2, micro_scale=0.02)


def decimal_lines(q: np.ndarray) -> bytes:
    """Integers 0 <= q <= 10^9 as lines "d.ddddddddd" (q / 10^9), formatted
    by numpy, so that set-up holds no Python object per value."""
    line = np.empty((len(q), 12), np.uint8)
    line[:, 0] = ord("0") + q // 10**9
    line[:, 1] = ord(".")
    line[:, 2:11] = ord("0") + q[:, None] // 10 ** np.arange(8, -1, -1) % 10
    line[:, 11] = ord("\n")
    return line.tobytes()


def pair_seeds(workload: str, seed: int):
    """Seed of pass pair j, for j = 0, 1, ...: a pure function of
    (workload, --seed, j)."""
    rng = random.Random(f"{workload}/{seed}")
    seeds: list[int] = []

    def seed_of(index: int) -> int:
        while len(seeds) <= index // 2:
            seeds.append(rng.getrandbits(63))
        return seeds[index // 2]

    return seed_of


class Workload:
    name = ""

    def __init__(self, dp, seed: int, sizes: Sizes, workdir: Path):
        self.dp = dp
        self.sizes = sizes
        self.workdir = workdir
        self.seed_of = pair_seeds(self.name, seed)
        self.input_seed = random.Random(f"{self.name}/{seed}/inputs").getrandbits(64)
        self._pair_first = None

    def setup(self) -> None:
        """Generate the inputs; timed as part of set-up."""

    def items(self) -> int:
        raise NotImplementedError

    def run_pass(self, index: int):
        raise NotImplementedError

    def check(self, index: int, result) -> list[str]:
        raise NotImplementedError

    def same_as_pair(self, index: int, value, what: str) -> list[str]:
        """Determinism: the second pass of a pair must reproduce the first."""
        if index % 2 == 0:
            self._pair_first = value
            return []
        if value != self._pair_first:
            return [f"pass {index}: {what} differs from pass {index - 1} with the same seed"]
        return []


class SweepFig2c(Workload):
    """``dpmean figures --preset fig2c`` in-process, 60 cells x trials."""

    name = "sweep_fig2c"

    def items(self) -> int:
        return 2 * 5 * 6 * self.sizes.sweep_trials

    def run_pass(self, index: int):
        out = self.workdir / f"fig2c-{index % 2}.csv"
        argv = [
            "figures", "--preset", "fig2c",
            "--trials", str(self.sizes.sweep_trials),
            "--seed", str(self.seed_of(index)),
            "--workers", "1",
            "--output", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.dp.cli.main(argv)
        return code, out

    def check(self, index: int, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"pass {index}: figures exited {code}"]
        data = out.read_bytes()
        problems = self.same_as_pair(index, data, "CSV bytes")
        lines = data.decode().splitlines()
        if not lines or lines[0] != FIG2C_HEADER:
            return problems + [f"pass {index}: CSV header {lines[:1]!r}"]
        rows = list(csv.DictReader(lines))
        if len(rows) != 60:
            return problems + [f"pass {index}: {len(rows)} rows, expected 60"]
        numeric = [c for c in FIG2C_HEADER.split(",") if c not in ("mechanism", "dataset_kind")]
        mse = {}
        for r in rows:
            values = {c: float(r[c]) for c in numeric}
            if not all(math.isfinite(v) for v in values.values()):
                problems.append(f"pass {index}: non-finite value in row {r}")
            if int(values["trials"]) != self.sizes.sweep_trials or values["mse"] <= 0:
                problems.append(f"pass {index}: bad trials or mse in row {r}")
            mse[(r["epsilon"], r["target_mean"], r["mechanism"])] = values["mse"]
        ratios = {}
        for r in rows:
            cell = (r["epsilon"], r["target_mean"])
            ratio = mse[cell + ("shifted",)] / mse[cell + ("transformed",)]
            if float(r["ratio_shifted_to_transformed"]) != ratio:
                problems.append(f"pass {index}: ratio column disagrees with mse columns at {cell}")
            ratios[cell] = ratio
        med = statistics.median(ratios.values())
        if len(ratios) != 30 or not RATIO_BAND[0] <= med <= RATIO_BAND[1]:
            problems.append(f"pass {index}: median of {len(ratios)} MSE ratios {med:.3f} outside {RATIO_BAND}")
        meta = json.loads(out.with_suffix(".csv.meta.json").read_text())
        if (meta["seed"], meta["trials"], meta["preset"]) != (
            self.seed_of(index), self.sizes.sweep_trials, "fig2c"
        ):
            problems.append(f"pass {index}: sidecar does not describe the run")
        return problems


class Release1e6(Workload):
    """``dpmean estimate`` in-process on a generated file of values."""

    name = "release_1e6"

    def setup(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.input_seed))
        # Values on a grid of 1e-9, as a file with nine decimals holds them.
        q = np.rint(rng.beta(2.0, 5.0, self.sizes.release_values) * 1e9).astype(np.int64)
        q[:3] = (0, 10**9, 5 * 10**8)  # the declared bounds are inclusive
        self.n = len(q)
        chunks = [q[i:i + GENERATE_CHUNK] for i in range(0, self.n, GENERATE_CHUNK)]
        self.true_mean = math.fsum(itertools.chain.from_iterable((c / 1e9).tolist() for c in chunks)) / self.n
        self.path = self.workdir / "values.txt"
        with self.path.open("wb") as f:
            for c in chunks:
                f.write(decimal_lines(c))

    def items(self) -> int:
        return self.n

    def run_pass(self, index: int):
        argv = [
            "estimate", "--input", str(self.path),
            "--lower", "0", "--upper", "1",
            "--epsilon", str(RELEASE_EPSILON),
            "--mechanism", "transformed",
            "--seed", str(self.seed_of(index)),
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.dp.cli.main(argv)
        return code, out.getvalue()

    def check(self, index: int, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"pass {index}: estimate exited {code}"]
        record = json.loads(text)
        est = record["estimate"]
        problems = self.same_as_pair(index, est, "estimate")
        if record["mechanism"] != "transformed" or record["epsilon"] != RELEASE_EPSILON:
            problems.append(f"pass {index}: record describes another release: {record}")
        if not 0.0 <= est <= 1.0:
            problems.append(f"pass {index}: estimate {est!r} outside the bounds")
        # |error| <= (|Z1| + |Z2|) / (n - |Z1| - |Z2|) with Z ~ Laplace(1/eps);
        # P(|Z1| + |Z2| > 50/eps) < 1e-20.
        if abs(est - self.true_mean) > 50.0 / (RELEASE_EPSILON * self.n - 50.0):
            problems.append(f"pass {index}: estimate {est!r} far from the true mean {self.true_mean!r}")
        leaked = {"n", "count", "size", "mean", "true_mean"} & set(record)
        leaked |= {v for v in record.values() if isinstance(v, (int, float)) and not isinstance(v, bool)
                   and v in (self.n, self.true_mean)}
        if leaked:
            problems.append(f"pass {index}: public record carries private data: {leaked}")
        return problems


class FamilyWorstCase(Workload):
    """The ``scripts/explore_lower_bound.py`` procedure: worst case over the
    ones-over-zeros family for geometric_count and all three mechanisms."""

    name = "family_worst_case"
    _reference = None  # bands, computed at the first check

    def items(self) -> int:
        h = self.dp.harness
        members = sum(h.preset_family_k(FAMILY_N, e) for e in FAMILY_EPSILONS)
        return members * (1 + len(self.dp.mechanisms.Mechanism)) * self.sizes.family_trials

    def run_pass(self, index: int):
        h, m = self.dp.harness, self.dp.mechanisms
        seed, trials = self.seed_of(index), self.sizes.family_trials
        worst = {}
        for e in FAMILY_EPSILONS:
            eps = m.PrivacyBudget(e)
            k = h.preset_family_k(FAMILY_N, e)
            for mech in (h.GEOMETRIC_COUNT, *(x.value for x in m.Mechanism)):
                worst[(mech, e)] = h.worst_case_over_family(mech, eps, FAMILY_N, k, trials, seed)
        return worst

    def reference(self) -> dict:
        """Band [low, high] per (mechanism, eps) that the worst case lies in
        unless an estimate is Z_SE standard errors off its exact mean."""
        if self._reference is None:
            trials = self.sizes.family_trials
            bands = {}
            for e in FAMILY_EPSILONS:
                k = self.dp.harness.preset_family_k(FAMILY_N, e)
                a = math.exp(-e)
                m2 = 2.0 * a / (1.0 - a) ** 2
                m4 = 2.0 * a * (1 + 11 * a + 11 * a * a + a**3) / ((1 + a) * (1 - a) ** 4)
                members = {"geometric_count": [(m2, m4)] * k}
                for mech in ("independent", "shifted", "transformed"):
                    members[mech] = [member_moments(mech, e, FAMILY_N, i) for i in range(1, k + 1)]
                for mech, moments in members.items():
                    se = [math.sqrt(max(m4 - m2 * m2, 0.0) / trials) for m2, m4 in moments]
                    low = max(m2 - Z_SE * s for (m2, _), s in zip(moments, se))
                    high = max(m2 + Z_SE * s for (m2, _), s in zip(moments, se))
                    bands[(mech, e)] = (0.99 * low, 1.01 * high)
            self._reference = bands
        return self._reference

    def check(self, index: int, result) -> list[str]:
        problems = self.same_as_pair(index, result, "worst-case values")
        for key, (low, high) in self.reference().items():
            if not low <= result[key] <= high:
                problems.append(f"pass {index}: worst case {key} = {result[key]:.3f} outside [{low:.3f}, {high:.3f}]")
        return problems


def _laplace_nodes(m: int) -> np.ndarray:
    """m equal-probability strata of the unit Laplace law, each represented
    by the root of its conditional second moment, so the nodes reproduce
    E[Z] = 0 and E[Z^2] = 2 exactly."""
    h = m // 2
    with np.errstate(divide="ignore"):
        edges = -np.log1p(-np.arange(h + 1) / h)  # Exp(1) quantiles, last is inf

    def upper_tail(x):  # integral of t^2 e^-t over [x, inf)
        finite = np.where(np.isinf(x), 0.0, x)
        return np.where(np.isinf(x), 0.0, np.exp(-finite) * (finite * finite + 2 * finite + 2))

    pos = np.sqrt((upper_tail(edges[:-1]) - upper_tail(edges[1:])) * h)
    return np.concatenate([-pos[::-1], pos])


def member_moments(mech: str, eps: float, n: int, i: int, m: int = 400) -> tuple[float, float]:
    """E[err^2] and E[err^4] of the count error n*estimate - i on family
    member i (i ones over n zeros), by quadrature over the two Laplace noise
    coordinates.  An independent restatement of each estimator, so the check
    does not trust the code under test."""
    z = _laplace_nodes(m)
    za, zb = z[:, None], z[None, :]
    size = n + i
    with np.errstate(divide="ignore", invalid="ignore"):
        if mech == "independent":
            est = np.clip((i + 2.0 * za / eps) / (size + 2.0 * zb / eps), 0.0, 1.0)
        elif mech == "shifted":
            est = np.clip((i - size / 2.0 + za / eps) / (size + 2.0 * zb / eps), -0.5, 0.5) + 0.5
        else:
            num = i + za / eps
            est = np.clip(num / (num + n + zb / eps), 0.0, 1.0)
    sq = (n * est - i) ** 2
    return float(sq.mean()), float((sq * sq).mean())


WORKLOADS = {w.name: w for w in (SweepFig2c, Release1e6, FamilyWorstCase)}
