"""Private mean estimators for bounded real data under add-remove adjacency.

Three estimators are provided, all built on the same pattern: compute a
two-dimensional aggregate of the dataset, perturb it with Laplace noise,
form a ratio, and clip into the known range.

* independent -- noise the raw sum and the count separately, each with half
  the budget; the sum noise scales with max(|lower|, |upper|).
* shifted     -- recenter values at the interval midpoint before summing,
  which shrinks the sum sensitivity to half the interval width.
* transformed -- release the scaled sum s1 = sum((x - lower)/width) together
  with its complement s2 = n - s1; one unit of budget covers both
  coordinates because an added or removed record moves (s1, s2) by exactly
  one in L1 norm.  The implied denominator noise is correlated with the
  numerator noise, which halves the mean squared error of the shifted
  estimator at matched budget.

Each estimator is one elementwise function of the noise (``noisy_estimate``):
it takes scalar noise or arrays of noise, one entry per trial, so the
Monte-Carlo harness evaluates many trials at once with the very arithmetic a
single release uses.  Noise is always injected explicitly (a NoisePair, or
arrays) so behaviour is exactly testable; run_mechanism is the only sampling
wrapper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .noise import Cursor, LaplaceParams, RandomStream, laplace_sample


class Mechanism(str, enum.Enum):
    INDEPENDENT = "independent"
    SHIFTED = "shifted"
    TRANSFORMED = "transformed"


class AggregateKind(str, enum.Enum):
    SUM_COUNT = "sum_count"
    SHIFTED_SUM_COUNT = "shifted_sum_count"
    TRANSFORMED_PAIR = "transformed_pair"


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class BoundedDataset:
    """Multiset of reals with declared public bounds [lower, upper].

    The bounds are treated as public parameters of the data domain; every
    value must lie inside them.  Order and duplicates carry no meaning.
    """

    values: tuple[float, ...]
    lower: float
    upper: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not (self.lower < self.upper):
            raise ValueError(f"bounds must satisfy lower < upper, got [{self.lower}, {self.upper}]")
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        for v in self.values:
            if not (self.lower <= v <= self.upper):
                raise ValueError(f"value {v} outside declared bounds [{self.lower}, {self.upper}]")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    # Aggregates are cached: the dataset is immutable and harness sweeps
    # reuse one dataset across many noise draws.  All sums are compensated
    # (math.fsum) so summation error stays below the noise signal even at
    # 10^6 elements.
    @cached_property
    def total(self) -> float:
        return math.fsum(self.values)

    @cached_property
    def shifted_total(self) -> float:
        m = self.midpoint
        return math.fsum(v - m for v in self.values)

    @cached_property
    def scaled_total(self) -> float:
        lo, w = self.lower, self.width
        return math.fsum((v - lo) / w for v in self.values)


@dataclass(frozen=True)
class AggregateVector:
    """A two-dimensional statistic (exact or noise-perturbed)."""

    first: float
    second: float
    kind: AggregateKind


@dataclass(frozen=True)
class NoisePair:
    """Additive perturbations for the two aggregate coordinates.

    No finiteness check: tests deliberately inject infinities to probe the
    clipping guarantee.
    """

    za: float
    zb: float


@dataclass(frozen=True)
class MeanEstimate:
    value: float
    mechanism: Mechanism | None
    noisy_aggregates: AggregateVector


def _clip(x, lo: float, hi: float):
    """``clip``, elementwise on arrays (a scalar gives a float).  The
    estimators call this directly; ``clip`` is the scalar entry point, which
    callers may wrap with scalar-only code (perfbench counts clips so)."""
    if lo > hi:
        raise ValueError(f"clip range is empty: [{lo}, {hi}]")
    x = np.asarray(x, dtype=np.float64)
    below = np.where(hi < x, hi, x)
    out = np.where(np.isnan(x), (lo + hi) / 2.0, np.where(below > lo, below, lo))
    return out if out.ndim else float(out)


def clip(x: float, lo: float, hi: float) -> float:
    """max(lo, min(x, hi)) with Python's tie rules (a signed zero equal to
    lo maps to lo); NaN maps to the interval midpoint."""
    return _clip(x, lo, hi)


def true_mean(d: BoundedDataset) -> float:
    """Exact (non-private) mean, compensated summation."""
    if len(d) == 0:
        raise ValueError("mean of an empty dataset is undefined")
    return d.total / len(d)


def _ratio(num, den):
    # Zero denominators of either sign resolve to sign(num)*inf so the
    # estimate clips to a range endpoint; 0/0 resolves to NaN, which clips to
    # the midpoint.  Adding +0.0 turns -0.0 into +0.0 and leaves every other
    # denominator unchanged.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(num, den + 0.0)


def exact_aggregates(d: BoundedDataset, mechanism: Mechanism) -> AggregateVector:
    """The pre-noise aggregate pair released by the given mechanism."""
    mechanism = Mechanism(mechanism)
    n = float(len(d))
    if mechanism is Mechanism.INDEPENDENT:
        return AggregateVector(d.total, n, AggregateKind.SUM_COUNT)
    if mechanism is Mechanism.SHIFTED:
        return AggregateVector(d.shifted_total, n, AggregateKind.SHIFTED_SUM_COUNT)
    s1 = d.scaled_total
    return AggregateVector(s1, n - s1, AggregateKind.TRANSFORMED_PAIR)


def noise_scales(d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget) -> tuple[float, float]:
    """Laplace scales (for za, zb) that make the mechanism eps-DP under
    add-remove adjacency."""
    mechanism = Mechanism(mechanism)
    e = eps.epsilon
    if mechanism is Mechanism.INDEPENDENT:
        w_abs = max(abs(d.lower), abs(d.upper))
        return 2.0 * w_abs / e, 2.0 / e
    if mechanism is Mechanism.SHIFTED:
        return d.width / e, 2.0 / e
    return 1.0 / e, 1.0 / e


def _independent(d: BoundedDataset, za, zb):
    s_hat = d.total + za
    n_hat = len(d) + zb
    return s_hat, n_hat, _clip(_ratio(s_hat, n_hat), d.lower, d.upper)


def _shifted(d: BoundedDataset, za, zb):
    half_w = d.width / 2.0
    s_hat = d.shifted_total + za
    n_hat = len(d) + zb
    return s_hat, n_hat, _clip(_ratio(s_hat, n_hat), -half_w, half_w) + d.midpoint


def _transformed(d: BoundedDataset, za, zb):
    s1 = d.scaled_total
    s1_hat = s1 + za
    s2_hat = (len(d) - s1) + zb
    ratio = _clip(_ratio(s1_hat, s1_hat + s2_hat), 0.0, 1.0)
    return s1_hat, s2_hat, d.width * ratio + d.lower


_ESTIMATORS = {
    Mechanism.INDEPENDENT: (_independent, AggregateKind.SUM_COUNT),
    Mechanism.SHIFTED: (_shifted, AggregateKind.SHIFTED_SUM_COUNT),
    Mechanism.TRANSFORMED: (_transformed, AggregateKind.TRANSFORMED_PAIR),
}


def noisy_estimate(d: BoundedDataset, mechanism: Mechanism, za, zb):
    """The mechanism's noisy aggregate pair and clipped estimate for noise
    (za, zb), elementwise: scalars or equal-shape arrays, one entry per
    trial.  Returns (first, second, estimate); see ``estimate_*`` for what
    each mechanism computes."""
    if len(d) == 0:
        raise ValueError("cannot estimate the mean of an empty dataset")
    estimator, _ = _ESTIMATORS[Mechanism(mechanism)]
    with np.errstate(invalid="ignore", over="ignore"):
        return estimator(d, za, zb)


def _mean_estimate(d: BoundedDataset, mechanism: Mechanism, noise: NoisePair) -> MeanEstimate:
    first, second, value = noisy_estimate(d, mechanism, noise.za, noise.zb)
    kind = _ESTIMATORS[mechanism][1]
    return MeanEstimate(float(value), mechanism, AggregateVector(float(first), float(second), kind))


def estimate_independent(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of separately noised sum and count."""
    return _mean_estimate(d, Mechanism.INDEPENDENT, noise)


def estimate_shifted(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of noised midpoint-shifted sum and count, shifted back."""
    return _mean_estimate(d, Mechanism.SHIFTED, noise)


def estimate_transformed(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of the noised scaled-sum pair, mapped back to [lower, upper]."""
    return _mean_estimate(d, Mechanism.TRANSFORMED, noise)


def run_mechanism(
    d: BoundedDataset,
    eps: PrivacyBudget,
    mechanism: Mechanism,
    stream: RandomStream | Cursor,
) -> MeanEstimate:
    """Draw the mechanism's noise pair (za first, then zb) and estimate.

    Accepts either a stream descriptor (a fresh cursor is opened) or an
    already-positioned cursor.  The harness evaluates trial t of a cell
    seeded s as this function on stream (s, t), with arrays in place of the
    two draws.
    """
    mechanism = Mechanism(mechanism)
    cursor = stream.cursor() if isinstance(stream, RandomStream) else stream
    scale_a, scale_b = noise_scales(d, mechanism, eps)
    noise = NoisePair(
        laplace_sample(cursor, LaplaceParams(scale_a)),
        laplace_sample(cursor, LaplaceParams(scale_b)),
    )
    return _mean_estimate(d, mechanism, noise)
