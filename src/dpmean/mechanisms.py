"""Private mean estimators for bounded real data under add-remove adjacency.

Every mechanism here is one procedure on the normalized aggregate
(s, n) = (sum((x - lower)/width), count): change coordinates with a 2x2
matrix, add Laplace noise to each released coordinate, invert, and clip the
ratio s/n into [0, 1].  A mechanism is a row of data, a pair (G, D):

* G is a Transform2x2 on (s, n).  One added or removed record moves (s, n)
  by +-(x, 1), x in [0, 1], and G fixes the L1 radius of the ball covering
  those moves, ``l1_sensitivity_under(G, UNIT_SEGMENT)``.
* D is a diagonal that maps G's coordinates to the released ones,
  T(s, n) with T = D G; the noise scales are D * radius / eps.

With bounds [l, u], w = u - l and B = max(|l|, |u|):

=========== ==================== ====== ===================== ======
mechanism   G                    D      released T(s, n)      radius
=========== ==================== ====== ===================== ======
independent [[w/B, l/B], [0, 1]] (B, 1) (sum, n)              2
shifted     CENTERING_TRANSFORM  (w, 2) (sum - midpoint*n, n) 1
transformed COMPLEMENT_TRANSFORM (1, 1) (s, n - s)            1
=========== ==================== ====== ===================== ======

The complement transform fits the ball exactly to the moves, and its
implied count noise is correlated with the numerator noise; this halves the
mean squared error of the shifted mechanism at matched budget.

``transform_estimate`` is the one estimator: v = T(s, n) + z,
(s^, n^) = T^-1 v, estimate w * clip(s^/n^, 0, 1) + l, elementwise on scalar
noise or on arrays of noise (one entry per trial), so the Monte-Carlo
harness runs a single release's arithmetic on many trials at once.  Noise is
always injected explicitly, so behaviour is exactly testable; run_mechanism
is the only sampling wrapper.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .noise import Cursor, LaplaceParams, RandomStream, laplace_sample


class Mechanism(str, enum.Enum):
    INDEPENDENT = "independent"
    SHIFTED = "shifted"
    TRANSFORMED = "transformed"


@dataclass(frozen=True)
class PrivacyBudget:
    """A privacy budget epsilon: a real number (not a bool), positive and
    finite.  Every other check of an epsilon constructs one of these."""

    epsilon: float

    def __post_init__(self) -> None:
        e = self.epsilon
        real = isinstance(e, numbers.Real) and not isinstance(e, bool)
        if not (real and e > 0 and math.isfinite(e)):
            raise ValueError(f"epsilon must be positive and finite, got {e!r}")


def check_bounds(lower: float, upper: float) -> None:
    """Raise ValueError unless [lower, upper] is a finite, non-empty interval."""
    if not (lower < upper and math.isfinite(lower) and math.isfinite(upper)):
        raise ValueError(f"bounds must be finite with lower < upper, got [{lower}, {upper}]")


@dataclass(frozen=True, eq=False)
class BoundedDataset:
    """Multiset of reals with declared public bounds [lower, upper].

    The bounds are treated as public parameters of the data domain; every
    value must lie inside them (NaN lies inside none).  Order and duplicates
    carry no meaning.  ``values`` is a read-only float64 copy of the
    sequence passed in, so later changes to the caller's data do not reach
    the dataset.
    """

    values: np.ndarray
    lower: float
    upper: float

    def __post_init__(self) -> None:
        check_bounds(self.lower, self.upper)
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {values.shape}")
        values.flags.writeable = False
        # A view of a read-only array cannot be made writeable again, so the
        # cached aggregates stay true to the values.
        values = values.view()
        object.__setattr__(self, "values", values)
        inside = (values >= self.lower) & (values <= self.upper)
        if not inside.all():
            v = float(values[inside.argmin()])
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
    # 10^6 elements; each summand is one IEEE operation on one value.
    @cached_property
    def total(self) -> float:
        return math.fsum(self.values.tolist())

    @cached_property
    def shifted_total(self) -> float:  # read by the benchmark's layer timings only
        return math.fsum((self.values - self.midpoint).tolist())

    @cached_property
    def scaled_total(self) -> float:
        return math.fsum(((self.values - self.lower) / self.width).tolist())


@dataclass(frozen=True)
class Transform2x2:
    """Invertible 2x2 matrix acting on aggregate vectors; ``apply`` works
    elementwise on arrays."""

    a11: float
    a12: float
    a21: float
    a22: float

    def __post_init__(self) -> None:
        if self.determinant == 0.0:
            raise ValueError("transform must be invertible (nonzero determinant)")

    @property
    def determinant(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def apply(self, v):
        x, y = v
        return (_combine(self.a11, x, self.a12, y), _combine(self.a21, x, self.a22, y))

    def inverse(self) -> "Transform2x2":
        det = self.determinant
        return Transform2x2(self.a22 / det, -self.a12 / det, -self.a21 / det, self.a11 / det)


def _combine(a: float, x, b: float, y):
    """a*x + b*y.  A zero coefficient drops its term, so an infinite or NaN
    entry there does not turn the result into NaN, and a unit coefficient
    skips an exact multiplication, which saves array passes."""
    if b == 0.0:
        return x if a == 1.0 else a * x
    by = y if b == 1.0 else b * y
    if a == 0.0:
        return by
    return (x if a == 1.0 else a * x) + by


#: No change of coordinates; needs an L1 ball of radius 2 to cover +-(x, 1).
#: It is the independent mechanism's G on bounds [0, 1].
IDENTITY_TRANSFORM = Transform2x2(1.0, 0.0, 0.0, 1.0)

#: (s, n) -> (s - n/2, n/2): recentering at the interval midpoint plus a
#: count rescale; the shifted mechanism's G.
CENTERING_TRANSFORM = Transform2x2(1.0, -0.5, 0.0, 0.5)

#: (s, n) -> (s, n - s): the scaled-sum / complement pair; the transformed
#: mechanism's G, which fits the covering ball exactly to the convex hull of
#: the aggregate differences.
COMPLEMENT_TRANSFORM = Transform2x2(1.0, 0.0, -1.0, 1.0)


@dataclass(frozen=True)
class SensitivitySegment:
    """The aggregate-difference family +-(x, 1) for x in [x_lo, x_hi]."""

    x_lo: float
    x_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo <= self.x_hi):
            raise ValueError(f"segment requires x_lo <= x_hi, got [{self.x_lo}, {self.x_hi}]")


UNIT_SEGMENT = SensitivitySegment(0.0, 1.0)


def l1_sensitivity_under(t: Transform2x2, seg: SensitivitySegment) -> float:
    """Largest L1 norm of T(x, 1) over the segment.

    The norm is a piecewise-linear convex function of x, so it suffices to
    evaluate the endpoints plus the kinks where a transformed coordinate
    crosses zero.
    """
    candidates = [seg.x_lo, seg.x_hi]
    for num, den in ((t.a12, t.a11), (t.a22, t.a21)):
        if den != 0.0:
            kink = -num / den
            if seg.x_lo < kink < seg.x_hi:
                candidates.append(kink)
    return max(sum(map(abs, t.apply((x, 1.0)))) for x in candidates)


@dataclass(frozen=True)
class AggregateVector:
    """A two-dimensional statistic (exact or noise-perturbed)."""

    first: float
    second: float


@dataclass(frozen=True)
class NoisePair:
    """Additive perturbations for the two released coordinates.

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


def mechanism_row(
    d: BoundedDataset, mechanism: Mechanism
) -> tuple[Transform2x2, tuple[float, float]]:
    """The mechanism's (G, D) on the dataset's bounds: the module table."""
    mechanism = Mechanism(mechanism)
    if mechanism is Mechanism.INDEPENDENT:
        b = max(abs(d.lower), abs(d.upper))
        return Transform2x2(d.width / b, d.lower / b, 0.0, 1.0), (b, 1.0)
    if mechanism is Mechanism.SHIFTED:
        return CENTERING_TRANSFORM, (d.width, 2.0)
    return COMPLEMENT_TRANSFORM, (1.0, 1.0)


def released_transform(d: BoundedDataset, mechanism: Mechanism) -> Transform2x2:
    """T = D G: from the normalized aggregate (s, n) to the released pair."""
    g, (d1, d2) = mechanism_row(d, mechanism)
    return Transform2x2(d1 * g.a11, d1 * g.a12, d2 * g.a21, d2 * g.a22)


def noise_scales(d: BoundedDataset, mechanism: Mechanism, eps: PrivacyBudget) -> tuple[float, float]:
    """Laplace scales (for za, zb) that make the mechanism eps-DP under
    add-remove adjacency: D times the L1 radius of G, over eps."""
    g, (d1, d2) = mechanism_row(d, mechanism)
    radius = l1_sensitivity_under(g, UNIT_SEGMENT)
    return d1 * radius / eps.epsilon, d2 * radius / eps.epsilon


def exact_aggregates(d: BoundedDataset, mechanism: Mechanism) -> AggregateVector:
    """The pre-noise pair T(s, n) released by the given mechanism."""
    return AggregateVector(*released_transform(d, mechanism).apply((d.scaled_total, float(len(d)))))


def _clip(x, lo: float, hi: float):
    """``clip``, elementwise on arrays (a scalar gives a float).  The
    estimator calls this directly; ``clip`` is the scalar entry point, which
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


def transform_estimate(d: BoundedDataset, t: Transform2x2, za, zb):
    """The one estimator: release v = T(s, n) + (za, zb), invert to
    (s^, n^) = T^-1 v, and return (v1, v2, w * clip(s^/n^, 0, 1) + l).

    Elementwise: za, zb are scalars or equal-shape arrays, one entry per
    trial.
    """
    if len(d) == 0:
        raise ValueError("cannot estimate the mean of an empty dataset")
    first, second = t.apply((d.scaled_total, float(len(d))))
    with np.errstate(invalid="ignore", over="ignore"):
        first, second = first + za, second + zb
        s_hat, n_hat = t.inverse().apply((first, second))
        return first, second, d.width * _clip(_ratio(s_hat, n_hat), 0.0, 1.0) + d.lower


def noisy_estimate(d: BoundedDataset, mechanism: Mechanism, za, zb):
    """``transform_estimate`` in the mechanism's released coordinates, with
    noise (za, zb) on those coordinates."""
    return transform_estimate(d, released_transform(d, mechanism), za, zb)


def _mean_estimate(d: BoundedDataset, mechanism: Mechanism, noise: NoisePair) -> MeanEstimate:
    first, second, value = noisy_estimate(d, mechanism, noise.za, noise.zb)
    return MeanEstimate(float(value), mechanism, AggregateVector(float(first), float(second)))


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
