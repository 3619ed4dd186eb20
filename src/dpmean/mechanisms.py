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

``mechanism_plan`` fixes a row to bounds and a budget once per release or
Monte-Carlo cell; the ``MechanismPlan``'s ``estimate`` is the one estimator:
v = T(s, n) + z, (s^, n^) = T^-1 v, estimate w * clip(s^/n^, 0, 1) + l,
elementwise on scalar noise or on arrays of noise (one entry per trial).
Noise is always injected explicitly, so behaviour is exactly testable;
run_mechanism is the only sampling wrapper.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field
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
    """Raise ValueError unless [lower, upper] is a non-empty interval of finite width."""
    if not (lower < upper and math.isfinite(upper - lower)):
        raise ValueError(
            f"bounds must be finite with lower < upper and a finite width, got [{lower}, {upper}]"
        )


#: Terms per block of ``scaled_partials``.
_SUM_BLOCK = 1 << 16


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
    # reuse one dataset across many noise draws.  Every sum is correctly
    # rounded, the double math.fsum gives for the list of its summands, so
    # summation error stays below the noise signal even at 10^6 elements.
    # ``total`` and ``shifted_total`` sum one IEEE operation on each value
    # with fsum, which reads the doubles through a buffer view, so no list of
    # floats is built.  ``scaled_total`` sums two operations on each value,
    # (value - lower) / width, exactly in blocks; see ``scaled_partials``.
    @cached_property
    def total(self) -> float:
        return math.fsum(memoryview(self.values))

    @cached_property
    def shifted_total(self) -> float:  # read by the benchmark's layer timings only
        return math.fsum(memoryview(self.values - self.midpoint))

    @cached_property
    def scaled_total(self) -> float:
        """fsum(((values - lower) / width).tolist()), bit for bit; see
        ``scaled_partials``."""
        return math.fsum(scaled_partials(self.values, self.lower, self.width))


def scaled_partials(values: np.ndarray, lower: float, width: float) -> list[float]:
    """Exact partial sums of the terms (values - lower) / width, whose fsum
    is fsum of the terms, bit for bit, however the values are split between
    calls.

    Each block of at most 2^16 terms is summed by error-free extraction
    (``ExtractVector``; Rump, Ogita & Oishi, "Accurate Floating-Point
    Summation Part I", SIAM J. Sci. Comput. 31(1), 2008).  With every
    |x| < 2^e, take sigma = 2^(e+16).  Then head = fl(x + sigma) - sigma is
    exact, a multiple of 2^-53 sigma and at most 2^e in magnitude, and
    x - head, the rounding error of x + sigma, is exact and at most
    2^-53 sigma = 2^(e-37).  So every running sum of at most 2^16 heads is
    a multiple of 2^-53 sigma of at most sigma in magnitude: it is exact in
    float64, in any order, and ``head.sum()`` is an exact partial.  The
    remainders are extracted again at sigma 2^-37, until none is left; at
    sigma below 2^-1021 the addition itself is exact and leaves none.  fsum
    of exact partials is the correctly rounded total, which is what fsum of
    the terms returns.  Zero partials add nothing and are dropped, so
    all-zero terms, -0.0 among them, give none.  The terms must be finite
    and below 2^1007 in magnitude, so that sigma is: true of terms in
    [0, 1], and of partials this returned, read at lower 0 and width 1,
    which merges them into a few.
    """
    partials = []
    for start in range(0, len(values), _SUM_BLOCK):
        x = values[start : start + _SUM_BLOCK] - lower
        if width != 1.0:  # x / 1.0 is x
            x /= width
        top = max(x.max(), -x.min())
        if not top:
            continue
        sigma = math.ldexp(1.0, math.frexp(top)[1] + 16)
        head = np.empty_like(x)
        while True:
            np.add(x, sigma, out=head)
            head -= sigma
            x -= head  # the remainder, exactly
            total = float(head.sum())
            if total:
                partials.append(total)
            if not x.any():
                break
            sigma *= 2.0**-37
    return partials


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

    The norm |a11*x + a12| + |a21*x + a22| is a sum of absolute values of
    affine functions of x, so it is convex, and a convex function on an
    interval takes its maximum at an endpoint.  The norm is even, so the
    ball of radius r covers every +-(x, 1) of the segment after T exactly
    when this is at most r.
    """
    return max(sum(map(abs, t.apply((x, 1.0)))) for x in (seg.x_lo, seg.x_hi))


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
    noisy_aggregates: AggregateVector


def _clip(x, lo: float, hi: float):
    """``clip``, elementwise on arrays (a scalar gives a float).  The
    estimator calls this directly; ``clip`` is the scalar entry point, which
    callers may wrap with scalar-only code (perfbench counts clips so)."""
    if lo > hi:
        raise ValueError(f"clip range is empty: [{lo}, {hi}]")
    x = np.asarray(x, dtype=np.float64)
    out = np.where(hi < x, hi, x)  # min(x, hi): x unless hi < x
    np.putmask(out, out <= lo, lo)  # max(lo, .): lo unless . > lo; NaN stays
    np.putmask(out, np.isnan(out), (lo + hi) / 2.0)
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


@dataclass(frozen=True)
class MechanismPlan:
    """A row (G, D) of the module table fixed to bounds [lower, upper] and a
    budget, with what it implies: the released transform T = D G, its
    inverse, the L1 radius of G and the Laplace scales D * radius / eps,
    each of which must be a valid ``LaplaceParams`` scale."""

    g: Transform2x2
    diag: tuple[float, float]
    lower: float
    upper: float
    eps: PrivacyBudget
    t: Transform2x2 = field(init=False)
    t_inv: Transform2x2 = field(init=False)
    radius: float = field(init=False)
    scales: tuple[float, float] = field(init=False)

    def __post_init__(self) -> None:
        (d1, d2), g, e = self.diag, self.g, self.eps.epsilon
        t = Transform2x2(d1 * g.a11, d1 * g.a12, d2 * g.a21, d2 * g.a22)
        radius = l1_sensitivity_under(g, UNIT_SEGMENT)
        scales = (d1 * radius / e, d2 * radius / e)
        for scale in scales:
            LaplaceParams(scale)
        for name, value in (("t", t), ("t_inv", t.inverse()), ("radius", radius), ("scales", scales)):
            object.__setattr__(self, name, value)

    def estimate(self, s, n, za, zb):
        """Release v = T(s, n) + (za, zb), invert to (s^, n^) = T^-1 v, and
        return (v1, v2, w * clip(s^/n^, 0, 1) + l).  Elementwise: za, zb are
        scalars or equal-shape arrays, one entry per trial."""
        first, second = self.t.apply((s, n))
        with np.errstate(invalid="ignore", over="ignore"):
            first, second = first + za, second + zb
            s_hat, n_hat = self.t_inv.apply((first, second))
            w = self.upper - self.lower
            return first, second, w * _clip(_ratio(s_hat, n_hat), 0.0, 1.0) + self.lower

    def noise(self, stream: RandomStream | Cursor) -> NoisePair:
        """The plan's noise pair, drawn from a stream (a fresh cursor is
        opened) or an already-positioned cursor: za first, then zb."""
        cursor = stream.cursor() if isinstance(stream, RandomStream) else stream
        return NoisePair(*[laplace_sample(cursor, LaplaceParams(scale)) for scale in self.scales])

    def mean_estimate(self, d: BoundedDataset, noise: NoisePair) -> MeanEstimate:
        """One release on d, which must have the plan's bounds, with the given
        noise.  An empty d releases the noise alone: (s, n) = (0, 0)."""
        if (d.lower, d.upper) != (self.lower, self.upper):
            raise ValueError(f"dataset bounds differ from the plan's [{self.lower}, {self.upper}]")
        first, second, value = self.estimate(d.scaled_total, float(len(d)), noise.za, noise.zb)
        return MeanEstimate(float(value), AggregateVector(float(first), float(second)))


def mechanism_plan(
    mechanism: Mechanism, lower: float, upper: float, eps: PrivacyBudget
) -> MechanismPlan:
    """The plan of the mechanism's row of the module table on [lower, upper]."""
    mechanism = Mechanism(mechanism)
    check_bounds(lower, upper)
    if mechanism is Mechanism.INDEPENDENT:
        b = max(abs(lower), abs(upper))
        g, diag = Transform2x2((upper - lower) / b, lower / b, 0.0, 1.0), (b, 1.0)
    elif mechanism is Mechanism.SHIFTED:
        g, diag = CENTERING_TRANSFORM, (upper - lower, 2.0)
    else:
        g, diag = COMPLEMENT_TRANSFORM, (1.0, 1.0)
    return MechanismPlan(g, diag, lower, upper, eps)


def estimate_independent(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of separately noised sum and count."""
    return mechanism_plan(Mechanism.INDEPENDENT, d.lower, d.upper, eps).mean_estimate(d, noise)


def estimate_shifted(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of noised midpoint-shifted sum and count, shifted back."""
    return mechanism_plan(Mechanism.SHIFTED, d.lower, d.upper, eps).mean_estimate(d, noise)


def estimate_transformed(d: BoundedDataset, eps: PrivacyBudget, noise: NoisePair) -> MeanEstimate:
    """Clipped ratio of the noised scaled-sum pair, mapped back to [lower, upper]."""
    return mechanism_plan(Mechanism.TRANSFORMED, d.lower, d.upper, eps).mean_estimate(d, noise)


def run_mechanism(
    d: BoundedDataset,
    eps: PrivacyBudget,
    mechanism: Mechanism,
    stream: RandomStream | Cursor,
) -> MeanEstimate:
    """Draw the mechanism's noise pair (za first, then zb) and estimate.

    Accepts either a stream descriptor (a fresh cursor is opened) or an
    already-positioned cursor.  The harness evaluates trial t of a cell
    seeded s as this function on ``trial_cursor(RandomStream(s, 0), t)``,
    with arrays in place of the two draws.
    """
    plan = mechanism_plan(mechanism, d.lower, d.upper, eps)
    return plan.mean_estimate(d, plan.noise(stream))
