"""Linear-transform view of additive-noise mean release.

Releasing (sum, count) of data normalized to [0, 1] with coordinate-wise
Laplace noise is a norm-ball mechanism: it is private at budget eps whenever
the L1 ball of radius r (the per-coordinate noise scale times eps) covers,
after the chosen linear change of coordinates, every difference the
aggregate can take between adjacent datasets.  Those differences form the
segments +-(x, 1), x in [0, 1].  This module computes the required radius
for a given transform, exports the covering balls as polygons in the
original aggregate space, and implements the generic
transform / add noise / invert / clip procedure so its equivalence with the
direct estimators can be checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mechanisms import (
    AggregateKind,
    AggregateVector,
    BoundedDataset,
    MeanEstimate,
    NoisePair,
    PrivacyBudget,
    _ratio,
    clip,
)


@dataclass(frozen=True)
class Transform2x2:
    """Invertible 2x2 matrix acting on (sum, count) aggregate vectors."""

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

    def apply(self, v: tuple[float, float]) -> tuple[float, float]:
        x, y = v
        return (self.a11 * x + self.a12 * y, self.a21 * x + self.a22 * y)

    def inverse(self) -> "Transform2x2":
        det = self.determinant
        return Transform2x2(self.a22 / det, -self.a12 / det, -self.a21 / det, self.a11 / det)


#: No change of coordinates; needs an L1 ball of radius 2 to cover +-(x, 1).
IDENTITY_TRANSFORM = Transform2x2(1.0, 0.0, 0.0, 1.0)

#: (sum, count) -> (sum - count/2, count/2): recentering at the interval
#: midpoint plus a count rescale; realizes the shifted estimator.
CENTERING_TRANSFORM = Transform2x2(1.0, -0.5, 0.0, 0.5)

#: (sum, count) -> (sum, count - sum): the scaled-sum / complement pair;
#: realizes the transformed estimator and fits the covering ball exactly to
#: the convex hull of the aggregate differences.
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


@dataclass(frozen=True)
class BallPolygon:
    """Closed convex polygon, counterclockwise, centrally symmetric."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 3 or n % 2:
            raise ValueError("ball polygon needs an even number (>= 4) of vertices")
        half = n // 2
        for i in range(half):
            x, y = self.vertices[i]
            nx, ny = self.vertices[i + half]
            if nx != -x or ny != -y:
                raise ValueError("polygon is not centrally symmetric")

    def contains(self, point: tuple[float, float], tol: float = 1e-9) -> bool:
        """Half-plane test for a counterclockwise convex polygon; points on
        the boundary count as inside (up to ``tol`` in cross-product units)."""
        px, py = point
        verts = self.vertices
        scale = max(1.0, max(abs(c) for v in verts for c in v))
        for i in range(len(verts)):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % len(verts)]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if cross < -tol * scale:
                return False
        return True


def _l1_norm_at(t: Transform2x2, x: float) -> float:
    v1, v2 = t.apply((x, 1.0))
    return abs(v1) + abs(v2)


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
    return max(_l1_norm_at(t, x) for x in candidates)


def ball_polygon(t: Transform2x2, radius: float) -> BallPolygon:
    """Preimage under T of the L1 ball of the given radius, as a CCW polygon.

    Vertices are the images of (r,0), (0,r), (-r,0), (0,-r) under the inverse
    transform, reordered if the transform flips orientation.
    """
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    inv = t.inverse()
    v = [inv.apply(p) for p in ((radius, 0.0), (0.0, radius), (-radius, 0.0), (0.0, -radius))]
    if t.determinant < 0:
        v = [v[0], v[3], v[2], v[1]]
    return BallPolygon(tuple(v))


def covers_sensitivity(poly: BallPolygon, seg: SensitivitySegment) -> bool:
    """True iff every +-(x, 1) with x in the segment lies inside the polygon.

    Convexity of the polygon and linearity of the segment reduce the check
    to the four segment endpoints.
    """
    points = [
        (seg.x_lo, 1.0),
        (seg.x_hi, 1.0),
        (-seg.x_lo, -1.0),
        (-seg.x_hi, -1.0),
    ]
    return all(poly.contains(p) for p in points)


def normalize_dataset(d: BoundedDataset) -> BoundedDataset:
    """Rescale values through (x - lower)/(upper - lower) onto bounds [0, 1]."""
    lo, w = d.lower, d.width
    return BoundedDataset((d.values - lo) / w, 0.0, 1.0)


def transform_procedure_estimate(
    d: BoundedDataset,
    eps: PrivacyBudget,
    t: Transform2x2,
    noise: NoisePair,
) -> MeanEstimate:
    """Transform (sum, count) of the normalized data, perturb, invert, clip.

    The noise pair is interpreted coordinate-wise in the transformed space;
    for an eps-DP release its scales should be
    ``l1_sensitivity_under(t, UNIT_SEGMENT) / eps``.  The inverted noisy pair
    is a (sum, count) estimate for the normalized data; the clipped ratio is
    mapped back to [lower, upper].
    """
    norm = normalize_dataset(d)
    s = norm.total
    n = float(len(norm))
    v1, v2 = t.apply((s, n))
    w1 = v1 + noise.za
    w2 = v2 + noise.zb
    s_hat, n_hat = t.inverse().apply((w1, w2))
    ratio = clip(_ratio(s_hat, n_hat), 0.0, 1.0)
    return MeanEstimate(
        d.width * ratio + d.lower,
        None,
        AggregateVector(s_hat, n_hat, AggregateKind.SUM_COUNT),
    )
