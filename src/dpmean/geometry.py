"""Covering-ball view of additive-noise mean release.

Laplace noise on a linear change of coordinates G of the normalized
(sum, count) is private at budget eps when the L1 ball of radius r (noise
scale times eps) covers, after G, every difference +-(x, 1), x in [0, 1],
between adjacent datasets' aggregates.  A ``mechanisms.MechanismPlan``
derives its noise from G with ``l1_sensitivity_under``; this module exports
the covering balls as polygons, checks their coverage, and runs a plan on
any G.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mechanisms import (  # noqa: F401  (re-exports: mechanisms owns coordinates and sensitivity)
    CENTERING_TRANSFORM,
    COMPLEMENT_TRANSFORM,
    IDENTITY_TRANSFORM,
    UNIT_SEGMENT,
    BoundedDataset,
    MeanEstimate,
    MechanismPlan,
    NoisePair,
    PrivacyBudget,
    SensitivitySegment,
    Transform2x2,
    l1_sensitivity_under,
)

_TOL = 1e-9  # a point this far outside an edge, in scaled cross-product units, is inside


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

    def contains(self, point: tuple[float, float]) -> bool:
        """Half-plane test for a counterclockwise convex polygon; points on
        the boundary count as inside (up to ``_TOL``)."""
        px, py = point
        verts = self.vertices
        scale = max(1.0, max(abs(c) for v in verts for c in v))
        for i in range(len(verts)):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % len(verts)]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if cross < -_TOL * scale:
                return False
        return True


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


def transform_procedure_estimate(
    d: BoundedDataset,
    eps: PrivacyBudget,
    t: Transform2x2,
    noise: NoisePair,
) -> MeanEstimate:
    """The estimate of the plan with G = t and D the identity, so the noise
    and ``noisy_aggregates`` are in t's coordinates; for an eps-DP release
    the noise scales are the plan's, ``l1_sensitivity_under(t, UNIT_SEGMENT) / eps``."""
    return MechanismPlan(t, (1.0, 1.0), d.lower, d.upper, eps).mean_estimate(d, noise)
