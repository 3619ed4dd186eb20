"""Covering-ball view of additive-noise mean release.

Laplace noise on a linear change of coordinates G of the normalized
(sum, count) is private at budget eps when the L1 ball of radius r (noise
scale times eps) covers, after G, every difference +-(x, 1), x in [0, 1],
between adjacent datasets' aggregates.  That is one test,
``l1_sensitivity_under(G, UNIT_SEGMENT) <= r``, and a
``mechanisms.MechanismPlan`` derives its noise from the same sensitivity;
this module exports the covering balls as polygons for plotting and runs a
plan on any G.
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
