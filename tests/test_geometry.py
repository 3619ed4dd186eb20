import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpmean.geometry import (
    CENTERING_TRANSFORM,
    COMPLEMENT_TRANSFORM,
    IDENTITY_TRANSFORM,
    UNIT_SEGMENT,
    BallPolygon,
    SensitivitySegment,
    Transform2x2,
    ball_polygon,
    covers_sensitivity,
    l1_sensitivity_under,
    transform_procedure_estimate,
)
from dpmean.mechanisms import (
    BoundedDataset,
    NoisePair,
    PrivacyBudget,
    estimate_shifted,
    estimate_transformed,
    true_mean,
)

EPS = PrivacyBudget(0.5)


def grid_sensitivity(t: Transform2x2, seg: SensitivitySegment, points: int = 20001) -> float:
    """Dense-grid oracle for the max L1 norm over the segment."""
    best = 0.0
    for i in range(points):
        x = seg.x_lo + (seg.x_hi - seg.x_lo) * i / (points - 1)
        v1, v2 = t.apply((x, 1.0))
        best = max(best, abs(v1) + abs(v2))
    return best


class TestTransform2x2:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            Transform2x2(1.0, 2.0, 2.0, 4.0)

    def test_named_inverses(self):
        inv = CENTERING_TRANSFORM.inverse()
        assert (inv.a11, inv.a12, inv.a21, inv.a22) == (1.0, 1.0, 0.0, 2.0)
        inv3 = COMPLEMENT_TRANSFORM.inverse()
        assert (inv3.a11, inv3.a12, inv3.a21, inv3.a22) == (1.0, -0.0, 1.0, 1.0)

    @settings(max_examples=200)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    # condition number ~2600: x = 0 comes back as 1.8e-12
    @example(0.125, 2.5830284205134832, 0.125, 2.625, 0.0, 7.0)
    def test_inverse_roundtrip(self, a, b, c, d, x, y):
        det = a * d - b * c
        if abs(det) < 1e-3:
            return
        t = Transform2x2(a, b, c, d)
        rx, ry = t.inverse().apply(t.apply((x, y)))
        # The forward map, the determinant and the inverse map each lose
        # about 2 units of kappa * |v| * 2^-52, kappa = ||A||_F^2 / |det| the
        # Frobenius condition number (always >= 2); 8 bounds their sum.  For
        # kappa <= 40 this is tighter than an absolute 1e-12 on |v| <= 10 sqrt 2.
        kappa = (a * a + b * b + c * c + d * d) / abs(det)
        tol = 8 * kappa * math.hypot(x, y) * 2**-52
        assert abs(rx - x) <= tol
        assert abs(ry - y) <= tol


class TestSensitivity:
    def test_identity_needs_radius_two(self):
        assert l1_sensitivity_under(IDENTITY_TRANSFORM, UNIT_SEGMENT) == 2.0

    def test_centering_needs_radius_one(self):
        assert l1_sensitivity_under(CENTERING_TRANSFORM, UNIT_SEGMENT) == 1.0

    def test_complement_tight_everywhere(self):
        assert l1_sensitivity_under(COMPLEMENT_TRANSFORM, UNIT_SEGMENT) == 1.0
        for i in range(11):
            x = i / 10
            v1, v2 = COMPLEMENT_TRANSFORM.apply((x, 1.0))
            assert abs(abs(v1) + abs(v2) - 1.0) < 1e-12

    @settings(max_examples=150)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    def test_matches_grid_oracle(self, a, b, c, d):
        if abs(a * d - b * c) < 1e-3:
            return
        t = Transform2x2(a, b, c, d)
        exact = l1_sensitivity_under(t, UNIT_SEGMENT)
        approx = grid_sensitivity(t, UNIT_SEGMENT)
        assert approx <= exact + 1e-9
        assert exact == pytest.approx(approx, rel=1e-6)

    def test_no_normalized_radius_below_one(self):
        # Covering the hull of +-(x,1) forces (transformed area) >= hull area:
        # r^2 / |det T| >= 1.  Sampled transforms with entries in [-3,3] never
        # beat it, and the complement transform attains it exactly.
        rng = random.Random(2718)
        samples = 0
        while samples < 10_000:
            entries = [rng.uniform(-3, 3) for _ in range(4)]
            det = entries[0] * entries[3] - entries[1] * entries[2]
            if abs(det) < 0.05:
                continue
            samples += 1
            t = Transform2x2(*entries)
            r = l1_sensitivity_under(t, UNIT_SEGMENT)
            assert r >= math.sqrt(abs(det)) * (1 - 1e-9)
        best = l1_sensitivity_under(COMPLEMENT_TRANSFORM, UNIT_SEGMENT)
        assert best / math.sqrt(abs(COMPLEMENT_TRANSFORM.determinant)) == 1.0


class TestBallPolygon:
    def test_identity_square(self):
        poly = ball_polygon(IDENTITY_TRANSFORM, 2.0)
        assert poly.vertices == ((2.0, 0.0), (0.0, 2.0), (-2.0, 0.0), (0.0, -2.0))

    def test_complement_parallelogram(self):
        poly = ball_polygon(COMPLEMENT_TRANSFORM, 1.0)
        assert poly.vertices == ((1.0, 1.0), (0.0, 1.0), (-1.0, -1.0), (0.0, -1.0))

    def test_counterclockwise_orientation(self):
        for t in (IDENTITY_TRANSFORM, CENTERING_TRANSFORM, COMPLEMENT_TRANSFORM):
            verts = ball_polygon(t, 1.0).vertices
            area2 = sum(
                verts[i][0] * verts[(i + 1) % 4][1] - verts[(i + 1) % 4][0] * verts[i][1]
                for i in range(4)
            )
            assert area2 > 0

    def test_orientation_flip_restored(self):
        flipper = Transform2x2(0.0, 1.0, 1.0, 0.0)  # det -1
        verts = ball_polygon(flipper, 1.0).vertices
        area2 = sum(
            verts[i][0] * verts[(i + 1) % 4][1] - verts[(i + 1) % 4][0] * verts[i][1]
            for i in range(4)
        )
        assert area2 > 0

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            ball_polygon(IDENTITY_TRANSFORM, 0.0)

    def test_central_symmetry_enforced(self):
        with pytest.raises(ValueError):
            BallPolygon(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.5), (0.0, -1.0)))

    @settings(max_examples=150)
    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-4, max_value=4),
        st.floats(min_value=-4, max_value=4),
    )
    def test_membership_iff_norm_within_radius(self, a, b, c, d, px, py):
        det = a * d - b * c
        if abs(det) < 0.05:
            return
        t = Transform2x2(a, b, c, d)
        radius = 1.5
        v1, v2 = t.apply((px, py))
        norm = abs(v1) + abs(v2)
        # skip the boundary shell where float tolerance decides either way
        if abs(norm - radius) < 1e-6:
            return
        poly = ball_polygon(t, radius)
        assert poly.contains((px, py)) == (norm <= radius)


class TestCoverage:
    def test_complement_ball_covers(self):
        assert covers_sensitivity(ball_polygon(COMPLEMENT_TRANSFORM, 1.0), UNIT_SEGMENT)

    def test_identity_radius_one_fails(self):
        assert not covers_sensitivity(ball_polygon(IDENTITY_TRANSFORM, 1.0), UNIT_SEGMENT)

    def test_identity_radius_two_covers(self):
        assert covers_sensitivity(ball_polygon(IDENTITY_TRANSFORM, 2.0), UNIT_SEGMENT)

    def test_centering_ball_covers(self):
        assert covers_sensitivity(ball_polygon(CENTERING_TRANSFORM, 1.0), UNIT_SEGMENT)


class TestNormalize:
    """Every mechanism releases a transform of the normalized sum s."""

    def test_rescales_to_unit(self):
        d = BoundedDataset((2.0, 3.0, 4.0), 2.0, 4.0)
        assert d.scaled_total == math.fsum((0.0, 0.5, 1.0))

    def test_unit_dataset_unchanged(self):
        d = BoundedDataset((0.1, 0.9), 0.0, 1.0)
        assert d.scaled_total == d.total

    @given(st.lists(st.floats(min_value=-5, max_value=7), min_size=1, max_size=30))
    def test_mean_relation(self, values):
        d = BoundedDataset(tuple(values), -5.0, 7.0)
        normalized_mean = d.scaled_total / len(d)
        assert normalized_mean == pytest.approx((true_mean(d) + 5.0) / 12.0, rel=1e-12, abs=1e-12)


class TestTransformProcedure:
    def test_identity_zero_noise_gives_mean(self):
        d = BoundedDataset((0.2, 0.3, 0.8), 0.0, 1.0)
        est = transform_procedure_estimate(d, EPS, IDENTITY_TRANSFORM, NoisePair(0.0, 0.0))
        assert est.value == pytest.approx(true_mean(d), rel=1e-12)

    def test_complement_coupling_exact(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(1, 6)
            values = tuple(rng.uniform(1.0, 3.0) for _ in range(n))
            d = BoundedDataset(values, 1.0, 3.0)
            noise = NoisePair(rng.uniform(-4, 4), rng.uniform(-4, 4))
            via_transform = transform_procedure_estimate(d, EPS, COMPLEMENT_TRANSFORM, noise)
            direct = estimate_transformed(d, EPS, noise)
            assert via_transform.value == direct.value

    def test_centering_coupling(self):
        # transformed-space noise (za, zb) corresponds to shifted-sum noise
        # w*za and count noise 2*zb on the original data
        rng = random.Random(13)
        for _ in range(25):
            n = rng.randint(1, 6)
            values = tuple(rng.uniform(1.0, 3.0) for _ in range(n))
            d = BoundedDataset(values, 1.0, 3.0)
            za, zb = rng.uniform(-4, 4), rng.uniform(-4, 4)
            via_transform = transform_procedure_estimate(
                d, EPS, CENTERING_TRANSFORM, NoisePair(za, zb)
            )
            direct = estimate_shifted(d, EPS, NoisePair(d.width * za, 2.0 * zb))
            assert via_transform.value == pytest.approx(direct.value, rel=1e-12, abs=1e-12)

    def test_output_in_bounds(self):
        d = BoundedDataset((2.5,), 2.0, 4.0)
        est = transform_procedure_estimate(d, EPS, CENTERING_TRANSFORM, NoisePair(50.0, -3.0))
        assert 2.0 <= est.value <= 4.0
