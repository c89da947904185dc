import math

import numpy as np
import pytest

from layoutsynth.geometry import (
    Curve,
    Vec2,
    closest_point_on_curve,
    normalize_angle,
    point_in_polygon,
    polygon_centroid,
    polygon_is_simple,
    polygon_signed_area,
    stable_radians,
    wrap_angle,
)

SQUARE = [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)]


def test_normalize_angle_range_and_idempotence():
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-50, 50, size=500):
        a = normalize_angle(theta)
        assert 0.0 <= a < 2.0 * math.pi
        assert normalize_angle(a) == a
        # represents the same angle modulo 2*pi
        assert math.isclose(math.cos(a), math.cos(theta), abs_tol=1e-9)
        assert math.isclose(math.sin(a), math.sin(theta), abs_tol=1e-9)


def test_wrap_angle_signed_range():
    rng = np.random.default_rng(1)
    for delta in rng.uniform(-20, 20, size=300):
        w = wrap_angle(delta)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(delta), abs_tol=1e-9)
    # antipodal ties wrap positive
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi


def test_stable_radians_fixed_point():
    rng = np.random.default_rng(2)
    for deg in list(rng.uniform(-720, 720, size=2000)) + [0, 45, 90, 105, 180, 270]:
        rad = stable_radians(float(deg))
        assert math.radians(math.degrees(rad)) == rad
        assert math.isclose(rad, math.radians(deg), rel_tol=0, abs_tol=1e-12)


def test_polygon_area_centroid_square():
    assert polygon_signed_area(SQUARE) == pytest.approx(100.0)
    assert polygon_centroid(SQUARE) == pytest.approx((5.0, 5.0))


def test_polygon_centroid_matches_sampling_oracle():
    poly = [Vec2(0, 0), Vec2(6, 0), Vec2(6, 2), Vec2(2, 2), Vec2(2, 5), Vec2(0, 5)]
    rng = np.random.default_rng(3)
    pts = rng.uniform((0, 0), (6, 5), size=(200_000, 2))
    inside = np.array([point_in_polygon(poly, p) for p in pts])
    mc = pts[inside].mean(axis=0)
    c = polygon_centroid(poly)
    assert abs(c.x - mc[0]) < 0.02 and abs(c.y - mc[1]) < 0.02


def test_point_in_polygon_basic():
    assert point_in_polygon(SQUARE, (5, 5))
    assert not point_in_polygon(SQUARE, (15, 5))
    assert not point_in_polygon(SQUARE, (-0.001, 5))


def test_polygon_simplicity():
    assert polygon_is_simple(SQUARE)
    bowtie = [Vec2(0, 0), Vec2(4, 4), Vec2(4, 0), Vec2(0, 4)]
    assert not polygon_is_simple(bowtie)


@pytest.mark.parametrize("boundary", [
    [(0, 0), (4, 0), (4, 4), (2, 4), (2, 6), (2, 4), (0, 4)],  # zero-width spike
    [(0, 0), (4, 0), (2, 0), (2, 3)],  # an edge folds back along the last
    [(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)],  # a vertex touches the bottom wall
    [(0, 0), (2, 2), (4, 0), (4, 4), (2, 2), (0, 4)],  # two corners meet
    [(0, 0), (6, 0), (6, 3), (4, 3), (4, 0), (2, 0), (2, 3), (0, 3)],  # a wall runs along another
], ids=["spike", "fold", "touch", "pinch", "overlap"])
def test_boundary_that_touches_or_retraces_itself_is_not_simple(boundary):
    assert not polygon_is_simple([Vec2(*v) for v in boundary])


@pytest.mark.parametrize("boundary", [
    [(0, 0), (2, 0), (4, 0), (4, 4), (0, 4)],  # a vertex in the middle of a wall
    [(0, 0), (8, 0), (8, 4), (5.5, 4), (5.5, 6), (0, 6)],  # L-shaped
    [(0, 0), (6.5, 0), (6.5, 5), (4.5, 5), (4.5, 2), (2, 2), (2, 5), (0, 5)],  # notched
    [(0, 0), (6, 0), (6, 5), (4, 5), (4, 2), (2, 2), (2, 5), (0, 5)],  # U-shaped
    [(0, 0), (5.6292, 3.25), (3.1292, 7.5801), (-2.5, 4.3301)],  # turned 30 degrees
    [(0, 0), (1, 0), (1, 1e-300), (0, 1e-300)],  # orientations too small to multiply
], ids=["straight", "l", "notched", "u", "turned", "thin"])
def test_simple_boundaries_stay_simple(boundary):
    assert polygon_is_simple([Vec2(*v) for v in boundary])


class TestCurves:
    def test_segment_requires_length(self):
        with pytest.raises(ValueError):
            Curve(Vec2(1, 1), Vec2(1, 1)).validate()

    def test_arc_requires_common_radius(self):
        with pytest.raises(ValueError):
            Curve(Vec2(1, 0), Vec2(0, 2), Vec2(0, 0)).validate()

    def test_segment_nearest_foot_and_clamp(self):
        seg = Curve(Vec2(0, 0), Vec2(4, 0))
        assert closest_point_on_curve(seg, (2, 3)) == (2, 0)
        assert closest_point_on_curve(seg, (9, 1)) == (4, 0)
        assert closest_point_on_curve(seg, (-5, -1)) == (0, 0)
        # a nonzero length whose square underflows answers with its start
        tiny = Curve(Vec2(0, 0), Vec2(1e-170, 0))
        tiny.validate()
        assert closest_point_on_curve(tiny, (2, 3)) == (0, 0)

    def test_quarter_arc_nearest_against_dense_sampling(self):
        arc = Curve(Vec2(1, 0), Vec2(0, 1), Vec2(0, 0))
        arc.validate()
        qx, qy = closest_point_on_curve(arc, (2, 2))
        r = math.sqrt(2) / 2
        assert qx == pytest.approx(r, abs=1e-12)
        assert qy == pytest.approx(r, abs=1e-12)
        # dense sampling oracle over several query points
        samples = [arc.point_at(u) for u in np.linspace(0, 1, 20_001)]
        rng = np.random.default_rng(4)
        for p in rng.uniform(-2, 3, size=(40, 2)):
            qx, qy = closest_point_on_curve(arc, p)
            best = min(math.hypot(s.x - p[0], s.y - p[1]) for s in samples)
            got = math.hypot(qx - p[0], qy - p[1])
            assert got <= best + 1e-6

    def test_arc_span_clamps_to_endpoints(self):
        arc = Curve(Vec2(1, 0), Vec2(0, 1), Vec2(0, 0))
        assert closest_point_on_curve(arc, (0.5, -2)) == (1, 0)

    def test_point_at_endpoints(self):
        arc = Curve(Vec2(1, 0), Vec2(0, 1), Vec2(0, 0))
        assert arc.point_at(0.0) == pytest.approx((1.0, 0.0))
        assert arc.point_at(1.0) == pytest.approx((0.0, 1.0))
        assert arc.length() == pytest.approx(math.pi / 2)

    def test_transformed_preserves_shape(self):
        seg = Curve(Vec2(-1, 0), Vec2(1, 0))
        world = seg.transformed(Vec2(5, 5), math.pi / 2)
        assert world.a.x == pytest.approx(5.0)
        assert world.a.y == pytest.approx(4.0)
        assert world.b.y == pytest.approx(6.0)
        assert world.length() == pytest.approx(seg.length())
