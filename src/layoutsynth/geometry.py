"""Planar geometry primitives: vectors, angles, polygons, and placement curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


class Vec2(NamedTuple):
    x: float
    y: float

    def __add__(self, other):
        return Vec2(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return Vec2(self.x - other[0], self.y - other[1])

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def is_finite(self) -> bool:
        return math.isfinite(self.x) and math.isfinite(self.y)


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi). Idempotent."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # fmod noise at the boundary
        theta -= TWO_PI
    return theta


def wrap_angle(delta: float) -> float:
    """Map a signed angular difference to (-pi, pi].

    An exact half-turn maps to +pi, so antipodal corrections rotate in the
    positive direction.
    """
    delta = math.fmod(delta, TWO_PI)
    if delta > math.pi:
        delta -= TWO_PI
    elif delta <= -math.pi:
        delta += TWO_PI
    return delta


def math_map(f: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """``f`` of ``math`` applied element by element to float arrays of one
    length. numpy's own ``hypot`` and ``arctan2`` differ from ``math``'s
    in the last bit of some results, and its ``cos`` and ``sin`` may on
    some builds, so array code that must reproduce scalar code calls
    ``math`` through this."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), float, len(columns[0]))


def wrap_angles(delta: np.ndarray) -> np.ndarray:
    """``wrap_angle`` element by element, with the same bits."""
    delta = np.fmod(delta, TWO_PI)
    return np.where(delta > math.pi, delta - TWO_PI,
                    np.where(delta <= -math.pi, delta + TWO_PI, delta))


def stable_radians(degrees: float) -> float:
    """Convert degrees to radians, settled on a fixed point of the
    radians -> degrees -> radians round trip.

    Scene files store angles in degrees; settling here makes
    serialize/parse cycles reproduce orientations bit-for-bit.
    """
    rad = math.radians(degrees)
    for _ in range(4):
        again = math.radians(math.degrees(rad))
        if again == rad:
            break
        rad = again
    return rad


def polygon_signed_area(vertices: list[Vec2]) -> float:
    area = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        area += x0 * y1 - x1 * y0
    return 0.5 * area


def polygon_centroid(vertices: list[Vec2]) -> Vec2:
    """Area centroid of a simple polygon."""
    cx = cy = 0.0
    signed = 0.0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        signed += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    if abs(signed) < 1e-12:
        return Vec2(
            sum(v.x for v in vertices) / n,
            sum(v.y for v in vertices) / n,
        )
    return Vec2(cx / (3.0 * signed), cy / (3.0 * signed))


def point_in_polygon(vertices: list[Vec2], p) -> bool:
    """Ray-casting containment test. Points within ~1e-12 of the boundary
    may land on either side; callers treat that band as contact."""
    px, py = p[0], p[1]
    inside = False
    n = len(vertices)
    x1, y1 = vertices[-1]
    for i in range(n):
        x0, y0 = x1, y1
        x1, y1 = vertices[i]
        if (y0 > py) != (y1 > py):
            if px < x0 + (py - y0) * (x1 - x0) / (y1 - y0):
                inside = not inside
    return inside


def _side(p, q, r) -> int:
    """-1, 0 or 1 as r lies right of, on or left of the line pq: a sign,
    since a product of two tiny cross products can underflow to 0."""
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (cross > 0.0) - (cross < 0.0)


def _within(p, q, r) -> bool:
    """Whether r, on the line pq, lies on the segment pq."""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def _segments_meet(a, b, c, d) -> bool:
    """Whether the closed segments ab and cd share a point: they cross,
    or an endpoint of one lies on the other."""
    s1, s2, s3, s4 = _side(a, b, c), _side(a, b, d), _side(c, d, a), _side(c, d, b)
    return (s1 * s2 < 0 and s3 * s4 < 0
            or s1 == 0 and _within(a, b, c) or s2 == 0 and _within(a, b, d)
            or s3 == 0 and _within(c, d, a) or s4 == 0 and _within(c, d, b))


def polygon_is_simple(vertices: list[Vec2]) -> bool:
    """True when the boundary neither crosses nor touches itself: no two
    non-adjacent edges share a point, and no edge folds back along the
    one before it. A vertex in the middle of a straight wall is allowed.
    O(n^2); rooms are small."""
    n = len(vertices)
    if n < 3:
        return False
    for i in range(n):
        a, b, c = vertices[i - 1], vertices[i], vertices[(i + 1) % n]
        along = (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1])
        if _side(a, b, c) == 0 and along < 0.0:
            return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        # edges i + 1 and i - 1 share a vertex with edge i
        for j in range(i + 2, n if i else n - 1):
            if _segments_meet(*edges[i], *edges[j]):
                return False
    return True


@dataclass(frozen=True)
class Curve:
    """Placement curve: a line segment, or a circular arc when it has a
    ``center``.

    Segments run from ``a`` to ``b``. Arcs sweep counterclockwise around
    ``center`` from ``a`` to ``b``; both endpoints must lie at the same
    radius (within 1e-6).
    """

    a: Vec2
    b: Vec2
    center: Vec2 | None = None

    def validate(self) -> None:
        if self.center is None:
            if (self.b - self.a).norm() <= 0.0:
                raise ValueError("segment curve has zero length")
        else:
            ra = (self.a - self.center).norm()
            rb = (self.b - self.center).norm()
            if abs(ra - rb) > 1e-6:
                raise ValueError(f"arc endpoints at different radii: {ra} vs {rb}")
            if ra <= 0.0:
                raise ValueError("arc has zero radius")

    @cached_property
    def _arc_angles(self) -> tuple[float, float, float]:
        """(start angle, sweep in (0, 2*pi], radius), computed once per
        curve."""
        cx, cy = self.center
        a0 = math.atan2(self.a.y - cy, self.a.x - cx)
        a1 = math.atan2(self.b.y - cy, self.b.x - cx)
        sweep = a1 - a0
        while sweep <= 0.0:
            sweep += TWO_PI
        return a0, sweep, (self.a - self.center).norm()

    def point_at(self, t: float) -> Vec2:
        t = min(1.0, max(0.0, t))
        if self.center is None:
            return Vec2(
                self.a.x + t * (self.b.x - self.a.x),
                self.a.y + t * (self.b.y - self.a.y),
            )
        a0, sweep, radius = self._arc_angles
        ang = a0 + t * sweep
        cx, cy = self.center
        return Vec2(cx + radius * math.cos(ang), cy + radius * math.sin(ang))

    def length(self) -> float:
        if self.center is None:
            return (self.b - self.a).norm()
        _, sweep, radius = self._arc_angles
        return sweep * radius

    def transformed(self, origin: Vec2, theta: float) -> "Curve":
        """Curve rotated by theta then translated by origin."""
        c, s = math.cos(theta), math.sin(theta)

        def xf(p: Vec2) -> Vec2:
            return Vec2(origin.x + c * p.x - s * p.y, origin.y + s * p.x + c * p.y)

        return Curve(
            xf(self.a),
            xf(self.b),
            xf(self.center) if self.center is not None else None,
        )


def closest_point_on_curve(curve: Curve, p) -> tuple[float, float]:
    """Euclidean closest point to p on a curve, as an (x, y) pair.

    Segment feet clamp to the endpoints. For arcs the point is
    constrained to the swept span; positions whose nearest circle point
    falls outside the span clamp to the nearer endpoint.
    """
    ax, ay = curve.a
    if curve.center is None:
        abx = curve.b.x - ax
        aby = curve.b.y - ay
        denom = abx * abx + aby * aby
        if denom <= 0.0:  # a nonzero length whose square underflows
            return ax, ay
        t = ((p[0] - ax) * abx + (p[1] - ay) * aby) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        return ax + t * abx, ay + t * aby

    a0, sweep, radius = curve._arc_angles
    cx, cy = curve.center
    ang = math.atan2(p[1] - cy, p[0] - cx)
    rel = ang - a0
    while rel < 0.0:
        rel += TWO_PI
    if rel <= sweep:
        return cx + radius * math.cos(ang), cy + radius * math.sin(ang)
    # off-span: nearer endpoint wins
    bx, by = curve.b
    if math.hypot(p[0] - ax, p[1] - ay) <= math.hypot(p[0] - bx, p[1] - by):
        return ax, ay
    return bx, by


def closest_points_on_curves(
    curves: list[Curve], which: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``closest_point_on_curve(curves[w], (x, y))`` for each w, x and y
    of ``which``, ``xs`` and ``ys``, as two arrays with the same bits."""
    n = len(which)
    # one row per curve: a, b, then the arc's centre, start, sweep and
    # radius, which are NaN on a segment
    rows = []
    for c in curves:
        if c.center is None:
            rows.append((*c.a, *c.b) + (math.nan,) * 5)
        else:
            rows.append((*c.a, *c.b, *c.center, *c._arc_angles))
    ax, ay, bx, by, cx, cy, a0, sweep, radius = np.array(rows)[which].T
    qx, qy = np.empty(n), np.empty(n)

    on_segment = np.isnan(cx)
    seg = on_segment.nonzero()[0]
    if seg.size:
        sax, say = ax[seg], ay[seg]
        abx, aby = bx[seg] - sax, by[seg] - say
        denom = abx * abx + aby * aby
        # a nonzero length whose square underflows keeps its start
        short = denom <= 0.0
        t = ((xs[seg] - sax) * abx + (ys[seg] - say) * aby) / np.where(short, 1.0, denom)
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        qx[seg] = np.where(short, sax, sax + t * abx)
        qy[seg] = np.where(short, say, say + t * aby)

    arc = (~on_segment).nonzero()[0]
    if arc.size:
        px, py, acx, acy = xs[arc], ys[arc], cx[arc], cy[arc]
        ang = math_map(math.atan2, py - acy, px - acx)
        rel = ang - a0[arc]
        low = rel < 0.0
        while low.any():
            rel = np.where(low, rel + TWO_PI, rel)
            low = rel < 0.0
        on = rel <= sweep[arc]
        inside, outside = arc[on], arc[~on]
        r = radius[inside]
        qx[inside] = acx[on] + r * math_map(math.cos, ang[on])
        qy[inside] = acy[on] + r * math_map(math.sin, ang[on])
        # off-span: nearer endpoint wins
        px, py = xs[outside], ys[outside]
        near_a = (math_map(math.hypot, px - ax[outside], py - ay[outside])
                  <= math_map(math.hypot, px - bx[outside], py - by[outside]))
        qx[outside] = np.where(near_a, ax[outside], bx[outside])
        qy[outside] = np.where(near_a, ay[outside], by[outside])
    return qx, qy
