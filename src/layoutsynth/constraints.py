"""Constraint records and their pure projection operations.

Each projection maps current particle states to a small list of
corrections; it never mutates anything. Positional projections leave
orientations alone and angular ones leave positions alone, so the solver
can apply corrections in any interleaving.

Conventions shared by every projection:

* a particle with zero inverse mass never receives a correction;
* equality constraints are fully satisfied by one projection at
  stiffness 1 whenever at least one participant is free;
* inequality constraints use the ``C >= 0`` form and return no
  corrections while satisfied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

from .geometry import Vec2, wrap_angle
from .model import Room, nearest_wall_point

log = logging.getLogger(__name__)

EQUALITY = "equality"
INEQUALITY = "inequality"

DECREASING = "decreasing"
INCREASING = "increasing"
CONSTANT = "constant"

# constraint kinds
PAIRWISE_DISTANCE = "pairwise_distance"
FOCAL_POINT = "focal_point"
TRAFFIC_LANE = "traffic_lane"
HEAT_POINT = "heat_point"
FOCAL_SYMMETRY = "focal_symmetry"
VISUAL_BALANCE = "visual_balance"
WALL_DISTANCE = "wall_distance"
ACCESSIBILITY = "accessibility"
COLLISION = "collision"
WALL_GHOST_COLLISION = "wall_ghost_collision"
PAIRWISE_ORIENTATION = "pairwise_orientation"
WALL_ORIENTATION = "wall_orientation"
STACKING = "stacking"
BOUNDARY = "boundary"
GROUP_CURVE = "group_curve"

KINDS = (
    PAIRWISE_DISTANCE,
    FOCAL_POINT,
    TRAFFIC_LANE,
    HEAT_POINT,
    FOCAL_SYMMETRY,
    VISUAL_BALANCE,
    WALL_DISTANCE,
    ACCESSIBILITY,
    COLLISION,
    WALL_GHOST_COLLISION,
    PAIRWISE_ORIENTATION,
    WALL_ORIENTATION,
    STACKING,
    BOUNDARY,
    GROUP_CURVE,
)

# orientation target modes
ORIENT_FACE = "face"            # theta' = bearing toward the other participant
ORIENT_MATCH = "match"          # theta' = other participant's orientation + offset
ORIENT_FIXED = "fixed"          # theta' given explicitly

# lower clamp for the increasing schedule so clearance constraints are
# never entirely ignored in the first iterations
INCREASING_FLOOR = 0.05

_EPS = 1e-9


class Correction(NamedTuple):
    """One particle's pose delta produced by a single projection."""

    particle: int
    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    dtheta: float = 0.0


# default (weight, schedule, k0, rate) per kind; clearance-style kinds
# stiffen over the iterations, attractive ones relax, hard ones stay at 1
DEFAULT_WEIGHTS = {
    COLLISION: 150.0,
    ACCESSIBILITY: 150.0,
    BOUNDARY: 150.0,
    WALL_DISTANCE: 20.0,
    WALL_ORIENTATION: 20.0,
}

DEFAULT_SCHEDULES = {
    PAIRWISE_DISTANCE: (DECREASING, 0.9, 10.0),
    FOCAL_POINT: (DECREASING, 0.9, 10.0),
    HEAT_POINT: (DECREASING, 0.9, 10.0),
    FOCAL_SYMMETRY: (DECREASING, 0.9, 10.0),
    VISUAL_BALANCE: (DECREASING, 0.9, 10.0),
    PAIRWISE_ORIENTATION: (DECREASING, 0.9, 10.0),
    GROUP_CURVE: (DECREASING, 0.9, 10.0),
    TRAFFIC_LANE: (INCREASING, 0.9, 10.0),
    COLLISION: (INCREASING, 0.9, 10.0),
    ACCESSIBILITY: (INCREASING, 0.9, 10.0),
    WALL_DISTANCE: (CONSTANT, 1.0, 1.0),
    WALL_ORIENTATION: (CONSTANT, 1.0, 1.0),
    STACKING: (CONSTANT, 1.0, 1.0),
    BOUNDARY: (CONSTANT, 1.0, 1.0),
    WALL_GHOST_COLLISION: (INCREASING, 0.9, 10.0),
}


# fixed participant counts; n-ary kinds are absent
_ARITY = {
    PAIRWISE_DISTANCE: 2,
    FOCAL_POINT: 2,
    TRAFFIC_LANE: 2,
    WALL_DISTANCE: 1,
    ACCESSIBILITY: 2,
    COLLISION: 2,
    WALL_GHOST_COLLISION: 2,
    PAIRWISE_ORIENTATION: 2,
    WALL_ORIENTATION: 1,
    STACKING: 2,
    BOUNDARY: 1,
    GROUP_CURVE: 2,
}


@dataclass
class Constraint:
    """One constraint instance over scene particles.

    Kind-specific targets live in the optional fields; unused ones stay
    None. ``stiffness`` is the live value the solver updates every
    iteration from the schedule.

    Participant conventions: focal-point and traffic-lane constraints
    list (member, focal); focal symmetry lists (focal, members...);
    stacking lists (bottom, top); accessibility lists (intruder, owner)
    with ``face`` naming the owner's zone; group-curve lists
    (member, group particle).
    """

    kind: str
    particles: tuple[int, ...]
    relation: str = EQUALITY
    distance: Optional[float] = None
    point: Optional[Vec2] = None
    vector: Optional[Vec2] = None
    angle_offset: float = 0.0
    orientation_mode: Optional[str] = None
    angle_target: Optional[float] = None
    height_gap: Optional[float] = None
    face: Optional[int] = None
    group_id: Optional[str] = None
    pin_focal: bool = True
    weight: float = 1.0
    schedule: str = CONSTANT
    stiffness_initial: float = 1.0
    rate: float = 1.0
    stiffness: float = field(default=-1.0)

    def __post_init__(self):
        if self.stiffness < 0.0:
            self.stiffness = self.stiffness_initial

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.relation not in (EQUALITY, INEQUALITY):
            raise ValueError(f"unknown relation {self.relation!r}")
        if self.schedule not in (DECREASING, INCREASING, CONSTANT):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not (0.0 <= self.stiffness_initial <= 1.0 and 0.0 <= self.stiffness <= 1.0):
            raise ValueError("stiffness must stay within [0, 1]")
        if self.rate < 1.0:
            raise ValueError("schedule rate must be >= 1")
        if not self.weight > 0.0:
            raise ValueError("energy weight must be positive")
        expected = _ARITY.get(self.kind)
        if expected is not None and len(self.particles) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} participants, got {len(self.particles)}"
            )
        if self.kind in (TRAFFIC_LANE, FOCAL_SYMMETRY):
            if self.vector is None or self.vector.norm() <= 0.0:
                raise ValueError(f"{self.kind} needs a nonzero vector")
        if self.kind == HEAT_POINT and self.point is None and len(self.particles) < 2:
            raise ValueError("heat point needs a target point or an anchor participant")
        if self.kind == FOCAL_SYMMETRY and len(self.particles) < 2:
            raise ValueError("focal symmetry needs a focal and at least one member")
        if self.kind in (PAIRWISE_DISTANCE, FOCAL_POINT, WALL_DISTANCE, TRAFFIC_LANE):
            if self.distance is None or self.distance < 0.0:
                raise ValueError(f"{self.kind} needs a nonnegative distance")
        if self.kind == STACKING and (self.height_gap is None or self.height_gap < 0.0):
            raise ValueError("stacking needs a nonnegative height gap")
        if self.kind == PAIRWISE_ORIENTATION:
            if self.orientation_mode not in (ORIENT_FACE, ORIENT_MATCH, ORIENT_FIXED):
                raise ValueError(f"unknown orientation mode {self.orientation_mode!r}")
            if self.orientation_mode == ORIENT_FIXED and self.angle_target is None:
                raise ValueError("fixed orientation needs an angle target")
        if self.kind == ACCESSIBILITY and self.face not in (1, 2, 3, 4):
            raise ValueError("accessibility needs a face index in 1..4")

    def copy(self) -> "Constraint":
        return replace(self)


def make_constraint(kind: str, particles: tuple[int, ...], **kw) -> Constraint:
    """Constraint with per-kind default weight, schedule, and relation."""
    schedule, k0, rate = DEFAULT_SCHEDULES[kind]
    defaults = dict(
        weight=DEFAULT_WEIGHTS.get(kind, 1.0),
        schedule=schedule,
        stiffness_initial=k0,
        rate=rate,
    )
    if kind in (TRAFFIC_LANE, COLLISION, ACCESSIBILITY, WALL_GHOST_COLLISION):
        defaults["relation"] = INEQUALITY
    defaults.update(kw)
    return Constraint(kind=kind, particles=tuple(particles), **defaults)


def update_stiffness(constraint: Constraint, iteration: int) -> float:
    """Stiffness for the given 1-based solver iteration.

    Decreasing schedules run 1-(1-k0)^(M/l), which starts near 1 and
    decays toward 0; increasing schedules use the complement, rising from
    near 0 toward 1 (never below INCREASING_FLOOR); constant schedules
    stay at k0.
    """
    if iteration < 1:
        raise ValueError("iterations are 1-based")
    k0 = constraint.stiffness_initial
    if constraint.schedule == CONSTANT:
        return k0
    base = (1.0 - k0) ** (constraint.rate / iteration)
    if constraint.schedule == DECREASING:
        return min(1.0, max(0.0, 1.0 - base))
    return min(1.0, max(INCREASING_FLOOR, base))


def scale_factor(C: float, gradients: list[tuple[float, tuple[float, float]]], k: float) -> float:
    """Common scale s of a first-order projection.

    ``gradients`` pairs each participant's inverse mass with its
    constraint gradient. The per-particle correction is
    ``-s * w_i * grad_i``; the inverse mass is folded in per particle,
    not in s, which reproduces the classic two-body distance split.
    """
    denom = 0.0
    for w, (gx, gy) in gradients:
        denom += w * (gx * gx + gy * gy)
    if denom <= _EPS * _EPS:
        return 0.0
    return k * C / denom


TieBreak = Optional[Callable[[], tuple[float, float]]]


def _tiebreak_dir(tiebreak: TieBreak) -> tuple[float, float]:
    if tiebreak is None:
        return 1.0, 0.0
    return tiebreak()


def _distance_corrections(
    i: int,
    j: int,
    pi,
    pj,
    wi: float,
    wj: float,
    d: float,
    k: float,
    relation: str,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Two-body distance projection core shared by several kinds."""
    wsum = wi + wj
    if wsum <= 0.0 or k == 0.0:
        return []
    dx = pi[0] - pj[0]
    dy = pi[1] - pj[1]
    dist = math.hypot(dx, dy)
    if dist < _EPS:
        if relation == INEQUALITY and d <= 0.0:
            return []
        nx, ny = _tiebreak_dir(tiebreak)
        C = -d
    else:
        nx, ny = dx / dist, dy / dist
        C = dist - d
    # the slack absorbs float noise so satisfied contacts stay quiet
    if relation == INEQUALITY and C >= -1e-12:
        return []
    if C == 0.0:
        return []
    s = k * C / wsum
    out = []
    if wi > 0.0:
        out.append(Correction(i, -s * wi * nx, -s * wi * ny))
    if wj > 0.0:
        out.append(Correction(j, s * wj * nx, s * wj * ny))
    return out


def project_pairwise_distance(
    i: int,
    j: int,
    pi,
    pj,
    wi: float,
    wj: float,
    d: float,
    k: float,
    relation: str = EQUALITY,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Hold particles i and j at (equality) or beyond (inequality)
    distance d, splitting the correction by inverse mass."""
    return _distance_corrections(i, j, pi, pj, wi, wj, d, k, relation, tiebreak)


def project_focal_point(
    member: int,
    focal: int,
    p_member,
    p_focal,
    w_member: float,
    w_focal: float,
    d: float,
    k: float,
    relation: str = EQUALITY,
    pin_focal: bool = True,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Keep a member at distance d from a focal object. With
    ``pin_focal`` the focal behaves as an infinite-mass anchor."""
    wf = 0.0 if pin_focal else w_focal
    return _distance_corrections(member, focal, p_member, p_focal, w_member, wf, d, k, relation, tiebreak)


def lane_projection_point(pj, v: Vec2, pi) -> tuple[float, float]:
    """Point on the lane axis (through pj along v) nearest to pi."""
    vx, vy = v
    t = ((pi[0] - pj[0]) * vx + (pi[1] - pj[1]) * vy) / (vx * vx + vy * vy)
    return pj[0] + t * vx, pj[1] + t * vy


def project_traffic_lane(
    i: int,
    j: int,
    pi,
    pj,
    wi: float,
    wj: float,
    v: Vec2,
    d: float,
    k: float,
) -> list[Correction]:
    """Clearance corridor around the axis from particle j along v.

    The axis-projection point acts as a ghost rigidly attached to j: its
    share of the correction moves j. Inactive while the perpendicular
    distance is at least d.
    """
    qx, qy = lane_projection_point(pj, v, pi)
    dx = pi[0] - qx
    dy = pi[1] - qy
    dist = math.hypot(dx, dy)
    if dist >= d:
        return []
    if dist < _EPS:
        # on the axis: push left of v
        norm = v.norm()
        nx, ny = -v.y / norm, v.x / norm
    else:
        nx, ny = dx / dist, dy / dist
    wsum = wi + wj
    if wsum <= 0.0 or k == 0.0:
        return []
    C = dist - d
    s = k * C / wsum
    out = []
    if wi > 0.0:
        out.append(Correction(i, -s * wi * nx, -s * wi * ny))
    if wj > 0.0:
        out.append(Correction(j, s * wj * nx, s * wj * ny))
    return out


def weighted_center(indices, px, py, weights) -> tuple[float, float, float]:
    """(cx, cy, total weight) of the weighted particle positions."""
    total = 0.0
    cx = cy = 0.0
    for idx in indices:
        u = weights[idx]
        total += u
        cx += u * px[idx]
        cy += u * py[idx]
    return cx / total, cy / total, total


def center_target_gradient(u: float, total: float, center, target) -> tuple[float, float]:
    """Gradient of C = 0.5*|center - target|^2 for a participant of
    weight u: (u / total) * (center - target)."""
    f = u / total
    return f * (center[0] - target[0]), f * (center[1] - target[1])


def _project_center_to_target(
    indices,
    px,
    py,
    weights,
    inv_masses,
    target,
    k: float,
) -> list[Correction]:
    """Move the weighted center of the participants toward the target.

    The step is the exact closed form: at k=1 the new weighted center
    equals the target; at k<1 it travels fraction k of the way.
    """
    if k == 0.0:
        return []
    cx, cy, total = weighted_center(indices, px, py, weights)
    rx, ry = cx - target[0], cy - target[1]
    if rx * rx + ry * ry <= _EPS * _EPS:
        return []
    denom = 0.0
    for idx in indices:
        u = weights[idx]
        denom += u * u * inv_masses[idx]
    if denom <= 0.0:
        return []
    out = []
    for idx in indices:
        w = inv_masses[idx]
        if w <= 0.0:
            continue
        f = k * total * w * weights[idx] / denom
        out.append(Correction(idx, -f * rx, -f * ry))
    return out


def project_heat_point(
    indices,
    px,
    py,
    masses,
    inv_masses,
    target,
    k: float,
) -> list[Correction]:
    """Pull the mass-weighted center of the participants to the target."""
    return _project_center_to_target(indices, px, py, masses, inv_masses, target, k)


def project_focal_symmetry(
    indices,
    px,
    py,
    masses,
    inv_masses,
    focal,
    v: Vec2,
    k: float,
) -> list[Correction]:
    """Center the participants' center of mass on the ray from the focal
    point along v (the moving target is the center's own projection)."""
    cx, cy, _ = weighted_center(indices, px, py, masses)
    vx, vy = v
    t = ((cx - focal[0]) * vx + (cy - focal[1]) * vy) / (vx * vx + vy * vy)
    if t < 0.0:
        t = 0.0
    target = (focal[0] + t * vx, focal[1] + t * vy)
    return _project_center_to_target(indices, px, py, masses, inv_masses, target, k)


def project_visual_balance(
    indices,
    px,
    py,
    visual_weights,
    inv_masses,
    room_centroid,
    k: float,
) -> list[Correction]:
    """Pull the visual-weight-weighted center to the room centroid.

    Visual weights are the objects' ground-plane footprint areas; the
    centroid itself is a zero-inverse-mass anchor.
    """
    return _project_center_to_target(indices, px, py, visual_weights, inv_masses, room_centroid, k)


def project_wall_distance(
    i: int,
    pi,
    wi: float,
    room: Room,
    d: float,
    k: float,
    relation: str = EQUALITY,
) -> list[Correction]:
    """Hold particle i at (or beyond) distance d from the nearest wall.

    The wall point is a fixed anchor, so only the particle moves.
    """
    if wi <= 0.0 or k == 0.0:
        return []
    q, normal, _ = nearest_wall_point(room, pi)
    dx = pi[0] - q.x
    dy = pi[1] - q.y
    dist = math.hypot(dx, dy)
    if dist < _EPS:
        nx, ny = normal
    else:
        nx, ny = dx / dist, dy / dist
    C = dist - d
    if relation == INEQUALITY and C >= 0.0:
        return []
    if C == 0.0:
        return []
    return [Correction(i, -k * C * nx, -k * C * ny)]


def access_zone_active(pi, r_i: float, center, half_side: float, theta_j: float) -> bool:
    """Circle (pi, r_i) versus the oriented clearance square of an
    accessibility zone."""
    c, s = math.cos(theta_j), math.sin(theta_j)
    relx = pi[0] - center[0]
    rely = pi[1] - center[1]
    # into the square's frame
    lx = c * relx + s * rely
    ly = -s * relx + c * rely
    qx = min(half_side, max(-half_side, lx))
    qy = min(half_side, max(-half_side, ly))
    return math.hypot(lx - qx, ly - qy) <= r_i


def project_accessibility(
    i: int,
    j: int,
    pi,
    wi: float,
    wj: float,
    access_center,
    theta_j: float,
    access_diagonal: float,
    b_i: float,
    r_i: float,
    k: float,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Keep object i out of one accessibility zone of object j.

    Active only when i's bounding circle overlaps the zone's clearance
    square; the required separation from the zone center is i's footprint
    diagonal plus the zone diagonal. The zone center is a ghost rigidly
    attached to j, so its share of the correction translates j.
    """
    if access_diagonal <= 0.0:
        return []
    half_side = access_diagonal / (2.0 * math.sqrt(2.0))
    if not access_zone_active(pi, r_i, access_center, half_side, theta_j):
        return []
    d = b_i + access_diagonal
    return _distance_corrections(i, j, pi, access_center, wi, wj, d, k, INEQUALITY, tiebreak)


def project_collision(
    i: int,
    j: int,
    pi,
    pj,
    wi: float,
    wj: float,
    r_i: float,
    r_j: float,
    k: float,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Separate overlapping bounding circles along their center line."""
    return _distance_corrections(i, j, pi, pj, wi, wj, r_i + r_j, k, INEQUALITY, tiebreak)


def project_wall_ghost_collision(
    i: int,
    j: int,
    wall_point_i,
    wall_point_j,
    wi: float,
    wj: float,
    r_i: float,
    r_j: float,
    k: float,
    tiebreak: TieBreak = None,
) -> list[Correction]:
    """Extra separation between the nearest-wall ghost points of two
    colliding, wall-constrained objects; it slides the hosts apart along
    the wall instead of pushing them off it."""
    return _distance_corrections(
        i, j, wall_point_i, wall_point_j, wi, wj, r_i + r_j, k, INEQUALITY, tiebreak
    )


def project_pairwise_orientation(
    i: int,
    j: int,
    theta_i: float,
    target_i: Optional[float],
    theta_j: float,
    target_j: Optional[float],
    wi: float,
    wj: float,
    k: float,
) -> list[Correction]:
    """Rotate each participant toward its own target by the smallest
    angular difference, scaled by k. Positions are untouched. A None
    target leaves that participant alone."""
    out = []
    if k == 0.0:
        return out
    if target_i is not None and wi > 0.0:
        delta = wrap_angle(target_i - theta_i)
        if delta != 0.0:
            out.append(Correction(i, dtheta=k * delta))
    if target_j is not None and wj > 0.0:
        delta = wrap_angle(target_j - theta_j)
        if delta != 0.0:
            out.append(Correction(j, dtheta=k * delta))
    return out


def wall_orientation_target(room: Room, pi, theta_i: float, offset: float) -> float:
    """Desired orientation against the nearest wall: tangent plus offset,
    or its half-turn twin, whichever is the smaller rotation away."""
    _, _, tangent = nearest_wall_point(room, pi)
    base = tangent + offset
    twin = base + math.pi
    if abs(wrap_angle(base - theta_i)) <= abs(wrap_angle(twin - theta_i)):
        return base
    return twin


def project_wall_orientation(
    i: int,
    theta_i: float,
    pi,
    wi: float,
    room: Room,
    offset: float,
    k: float,
) -> list[Correction]:
    """Align particle i with the nearest wall (offset 0 is parallel,
    pi/2 is perpendicular to it)."""
    if wi <= 0.0 or k == 0.0:
        return []
    target = wall_orientation_target(room, pi, theta_i, offset)
    delta = wrap_angle(target - theta_i)
    if delta == 0.0:
        return []
    return [Correction(i, dtheta=k * delta)]


def project_stacking(
    bottom: int,
    top: int,
    p_bottom,
    p_top,
    z_bottom: float,
    z_top: float,
    w_bottom: float,
    w_top: float,
    height_gap: float,
    k: float,
) -> list[Correction]:
    """Stack ``top`` onto ``bottom``: the vertical gap between centers
    equals half the summed heights, and the ground-plane coordinates
    coincide. Both parts split by inverse mass."""
    wsum = w_bottom + w_top
    if wsum <= 0.0 or k == 0.0:
        return []
    Cz = z_top - (z_bottom + height_gap)
    ex = p_top[0] - p_bottom[0]
    ey = p_top[1] - p_bottom[1]
    if Cz == 0.0 and ex == 0.0 and ey == 0.0:
        return []
    s = k / wsum
    out = []
    if w_top > 0.0:
        out.append(Correction(top, -s * w_top * ex, -s * w_top * ey, -s * w_top * Cz))
    if w_bottom > 0.0:
        out.append(Correction(bottom, s * w_bottom * ex, s * w_bottom * ey, s * w_bottom * Cz))
    return out


def boundary_violation(room: Room, p, radius: float) -> float:
    """How far the bounding circle pokes outside the room; 0 if contained."""
    px, py = p[0], p[1]
    best = math.inf
    for ax, ay, dx, dy, inv_len2, _, _, _ in room._wall_data:
        t = ((px - ax) * dx + (py - ay) * dy) * inv_len2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = px - (ax + t * dx)
        ey = py - (ay + t * dy)
        d2 = ex * ex + ey * ey
        if d2 < best:
            best = d2
    d = math.sqrt(best)
    clearance = d if room.contains(p) else -d
    return max(0.0, radius - clearance)


def project_boundary(
    i: int,
    pi,
    wi: float,
    radius: float,
    room: Room,
    k: float = 1.0,
) -> list[Correction]:
    """Push particle i inward so its bounding circle sits inside the room.

    Iterates per-wall clamps until contained. If the room genuinely
    cannot contain the circle, the particle is clamped to the centroid
    and a warning is logged.
    """
    if wi <= 0.0 or k == 0.0:
        return []
    if room._rect is not None:
        # deep inside a rectangle the nearest wall is the nearest side,
        # so the circle is contained without measuring every wall
        x0, y0, x1, y1 = room._rect
        x, y = pi[0], pi[1]
        if min(x - x0, x1 - x, y - y0, y1 - y) > radius + 1e-9:
            return []
    if boundary_violation(room, pi, radius) <= 1e-12:
        return []
    x, y = pi[0], pi[1]
    for _ in range(16):
        changed = False
        if not room.contains((x, y)):
            q, normal, _ = nearest_wall_point(room, (x, y))
            x = q.x + normal.x * radius
            y = q.y + normal.y * radius
            changed = True
        for ax, ay, wdx, wdy, inv_len2, wnx, wny, _ in room._wall_data:
            t = ((x - ax) * wdx + (y - ay) * wdy) * inv_len2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            qx = ax + t * wdx
            qy = ay + t * wdy
            dx = x - qx
            dy = y - qy
            dist = math.hypot(dx, dy)
            if dist < radius - 1e-12:
                if dist > _EPS:
                    nx, ny = dx / dist, dy / dist
                else:
                    nx, ny = wnx, wny
                x = qx + nx * radius
                y = qy + ny * radius
                changed = True
        if not changed:
            break
    if boundary_violation(room, (x, y), radius) > 1e-9:
        log.warning("room cannot contain a circle of radius %.3g; clamping to centroid", radius)
        x, y = room.centroid
    dx = (x - pi[0]) * k
    dy = (y - pi[1]) * k
    if dx == 0.0 and dy == 0.0:
        return []
    return [Correction(i, dx, dy)]
