"""Constraint records, the kind registry and the pure projections.

Each projection maps current particle states to a small list of
corrections; it never mutates anything. Positional projections leave
orientations alone and angular ones leave positions alone, so the solver
can apply corrections in any interleaving.

Every constraint kind is described once, by the ``KindSpec`` registered
next to its projection in ``SPECS``: arity, default weight and stiffness
schedule, the relations its projection and its pricing agree on, its
extra validation, ``project(c, st, ctx, k, tiebreak)`` and
``violation(c, st, ctx)``. ``KINDS`` is the registry's order. The two
record functions read the solver's pose state ``st`` and its per-run
context ``ctx`` by attribute, and call the ``project_*`` functions
through this module's globals, so a wrapper installed on the module is
seen at call time. A projection runs at the stiffness ``k`` its caller
passes: the solver evaluates the constraint's schedule for the
iteration, and nothing writes that value onto the constraint.

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
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from .geometry import Vec2, closest_point_on_curve, wrap_angle
from .model import Room, nearest_wall_point

log = logging.getLogger(__name__)

EQUALITY = "equality"
INEQUALITY = "inequality"

DECREASING = "decreasing"
INCREASING = "increasing"
CONSTANT = "constant"

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


@dataclass
class Constraint:
    """One constraint instance over scene particles.

    Kind-specific targets live in the optional fields; unused ones stay
    None. ``schedule``, ``stiffness_initial`` and ``rate`` describe the
    stiffness schedule (see ``update_stiffness``); the solver evaluates
    it per iteration and passes the value to the projection.

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

    def validate(self) -> None:
        spec = SPECS.get(self.kind)
        if spec is None:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.relation not in spec.relations:
            raise ValueError(
                f"{self.kind} takes the relation {' or '.join(spec.relations)}, "
                f"not {self.relation!r}"
            )
        if self.schedule not in (DECREASING, INCREASING, CONSTANT):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0.0 <= self.stiffness_initial <= 1.0:
            raise ValueError("stiffness must stay within [0, 1]")
        if self.rate < 1.0:
            raise ValueError("schedule rate must be >= 1")
        if not self.weight > 0.0:
            raise ValueError("energy weight must be positive")
        if spec.arity is not None and len(self.particles) != spec.arity:
            raise ValueError(
                f"{self.kind} takes {spec.arity} participants, got {len(self.particles)}"
            )
        for check in spec.checks:
            check(self)

    def copy(self) -> "Constraint":
        return replace(self)


@dataclass(frozen=True)
class KindSpec:
    """Everything the solver knows about one constraint kind.

    ``relations`` lists the relations under which the projection and the
    pricing agree, the default first; ``arity`` is None for n-ary kinds;
    ``schedule``, ``stiffness_initial`` and ``rate`` are the default
    stiffness schedule; ``checks`` raise ValueError on a malformed
    constraint. ``project(c, st, ctx, k, tiebreak)`` returns the
    corrections of constraint ``c`` at stiffness ``k``.
    """

    project: Callable[..., list]
    violation: Callable[..., float]
    arity: Optional[int]
    weight: float
    schedule: str
    stiffness_initial: float
    rate: float
    relations: tuple[str, ...]
    checks: tuple[Callable[[Constraint], None], ...]


# kind name -> spec, in registration order; KINDS (end of module) is
# its key order, which fixes the authored interleaving and the trace
# columns
SPECS: dict[str, KindSpec] = {}

# attractive kinds relax over the iterations, clearance kinds stiffen,
# hard ones stay at full stiffness
_RELAX = (DECREASING, 0.9, 10.0)
_STIFFEN = (INCREASING, 0.9, 10.0)
_HARD = (CONSTANT, 1.0, 1.0)
_EITHER = (EQUALITY, INEQUALITY)


def _kind(name, project, violation, *, schedule, arity=2, weight=1.0,
          relations=(EQUALITY,), checks=()) -> str:
    SPECS[name] = KindSpec(project, violation, arity, weight, *schedule, relations, checks)
    return name


def _priced(c: Constraint, C: float) -> float:
    """Violation of a kind whose projection honours either relation."""
    if c.relation == INEQUALITY:
        return max(0.0, -C)
    return abs(C)


def _unpriced(c, st, ctx) -> float:
    """Authored contact kinds: the generated contacts price the same
    overlap, so the authored copy adds nothing."""
    return 0.0


def _needs_distance(c: Constraint) -> None:
    if c.distance is None or c.distance < 0.0:
        raise ValueError(f"{c.kind} needs a nonnegative distance")


def _needs_vector(c: Constraint) -> None:
    if c.vector is None or c.vector.norm() <= 0.0:
        raise ValueError(f"{c.kind} needs a nonzero vector")


def make_constraint(kind: str, particles: tuple[int, ...], **kw) -> Constraint:
    """Constraint with its kind's default weight, schedule, and relation."""
    spec = SPECS[kind]
    defaults = dict(
        weight=spec.weight,
        schedule=spec.schedule,
        stiffness_initial=spec.stiffness_initial,
        rate=spec.rate,
        relation=spec.relations[0],
    )
    defaults.update(kw)
    return Constraint(kind=kind, particles=tuple(particles), **defaults)


def update_stiffness(constraint: Constraint | KindSpec, iteration: int) -> float:
    """Stiffness for the given 1-based solver iteration, from a
    constraint's schedule or a kind's default one.

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


TieBreak = Optional[Callable[[], tuple[float, float]]]


def _tiebreak_dir(tiebreak: TieBreak) -> tuple[float, float]:
    if tiebreak is None:
        return 1.0, 0.0
    return tiebreak()


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
    distance d, splitting the correction by inverse mass; the two-body
    core of every distance-like kind."""
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


def _pairwise_distance(c, st, ctx, k, tiebreak):
    i, j = c.particles
    w = ctx.proj_w
    return project_pairwise_distance(
        i, j, (st.px[i], st.py[i]), (st.px[j], st.py[j]), w[i], w[j], c.distance,
        k, c.relation, tiebreak,
    )


def _center_distance_violation(c, st, ctx) -> float:
    i, j = c.particles
    return _priced(c, math.hypot(st.px[i] - st.px[j], st.py[i] - st.py[j]) - c.distance)


PAIRWISE_DISTANCE = _kind("pairwise_distance", _pairwise_distance, _center_distance_violation,
                          schedule=_RELAX, relations=_EITHER, checks=(_needs_distance,))


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
    return project_pairwise_distance(
        member, focal, p_member, p_focal, w_member, wf, d, k, relation, tiebreak
    )


def _focal_point(c, st, ctx, k, tiebreak):
    i, j = c.particles
    w = ctx.proj_w
    return project_focal_point(
        i, j, (st.px[i], st.py[i]), (st.px[j], st.py[j]), w[i], w[j], c.distance,
        k, c.relation, c.pin_focal, tiebreak,
    )


FOCAL_POINT = _kind("focal_point", _focal_point, _center_distance_violation,
                    schedule=_RELAX, relations=_EITHER, checks=(_needs_distance,))


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


def _traffic_lane(c, st, ctx, k, tiebreak):
    i, j = c.particles
    w = ctx.proj_w
    wj = 0.0 if c.pin_focal else w[j]
    return project_traffic_lane(
        i, j, (st.px[i], st.py[i]), (st.px[j], st.py[j]), w[i], wj, c.vector, c.distance, k
    )


def _traffic_lane_violation(c, st, ctx) -> float:
    i, j = c.particles
    px, py = st.px, st.py
    qx, qy = lane_projection_point((px[j], py[j]), c.vector, (px[i], py[i]))
    return max(0.0, c.distance - math.hypot(px[i] - qx, py[i] - qy))


# the projection only ever pushes out of the corridor, so an equality
# lane would be priced for what is never projected
TRAFFIC_LANE = _kind("traffic_lane", _traffic_lane, _traffic_lane_violation, schedule=_STIFFEN,
                     relations=(INEQUALITY,), checks=(_needs_vector, _needs_distance))


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


def _heat_members_target(c, st):
    """(participants, target): the point when given, else the first
    participant anchors the rest."""
    if c.point is not None:
        return c.particles, c.point
    anchor = c.particles[0]
    return c.particles[1:], (st.px[anchor], st.py[anchor])


def _heat_point(c, st, ctx, k, tiebreak):
    members, target = _heat_members_target(c, st)
    return project_heat_point(members, st.px, st.py, ctx.masses, ctx.proj_w, target, k)


def _heat_point_violation(c, st, ctx) -> float:
    members, target = _heat_members_target(c, st)
    cx, cy, _ = weighted_center(members, st.px, st.py, ctx.masses)
    return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)


def _needs_heat_target(c: Constraint) -> None:
    if c.point is None and len(c.particles) < 2:
        raise ValueError("heat point needs a target point or an anchor participant")


# the pull and its price 0.5*|center - target|^2 are both equalities
HEAT_POINT = _kind("heat_point", _heat_point, _heat_point_violation,
                   schedule=_RELAX, arity=None, checks=(_needs_heat_target,))


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


def _focal_symmetry(c, st, ctx, k, tiebreak):
    focal = c.particles[0]
    return project_focal_symmetry(
        c.particles[1:], st.px, st.py, ctx.masses, ctx.proj_w, (st.px[focal], st.py[focal]),
        c.vector, k,
    )


def _focal_symmetry_violation(c, st, ctx) -> float:
    px, py = st.px, st.py
    focal = c.particles[0]
    cx, cy, _ = weighted_center(c.particles[1:], px, py, ctx.masses)
    vx, vy = c.vector
    t = ((cx - px[focal]) * vx + (cy - py[focal]) * vy) / (vx * vx + vy * vy)
    t = max(0.0, t)
    return 0.5 * ((cx - px[focal] - t * vx) ** 2 + (cy - py[focal] - t * vy) ** 2)


def _needs_focal_and_member(c: Constraint) -> None:
    if len(c.particles) < 2:
        raise ValueError("focal symmetry needs a focal and at least one member")


FOCAL_SYMMETRY = _kind("focal_symmetry", _focal_symmetry, _focal_symmetry_violation,
                       schedule=_RELAX, arity=None, checks=(_needs_vector, _needs_focal_and_member))


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


def _visual_balance(c, st, ctx, k, tiebreak):
    return project_visual_balance(
        c.particles, st.px, st.py, ctx.visual_weight, ctx.proj_w, ctx.centroid, k
    )


def _visual_balance_violation(c, st, ctx) -> float:
    cx, cy, _ = weighted_center(c.particles, st.px, st.py, ctx.visual_weight)
    return 0.5 * ((cx - ctx.centroid.x) ** 2 + (cy - ctx.centroid.y) ** 2)


VISUAL_BALANCE = _kind("visual_balance", _visual_balance, _visual_balance_violation,
                       schedule=_RELAX, arity=None)


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


def _wall_distance(c, st, ctx, k, tiebreak):
    i = c.particles[0]
    return project_wall_distance(
        i, (st.px[i], st.py[i]), ctx.proj_w[i], ctx.room, c.distance, k, c.relation
    )


def _wall_distance_violation(c, st, ctx) -> float:
    i = c.particles[0]
    q, _, _ = nearest_wall_point(ctx.room, (st.px[i], st.py[i]))
    return _priced(c, math.hypot(st.px[i] - q.x, st.py[i] - q.y) - c.distance)


WALL_DISTANCE = _kind("wall_distance", _wall_distance, _wall_distance_violation, schedule=_HARD,
                      arity=1, weight=20.0, relations=_EITHER, checks=(_needs_distance,))


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
    return project_pairwise_distance(i, j, pi, access_center, wi, wj, d, k, INEQUALITY, tiebreak)


def zone_center(st, ctx, j: int, face: int):
    """(world center, diagonal) of object j's accessibility zone on
    ``face``, or None when that face has no zone."""
    for zone_face, local_center, diagonal, _ in ctx.zones[j]:
        if zone_face == face:
            c, s = math.cos(st.theta[j]), math.sin(st.theta[j])
            lx, ly = local_center
            return (st.px[j] + c * lx - s * ly, st.py[j] + s * lx + c * ly), diagonal
    return None


def access_corrections(i: int, j: int, face: int, st, ctx, k: float, tiebreak: TieBreak = None):
    """Keep object i out of object j's zone on ``face`` at the current
    poses; no corrections when j has no zone there."""
    zone = zone_center(st, ctx, j, face)
    if zone is None:
        return []
    center, diagonal = zone
    w = ctx.proj_w
    return project_accessibility(
        i, j, (st.px[i], st.py[i]), w[i], w[j], center, st.theta[j], diagonal,
        ctx.b_diag[i], ctx.radius[i], k, tiebreak,
    )


def _accessibility(c, st, ctx, k, tiebreak):
    i, j = c.particles
    return access_corrections(i, j, c.face, st, ctx, k, tiebreak)


def _needs_face(c: Constraint) -> None:
    if c.face not in (1, 2, 3, 4):
        raise ValueError("accessibility needs a face index in 1..4")


ACCESSIBILITY = _kind("accessibility", _accessibility, _unpriced, schedule=_STIFFEN,
                      weight=150.0, relations=(INEQUALITY,), checks=(_needs_face,))


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
    return project_pairwise_distance(i, j, pi, pj, wi, wj, r_i + r_j, k, INEQUALITY, tiebreak)


def _collision(c, st, ctx, k, tiebreak):
    i, j = c.particles
    w, r = ctx.proj_w, ctx.radius
    return project_collision(
        i, j, (st.px[i], st.py[i]), (st.px[j], st.py[j]), w[i], w[j], r[i], r[j], k, tiebreak,
    )


COLLISION = _kind("collision", _collision, _unpriced,
                  schedule=_STIFFEN, weight=150.0, relations=(INEQUALITY,))


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
    return project_pairwise_distance(
        i, j, wall_point_i, wall_point_j, wi, wj, r_i + r_j, k, INEQUALITY, tiebreak
    )


def wall_ghost_corrections(i: int, j: int, st, ctx, k: float, tiebreak: TieBreak = None):
    """Separate the nearest-wall ghost points of objects i and j at the
    current poses."""
    gi, _, _ = nearest_wall_point(ctx.room, (st.px[i], st.py[i]))
    gj, _, _ = nearest_wall_point(ctx.room, (st.px[j], st.py[j]))
    w, r = ctx.proj_w, ctx.radius
    return project_wall_ghost_collision(i, j, gi, gj, w[i], w[j], r[i], r[j], k, tiebreak)


def _wall_ghost_collision(c, st, ctx, k, tiebreak):
    i, j = c.particles
    return wall_ghost_corrections(i, j, st, ctx, k, tiebreak)


WALL_GHOST_COLLISION = _kind("wall_ghost_collision", _wall_ghost_collision, _unpriced,
                             schedule=_STIFFEN, relations=(INEQUALITY,))


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


def _orientation_target(c: Constraint, st) -> float | None:
    i, j = c.particles
    if c.orientation_mode == ORIENT_FACE:
        dx = st.px[j] - st.px[i]
        dy = st.py[j] - st.py[i]
        if dx == 0.0 and dy == 0.0:
            return None
        return math.atan2(dy, dx) + c.angle_offset
    if c.orientation_mode == ORIENT_MATCH:
        return st.theta[j] + c.angle_offset
    return c.angle_target


def _pairwise_orientation(c, st, ctx, k, tiebreak):
    i, j = c.particles
    w = ctx.proj_w
    return project_pairwise_orientation(
        i, j, st.theta[i], _orientation_target(c, st), st.theta[j], None, w[i], w[j], k
    )


def _pairwise_orientation_violation(c, st, ctx) -> float:
    target = _orientation_target(c, st)
    if target is None:
        return 0.0
    return abs(wrap_angle(target - st.theta[c.particles[0]]))


def _needs_orientation_mode(c: Constraint) -> None:
    if c.orientation_mode not in (ORIENT_FACE, ORIENT_MATCH, ORIENT_FIXED):
        raise ValueError(f"unknown orientation mode {c.orientation_mode!r}")
    if c.orientation_mode == ORIENT_FIXED and c.angle_target is None:
        raise ValueError("fixed orientation needs an angle target")


# the rotation always turns to the target and the price |angle| is never
# negative, so only the equality is meaningful
PAIRWISE_ORIENTATION = _kind("pairwise_orientation", _pairwise_orientation,
                             _pairwise_orientation_violation, schedule=_RELAX,
                             checks=(_needs_orientation_mode,))


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


def _wall_orientation(c, st, ctx, k, tiebreak):
    i = c.particles[0]
    return project_wall_orientation(
        i, st.theta[i], (st.px[i], st.py[i]), ctx.proj_w[i], ctx.room, c.angle_offset, k
    )


def _wall_orientation_violation(c, st, ctx) -> float:
    i = c.particles[0]
    target = wall_orientation_target(ctx.room, (st.px[i], st.py[i]), st.theta[i], c.angle_offset)
    return abs(wrap_angle(target - st.theta[i]))


WALL_ORIENTATION = _kind("wall_orientation", _wall_orientation, _wall_orientation_violation,
                         schedule=_HARD, arity=1, weight=20.0)


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


def _stacking(c, st, ctx, k, tiebreak):
    bottom, top = c.particles
    w = ctx.proj_w
    # a pile's base stays on the ground: only a stacked bottom may move
    w_bottom = w[bottom] if bottom in ctx.stack_top else 0.0
    return project_stacking(
        bottom, top, (st.px[bottom], st.py[bottom]), (st.px[top], st.py[top]),
        st.pz[bottom], st.pz[top], w_bottom, w[top], c.height_gap, k,
    )


def _stacking_violation(c, st, ctx) -> float:
    bottom, top = c.particles
    px, py = st.px, st.py
    Cz = st.pz[top] - (st.pz[bottom] + c.height_gap)
    return math.sqrt(Cz * Cz + (px[top] - px[bottom]) ** 2 + (py[top] - py[bottom]) ** 2)


def _needs_height_gap(c: Constraint) -> None:
    if c.height_gap is None or c.height_gap < 0.0:
        raise ValueError("stacking needs a nonnegative height gap")


STACKING = _kind("stacking", _stacking, _stacking_violation,
                 schedule=_HARD, checks=(_needs_height_gap,))


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


def _boundary(c, st, ctx, k, tiebreak):
    i = c.particles[0]
    return project_boundary(
        i, (st.px[i], st.py[i]), ctx.proj_w[i], ctx.radius[i], ctx.room, k
    )


BOUNDARY = _kind("boundary", _boundary, _unpriced, schedule=_HARD, arity=1, weight=150.0)


def _curve_anchor(c: Constraint, st, ctx) -> Vec2:
    """Closest point to the member on its group's world curve. The world
    curve is kept in ``ctx.world_curves`` for as long as the group
    particle holds the same pose objects, so the members of one group
    share one transform (and one arc-angle computation) per pose."""
    group = ctx.group_by_id[c.group_id]
    g = group.particle_index
    x, y, th = st.px[g], st.py[g], st.theta[g]
    cached = ctx.world_curves.get(c.group_id)
    # identity, not equality: the same float objects carry the same bits,
    # where 0.0 == -0.0 would not, and the entry keeps them alive
    if cached is None or cached[0] is not x or cached[1] is not y or cached[2] is not th:
        world = group.curve.transformed(Vec2(x, y), th)
        cached = ctx.world_curves[c.group_id] = (x, y, th, world)
    point, _ = closest_point_on_curve(cached[3], (st.px[c.particles[0]], st.py[c.particles[0]]))
    return point


def _group_curve(c, st, ctx, k, tiebreak):
    m = c.particles[0]
    anchor = _curve_anchor(c, st, ctx)
    return project_pairwise_distance(
        m, c.particles[1], (st.px[m], st.py[m]), anchor, ctx.proj_w[m], 0.0, 0.0, k,
        EQUALITY, tiebreak,
    )


def _group_curve_violation(c, st, ctx) -> float:
    m = c.particles[0]
    anchor = _curve_anchor(c, st, ctx)
    return math.hypot(st.px[m] - anchor.x, st.py[m] - anchor.y)


def _needs_group(c: Constraint) -> None:
    if c.group_id is None:
        raise ValueError(
            "group_curve needs the id of its curve group; the solver generates "
            "these for every nonrigid curve group"
        )


GROUP_CURVE = _kind("group_curve", _group_curve, _group_curve_violation,
                    schedule=_RELAX, checks=(_needs_group,))

KINDS = tuple(SPECS)
