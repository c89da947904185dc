"""Constraint records, the kind registry and the projections.

Each projection writes its corrections to a sink ``out(particle, dx, dy,
dz, dtheta)``, one call per corrected particle, and returns whether it
wrote any. It reads all of its inputs before its first ``out`` call, so a
sink that applies each correction in place (the solver's sequential mode)
gets the same bits as one that first gathers them (batch mode, or a test
collecting ``Correction`` records into a list). One- and two-particle
projections take positions as scalar coordinates, the n-body ones the
position lists. Positional projections write zero turns and angular
ones zero moves, so the solver can apply corrections in any
interleaving.

Every constraint kind is described once, by the ``KindSpec`` registered
next to its projection in ``SPECS``: arity, default weight and stiffness
schedule, the relations its projection and its pricing agree on, its
extra validation, whether the solver generates it, and for the kinds
projected one constraint at a time three record functions. ``KINDS`` is
the registry's order. ``bind(c, ctx)`` runs once per solve and resolves
what a solve never changes (particle indices, inverse masses, distance,
relation, lane vector, orientation mode, group curve and the like) into
a plain tuple, the bound record ``b``; ``project(out, b, st, k,
tiebreak)`` and ``violation(b, st)`` read only that record and the pose
state ``st``. The projection records call the ``project_*`` functions
through this module's globals, so a wrapper installed on the module is
seen at call time. A projection runs at the stiffness ``k`` its caller
passes: the solver evaluates the constraint's schedule for the
iteration, and nothing writes that value onto the constraint.

The solver generates five kinds, and a scene cannot name them. It
builds a ``group_curve`` for each member of a nonrigid curve group and
binds it like an authored constraint. The four contact kinds come from
the broad and narrow phase every iteration, and the solver's contact
pass projects and prices them itself, so their records carry only a
weight, a schedule and a relation.

Conventions shared by every projection:

* a particle with zero inverse mass never receives a correction;
* equality constraints are fully satisfied by one projection at
  stiffness 1 whenever at least one participant is free;
* inequality constraints use the ``C >= 0`` form and write no
  corrections while satisfied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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
    """One particle's pose delta as a projection writes it to its sink,
    for callers that collect corrections into a list."""

    particle: int
    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0
    dtheta: float = 0.0


@dataclass
class Constraint:
    """One constraint instance over distinct scene particles.

    Kind-specific targets live in the optional fields; unused ones stay
    None. ``schedule``, ``stiffness_initial`` and ``rate`` describe the
    stiffness schedule (see ``update_stiffness``); the solver evaluates
    it per iteration and passes the value to the projection.

    Participant conventions: focal-point and traffic-lane constraints
    list (member, focal); focal symmetry lists (focal, members...);
    stacking lists (bottom, top); group-curve lists (member, group
    particle), and only the solver builds those.
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
        if spec.generated:
            raise ValueError(f"{self.kind} is generated by the solver; a scene cannot name it")
        # NaN passes every range check below, and infinity some of them
        for name in ("distance", "height_gap", "rate", "weight", "angle_offset", "angle_target"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{self.kind} {name} must be finite, not {value}")
        for name in ("point", "vector"):
            value = getattr(self, name)
            if value is not None and not all(map(math.isfinite, value)):
                raise ValueError(f"{self.kind} {name} must be finite, not {tuple(value)}")
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
        if len(set(self.particles)) != len(self.particles):
            raise ValueError(f"{self.kind} names one participant twice")
        for check in spec.checks:
            check(self)


@dataclass(frozen=True)
class KindSpec:
    """Everything the solver knows about one constraint kind.

    ``relations`` lists the relations under which the projection and the
    pricing agree, the default first; ``arity`` is None for n-ary kinds;
    ``schedule``, ``stiffness_initial`` and ``rate`` are the default
    stiffness schedule; ``checks`` raise ValueError on a malformed
    constraint. ``bind(c, ctx)`` resolves the inputs of constraint ``c``
    that a solve never changes into the kind's bound record ``b``;
    ``project(out, b, st, k, tiebreak)`` writes its corrections at
    stiffness ``k`` to ``out`` and returns whether it wrote any, and
    ``violation(b, st)`` prices it. The contact kinds have none of the
    three. ``generated`` kinds come from the solver, never from a scene.
    """

    bind: Optional[Callable[..., tuple]]
    project: Optional[Callable[..., bool]]
    violation: Optional[Callable[..., float]]
    arity: Optional[int]
    weight: float
    schedule: str
    stiffness_initial: float
    rate: float
    relations: tuple[str, ...]
    checks: tuple[Callable[[Constraint], None], ...]
    generated: bool


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


def _kind(name, bind=None, project=None, violation=None, *, schedule, arity=2, weight=1.0,
          relations=(EQUALITY,), checks=(), generated=False) -> str:
    SPECS[name] = KindSpec(bind, project, violation, arity, weight, *schedule, relations,
                           checks, generated)
    return name


def _priced(relation: str, C: float) -> float:
    """Violation of a kind whose projection honours either relation."""
    if relation == INEQUALITY:
        return max(0.0, -C)
    return abs(C)


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
# out(particle, dx, dy, dz, dtheta), called once per corrected particle
Sink = Callable[[int, float, float, float, float], None]


def _tiebreak_dir(tiebreak: TieBreak) -> tuple[float, float]:
    if tiebreak is None:
        return 1.0, 0.0
    return tiebreak()


def project_pairwise_distance(
    out: Sink,
    i: int,
    j: int,
    xi: float,
    yi: float,
    xj: float,
    yj: float,
    wi: float,
    wj: float,
    d: float,
    k: float,
    relation: str = EQUALITY,
    tiebreak: TieBreak = None,
) -> bool:
    """Hold particles i and j at (equality) or beyond (inequality)
    distance d, splitting the correction by inverse mass; the two-body
    core of every distance-like kind."""
    wsum = wi + wj
    if wsum <= 0.0 or k == 0.0:
        return False
    dx = xi - xj
    dy = yi - yj
    dist = math.hypot(dx, dy)
    if dist < _EPS:
        if relation == INEQUALITY and d <= 0.0:
            return False
        nx, ny = _tiebreak_dir(tiebreak)
        C = -d
    else:
        nx, ny = dx / dist, dy / dist
        C = dist - d
    # the slack absorbs float noise so satisfied contacts stay quiet
    if relation == INEQUALITY and C >= -1e-12:
        return False
    if C == 0.0:
        return False
    # wsum > 0, so at least one side is free and written
    s = k * C / wsum
    if wi > 0.0:
        out(i, -s * wi * nx, -s * wi * ny, 0.0, 0.0)
    if wj > 0.0:
        out(j, s * wj * nx, s * wj * ny, 0.0, 0.0)
    return True


def _bind_pairwise_distance(c, ctx):
    i, j = c.particles
    return i, j, ctx.proj_w[i], ctx.proj_w[j], c.distance, c.relation


def _pairwise_distance(out, b, st, k, tiebreak):
    i, j, wi, wj, d, relation = b
    px, py = st.px, st.py
    return project_pairwise_distance(
        out, i, j, px[i], py[i], px[j], py[j], wi, wj, d, k, relation, tiebreak
    )


def _center_distance_violation(b, st) -> float:
    # the focal point's record extends the pairwise one
    i, j, d = b[0], b[1], b[4]
    return _priced(b[5], math.hypot(st.px[i] - st.px[j], st.py[i] - st.py[j]) - d)


PAIRWISE_DISTANCE = _kind("pairwise_distance", _bind_pairwise_distance, _pairwise_distance,
                          _center_distance_violation, schedule=_RELAX, relations=_EITHER,
                          checks=(_needs_distance,))


def project_focal_point(
    out: Sink,
    member: int,
    focal: int,
    x_member: float,
    y_member: float,
    x_focal: float,
    y_focal: float,
    w_member: float,
    w_focal: float,
    d: float,
    k: float,
    relation: str = EQUALITY,
    pin_focal: bool = True,
    tiebreak: TieBreak = None,
) -> bool:
    """Keep a member at distance d from a focal object. With
    ``pin_focal`` the focal behaves as an infinite-mass anchor."""
    wf = 0.0 if pin_focal else w_focal
    return project_pairwise_distance(
        out, member, focal, x_member, y_member, x_focal, y_focal, w_member, wf, d, k,
        relation, tiebreak,
    )


def _bind_focal_point(c, ctx):
    return _bind_pairwise_distance(c, ctx) + (c.pin_focal,)


def _focal_point(out, b, st, k, tiebreak):
    i, j, wi, wj, d, relation, pin_focal = b
    px, py = st.px, st.py
    return project_focal_point(
        out, i, j, px[i], py[i], px[j], py[j], wi, wj, d, k, relation, pin_focal, tiebreak,
    )


FOCAL_POINT = _kind("focal_point", _bind_focal_point, _focal_point, _center_distance_violation,
                    schedule=_RELAX, relations=_EITHER, checks=(_needs_distance,))


def lane_projection_point(pj, v: Vec2, pi) -> tuple[float, float]:
    """Point on the lane axis (through pj along v) nearest to pi."""
    vx, vy = v
    t = ((pi[0] - pj[0]) * vx + (pi[1] - pj[1]) * vy) / (vx * vx + vy * vy)
    return pj[0] + t * vx, pj[1] + t * vy


def project_traffic_lane(
    out: Sink,
    i: int,
    j: int,
    xi: float,
    yi: float,
    xj: float,
    yj: float,
    wi: float,
    wj: float,
    v: Vec2,
    d: float,
    k: float,
) -> bool:
    """Clearance corridor around the axis from particle j along v.

    The axis-projection point acts as a ghost rigidly attached to j: its
    share of the correction moves j. Inactive while the perpendicular
    distance is at least d.
    """
    # lane_projection_point, inlined
    vx, vy = v
    t = ((xi - xj) * vx + (yi - yj) * vy) / (vx * vx + vy * vy)
    dx = xi - (xj + t * vx)
    dy = yi - (yj + t * vy)
    dist = math.hypot(dx, dy)
    if dist >= d:
        return False
    if dist < _EPS:
        # on the axis: push left of v
        norm = v.norm()
        nx, ny = -v.y / norm, v.x / norm
    else:
        nx, ny = dx / dist, dy / dist
    wsum = wi + wj
    if wsum <= 0.0 or k == 0.0:
        return False
    C = dist - d
    s = k * C / wsum
    if wi > 0.0:
        out(i, -s * wi * nx, -s * wi * ny, 0.0, 0.0)
    if wj > 0.0:
        out(j, s * wj * nx, s * wj * ny, 0.0, 0.0)
    return True


def _bind_traffic_lane(c, ctx):
    i, j = c.particles
    v = c.vector
    vx, vy = v
    wj = 0.0 if c.pin_focal else ctx.proj_w[j]
    return i, j, ctx.proj_w[i], wj, v, c.distance, vx, vy, vx * vx + vy * vy


def _traffic_lane(out, b, st, k, tiebreak):
    i, j, wi, wj, v, d, _, _, _ = b
    px, py = st.px, st.py
    return project_traffic_lane(out, i, j, px[i], py[i], px[j], py[j], wi, wj, v, d, k)


def _traffic_lane_violation(b, st) -> float:
    i, j, _, _, _, d, vx, vy, norm2 = b
    px, py = st.px, st.py
    xi, yi, xj, yj = px[i], py[i], px[j], py[j]
    # lane_projection_point, inlined
    t = ((xi - xj) * vx + (yi - yj) * vy) / norm2
    return max(0.0, d - math.hypot(xi - (xj + t * vx), yi - (yj + t * vy)))


# the projection only ever pushes out of the corridor, so an equality
# lane would be priced for what is never projected
TRAFFIC_LANE = _kind("traffic_lane", _bind_traffic_lane, _traffic_lane, _traffic_lane_violation,
                     schedule=_STIFFEN, relations=(INEQUALITY,),
                     checks=(_needs_vector, _needs_distance))


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
    out: Sink,
    indices,
    px,
    py,
    weights,
    inv_masses,
    target,
    k: float,
) -> bool:
    """Move the weighted center of the participants toward the target.

    The step is the exact closed form: at k=1 the new weighted center
    equals the target; at k<1 it travels fraction k of the way.
    """
    if k == 0.0:
        return False
    cx, cy, total = weighted_center(indices, px, py, weights)
    rx, ry = cx - target[0], cy - target[1]
    if rx * rx + ry * ry <= _EPS * _EPS:
        return False
    denom = 0.0
    for idx in indices:
        u = weights[idx]
        denom += u * u * inv_masses[idx]
    if denom <= 0.0:
        return False
    # denom > 0, so some participant is free and written; each share
    # reads only the weights, never a position
    for idx in indices:
        w = inv_masses[idx]
        if w <= 0.0:
            continue
        f = k * total * w * weights[idx] / denom
        out(idx, -f * rx, -f * ry, 0.0, 0.0)
    return True


def project_heat_point(
    out: Sink,
    indices,
    px,
    py,
    masses,
    inv_masses,
    target,
    k: float,
) -> bool:
    """Pull the mass-weighted center of the participants to the target."""
    return _project_center_to_target(out, indices, px, py, masses, inv_masses, target, k)


def _bind_heat_point(c, ctx):
    """(participants, target point, anchor, ...): the point when given,
    else the first participant anchors the rest."""
    if c.point is not None:
        return c.particles, c.point, -1, ctx.masses, ctx.proj_w
    return c.particles[1:], None, c.particles[0], ctx.masses, ctx.proj_w


def _heat_point(out, b, st, k, tiebreak):
    members, target, anchor, masses, w = b
    if target is None:
        target = (st.px[anchor], st.py[anchor])
    return project_heat_point(out, members, st.px, st.py, masses, w, target, k)


def _heat_point_violation(b, st) -> float:
    members, target, anchor, masses, _ = b
    if target is None:
        target = (st.px[anchor], st.py[anchor])
    cx, cy, _ = weighted_center(members, st.px, st.py, masses)
    return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)


def _needs_heat_target(c: Constraint) -> None:
    if c.point is None and len(c.particles) < 2:
        raise ValueError("heat point needs a target point or an anchor participant")


# the pull and its price 0.5*|center - target|^2 are both equalities
HEAT_POINT = _kind("heat_point", _bind_heat_point, _heat_point, _heat_point_violation,
                   schedule=_RELAX, arity=None, checks=(_needs_heat_target,))


def project_focal_symmetry(
    out: Sink,
    indices,
    px,
    py,
    masses,
    inv_masses,
    focal,
    v: Vec2,
    k: float,
) -> bool:
    """Center the participants' center of mass on the ray from the focal
    point along v (the moving target is the center's own projection)."""
    cx, cy, _ = weighted_center(indices, px, py, masses)
    vx, vy = v
    t = ((cx - focal[0]) * vx + (cy - focal[1]) * vy) / (vx * vx + vy * vy)
    if t < 0.0:
        t = 0.0
    target = (focal[0] + t * vx, focal[1] + t * vy)
    return _project_center_to_target(out, indices, px, py, masses, inv_masses, target, k)


def _bind_focal_symmetry(c, ctx):
    v = c.vector
    vx, vy = v
    return c.particles[0], c.particles[1:], v, vx, vy, vx * vx + vy * vy, ctx.masses, ctx.proj_w


def _focal_symmetry(out, b, st, k, tiebreak):
    focal, members, v, _, _, _, masses, w = b
    px, py = st.px, st.py
    return project_focal_symmetry(out, members, px, py, masses, w, (px[focal], py[focal]), v, k)


def _focal_symmetry_violation(b, st) -> float:
    focal, members, _, vx, vy, norm2, masses, _ = b
    px, py = st.px, st.py
    cx, cy, _ = weighted_center(members, px, py, masses)
    t = ((cx - px[focal]) * vx + (cy - py[focal]) * vy) / norm2
    t = max(0.0, t)
    return 0.5 * ((cx - px[focal] - t * vx) ** 2 + (cy - py[focal] - t * vy) ** 2)


def _needs_focal_and_member(c: Constraint) -> None:
    if len(c.particles) < 2:
        raise ValueError("focal symmetry needs a focal and at least one member")


FOCAL_SYMMETRY = _kind("focal_symmetry", _bind_focal_symmetry, _focal_symmetry,
                       _focal_symmetry_violation, schedule=_RELAX, arity=None,
                       checks=(_needs_vector, _needs_focal_and_member))


def project_visual_balance(
    out: Sink,
    indices,
    px,
    py,
    visual_weights,
    inv_masses,
    room_centroid,
    k: float,
) -> bool:
    """Pull the visual-weight-weighted center to the room centroid.

    Visual weights are the objects' ground-plane footprint areas; the
    centroid itself is a zero-inverse-mass anchor.
    """
    return _project_center_to_target(
        out, indices, px, py, visual_weights, inv_masses, room_centroid, k
    )


def _bind_visual_balance(c, ctx):
    return c.particles, ctx.visual_weight, ctx.proj_w, ctx.centroid


def _visual_balance(out, b, st, k, tiebreak):
    members, visual_weight, w, centroid = b
    return project_visual_balance(out, members, st.px, st.py, visual_weight, w, centroid, k)


def _visual_balance_violation(b, st) -> float:
    members, visual_weight, _, centroid = b
    cx, cy, _ = weighted_center(members, st.px, st.py, visual_weight)
    return 0.5 * ((cx - centroid.x) ** 2 + (cy - centroid.y) ** 2)


VISUAL_BALANCE = _kind("visual_balance", _bind_visual_balance, _visual_balance,
                       _visual_balance_violation, schedule=_RELAX, arity=None)


def project_wall_distance(
    out: Sink,
    i: int,
    xi: float,
    yi: float,
    wi: float,
    room: Room,
    d: float,
    k: float,
    relation: str = EQUALITY,
) -> bool:
    """Hold particle i at (or beyond) distance d from the nearest wall.

    The wall point is a fixed anchor, so only the particle moves.
    """
    if wi <= 0.0 or k == 0.0:
        return False
    q, normal, _ = nearest_wall_point(room, (xi, yi))
    dx = xi - q.x
    dy = yi - q.y
    dist = math.hypot(dx, dy)
    if dist < _EPS:
        nx, ny = normal
    else:
        nx, ny = dx / dist, dy / dist
    C = dist - d
    if relation == INEQUALITY and C >= 0.0:
        return False
    if C == 0.0:
        return False
    out(i, -k * C * nx, -k * C * ny, 0.0, 0.0)
    return True


def _bind_wall_distance(c, ctx):
    i = c.particles[0]
    return i, ctx.proj_w[i], ctx.room, c.distance, c.relation


def _wall_distance(out, b, st, k, tiebreak):
    i, wi, room, d, relation = b
    return project_wall_distance(out, i, st.px[i], st.py[i], wi, room, d, k, relation)


def _wall_distance_violation(b, st) -> float:
    i, _, room, d, relation = b
    q, _, _ = nearest_wall_point(room, (st.px[i], st.py[i]))
    return _priced(relation, math.hypot(st.px[i] - q.x, st.py[i] - q.y) - d)


WALL_DISTANCE = _kind("wall_distance", _bind_wall_distance, _wall_distance,
                      _wall_distance_violation, schedule=_HARD, arity=1, weight=20.0,
                      relations=_EITHER, checks=(_needs_distance,))


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
    out: Sink,
    i: int,
    j: int,
    xi: float,
    yi: float,
    wi: float,
    wj: float,
    x_center: float,
    y_center: float,
    theta_j: float,
    access_diagonal: float,
    b_i: float,
    r_i: float,
    k: float,
    tiebreak: TieBreak = None,
) -> bool:
    """Keep object i out of one accessibility zone of object j.

    Active only when i's bounding circle overlaps the zone's clearance
    square; the required separation from the zone center is i's footprint
    diagonal plus the zone diagonal. The zone center is a ghost rigidly
    attached to j, so its share of the correction translates j.
    """
    if access_diagonal <= 0.0:
        return False
    half_side = access_diagonal / (2.0 * math.sqrt(2.0))
    if not access_zone_active((xi, yi), r_i, (x_center, y_center), half_side, theta_j):
        return False
    d = b_i + access_diagonal
    return project_pairwise_distance(
        out, i, j, xi, yi, x_center, y_center, wi, wj, d, k, INEQUALITY, tiebreak
    )


def zone_center(st, ctx, j: int, face: int):
    """(world center, diagonal) of object j's accessibility zone on
    ``face``, a zone j has: activations only name existing zones."""
    for zone_face, local_center, diagonal, _ in ctx.zones[j]:
        if zone_face == face:
            c, s = math.cos(st.theta[j]), math.sin(st.theta[j])
            lx, ly = local_center
            return (st.px[j] + c * lx - s * ly, st.py[j] + s * lx + c * ly), diagonal


def access_corrections(
    out: Sink, i: int, j: int, face: int, st, ctx, k: float, tiebreak: TieBreak = None
) -> bool:
    """Keep object i out of object j's zone on ``face`` at the current
    poses."""
    center, diagonal = zone_center(st, ctx, j, face)
    w = ctx.proj_w
    return project_accessibility(
        out, i, j, st.px[i], st.py[i], w[i], w[j], center[0], center[1], st.theta[j],
        diagonal, ctx.b_diag[i], ctx.radius[i], k, tiebreak,
    )


ACCESSIBILITY = _kind("accessibility", schedule=_STIFFEN, weight=150.0,
                      relations=(INEQUALITY,), generated=True)


def project_collision(
    out: Sink,
    i: int,
    j: int,
    xi: float,
    yi: float,
    xj: float,
    yj: float,
    wi: float,
    wj: float,
    r_i: float,
    r_j: float,
    k: float,
    tiebreak: TieBreak = None,
) -> bool:
    """Separate overlapping bounding circles along their center line."""
    return project_pairwise_distance(
        out, i, j, xi, yi, xj, yj, wi, wj, r_i + r_j, k, INEQUALITY, tiebreak
    )


COLLISION = _kind("collision", schedule=_STIFFEN, weight=150.0, relations=(INEQUALITY,),
                  generated=True)


def project_wall_ghost_collision(
    out: Sink,
    i: int,
    j: int,
    x_ghost_i: float,
    y_ghost_i: float,
    x_ghost_j: float,
    y_ghost_j: float,
    wi: float,
    wj: float,
    r_i: float,
    r_j: float,
    k: float,
    tiebreak: TieBreak = None,
) -> bool:
    """Extra separation between the nearest-wall ghost points of two
    colliding, wall-constrained objects; it slides the hosts apart along
    the wall instead of pushing them off it."""
    return project_pairwise_distance(
        out, i, j, x_ghost_i, y_ghost_i, x_ghost_j, y_ghost_j, wi, wj, r_i + r_j, k,
        INEQUALITY, tiebreak,
    )


def wall_ghost_corrections(
    out: Sink, i: int, j: int, st, ctx, k: float, tiebreak: TieBreak = None
) -> bool:
    """Separate the nearest-wall ghost points of objects i and j at the
    current poses."""
    gi, _, _ = nearest_wall_point(ctx.room, (st.px[i], st.py[i]))
    gj, _, _ = nearest_wall_point(ctx.room, (st.px[j], st.py[j]))
    w, r = ctx.proj_w, ctx.radius
    return project_wall_ghost_collision(
        out, i, j, gi.x, gi.y, gj.x, gj.y, w[i], w[j], r[i], r[j], k, tiebreak
    )


WALL_GHOST_COLLISION = _kind("wall_ghost_collision", schedule=_STIFFEN,
                             relations=(INEQUALITY,), generated=True)


def project_pairwise_orientation(
    out: Sink,
    i: int,
    theta_i: float,
    target_i: Optional[float],
    wi: float,
    k: float,
) -> bool:
    """Rotate the first participant toward its target by the smallest
    angular difference, scaled by k; the other participant only sets the
    target. Positions are untouched. A None target leaves it alone."""
    if k == 0.0 or target_i is None or wi <= 0.0:
        return False
    delta = wrap_angle(target_i - theta_i)
    if delta == 0.0:
        return False
    out(i, 0.0, 0.0, 0.0, k * delta)
    return True


def _bind_pairwise_orientation(c, ctx):
    i, j = c.particles
    return i, j, ctx.proj_w[i], c.orientation_mode, c.angle_offset, c.angle_target


def _orientation_target(b, st) -> float | None:
    i, j, _, mode, offset, target = b
    if mode == ORIENT_FACE:
        dx = st.px[j] - st.px[i]
        dy = st.py[j] - st.py[i]
        if dx == 0.0 and dy == 0.0:
            return None
        return math.atan2(dy, dx) + offset
    if mode == ORIENT_MATCH:
        return st.theta[j] + offset
    return target


def _pairwise_orientation(out, b, st, k, tiebreak):
    i = b[0]
    return project_pairwise_orientation(out, i, st.theta[i], _orientation_target(b, st), b[2], k)


def _pairwise_orientation_violation(b, st) -> float:
    target = _orientation_target(b, st)
    if target is None:
        return 0.0
    return abs(wrap_angle(target - st.theta[b[0]]))


def _needs_orientation_mode(c: Constraint) -> None:
    if c.orientation_mode not in (ORIENT_FACE, ORIENT_MATCH, ORIENT_FIXED):
        raise ValueError(f"unknown orientation mode {c.orientation_mode!r}")
    if c.orientation_mode == ORIENT_FIXED and c.angle_target is None:
        raise ValueError("fixed orientation needs an angle target")


# the rotation always turns to the target and the price |angle| is never
# negative, so only the equality is meaningful
PAIRWISE_ORIENTATION = _kind("pairwise_orientation", _bind_pairwise_orientation,
                             _pairwise_orientation, _pairwise_orientation_violation,
                             schedule=_RELAX, checks=(_needs_orientation_mode,))


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
    out: Sink,
    i: int,
    theta_i: float,
    xi: float,
    yi: float,
    wi: float,
    room: Room,
    offset: float,
    k: float,
) -> bool:
    """Align particle i with the nearest wall (offset 0 is parallel,
    pi/2 is perpendicular to it)."""
    if wi <= 0.0 or k == 0.0:
        return False
    target = wall_orientation_target(room, (xi, yi), theta_i, offset)
    delta = wrap_angle(target - theta_i)
    if delta == 0.0:
        return False
    out(i, 0.0, 0.0, 0.0, k * delta)
    return True


def _bind_wall_orientation(c, ctx):
    i = c.particles[0]
    return i, ctx.proj_w[i], ctx.room, c.angle_offset


def _wall_orientation(out, b, st, k, tiebreak):
    i, wi, room, offset = b
    return project_wall_orientation(out, i, st.theta[i], st.px[i], st.py[i], wi, room, offset, k)


def _wall_orientation_violation(b, st) -> float:
    i, _, room, offset = b
    target = wall_orientation_target(room, (st.px[i], st.py[i]), st.theta[i], offset)
    return abs(wrap_angle(target - st.theta[i]))


WALL_ORIENTATION = _kind("wall_orientation", _bind_wall_orientation, _wall_orientation,
                         _wall_orientation_violation, schedule=_HARD, arity=1, weight=20.0)


def project_stacking(
    out: Sink,
    bottom: int,
    top: int,
    x_bottom: float,
    y_bottom: float,
    x_top: float,
    y_top: float,
    z_bottom: float,
    z_top: float,
    w_bottom: float,
    w_top: float,
    height_gap: float,
    k: float,
) -> bool:
    """Stack ``top`` onto ``bottom``: the vertical gap between centers
    equals half the summed heights, and the ground-plane coordinates
    coincide. Both parts split by inverse mass."""
    wsum = w_bottom + w_top
    if wsum <= 0.0 or k == 0.0:
        return False
    Cz = z_top - (z_bottom + height_gap)
    ex = x_top - x_bottom
    ey = y_top - y_bottom
    if Cz == 0.0 and ex == 0.0 and ey == 0.0:
        return False
    s = k / wsum
    if w_top > 0.0:
        out(top, -s * w_top * ex, -s * w_top * ey, -s * w_top * Cz, 0.0)
    if w_bottom > 0.0:
        out(bottom, s * w_bottom * ex, s * w_bottom * ey, s * w_bottom * Cz, 0.0)
    return True


def _bind_stacking(c, ctx):
    bottom, top = c.particles
    # a pile's base stays on the ground: only a stacked bottom may move
    w_bottom = ctx.proj_w[bottom] if bottom in ctx.stack_top else 0.0
    return bottom, top, w_bottom, ctx.proj_w[top], c.height_gap


def _stacking(out, b, st, k, tiebreak):
    bottom, top, w_bottom, w_top, height_gap = b
    px, py, pz = st.px, st.py, st.pz
    return project_stacking(
        out, bottom, top, px[bottom], py[bottom], px[top], py[top], pz[bottom], pz[top],
        w_bottom, w_top, height_gap, k,
    )


def _stacking_violation(b, st) -> float:
    bottom, top, _, _, height_gap = b
    px, py = st.px, st.py
    Cz = st.pz[top] - (st.pz[bottom] + height_gap)
    return math.sqrt(Cz * Cz + (px[top] - px[bottom]) ** 2 + (py[top] - py[bottom]) ** 2)


def _needs_height_gap(c: Constraint) -> None:
    if c.height_gap is None or c.height_gap < 0.0:
        raise ValueError("stacking needs a nonnegative height gap")


STACKING = _kind("stacking", _bind_stacking, _stacking, _stacking_violation,
                 schedule=_HARD, checks=(_needs_height_gap,))


def boundary_violation(room: Room, p, radius: float) -> float:
    """How far the bounding circle pokes outside the room; 0 if contained.

    In an axis-aligned rectangle a circle clear of every side by more
    than the room's rounding band (``Room._band``) is contained, and the
    answer is 0.0 from the four side clearances; everywhere else, and in
    every other room, the per-wall measure ``_wall_violation`` decides.
    Both give the same bits.
    """
    x, y = p[0], p[1]
    rect = room._rect
    if rect is not None:
        x0, y0, x1, y1 = rect
        clear = radius + room._band
        if x - x0 > clear and x1 - x > clear and y - y0 > clear and y1 - y > clear:
            return 0.0
    return _wall_violation(room, x, y, radius)


def _wall_violation(room: Room, x: float, y: float, radius: float) -> float:
    """The boundary measure from every wall: the radius less the signed
    distance from (x, y) to the nearest wall, floored at 0."""
    best = math.inf
    for ax, ay, dx, dy, inv_len2, _, _, _ in room._wall_data:
        t = ((x - ax) * dx + (y - ay) * dy) * inv_len2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ex = x - (ax + t * dx)
        ey = y - (ay + t * dy)
        d2 = ex * ex + ey * ey
        if d2 < best:
            best = d2
    d = math.sqrt(best)
    clearance = d if room.contains((x, y)) else -d
    return max(0.0, radius - clearance)


def pokes_out(room: Room, x: float, y: float, radius: float, tol: float) -> bool:
    """Whether the circle pokes out of the room by more than ``tol``:
    ``boundary_violation(room, (x, y), radius) > tol``, bit for bit.

    In an axis-aligned rectangle the side clearances decide whenever they
    lie more than the room's rounding band from ``radius - tol``: every
    side above it, and the circle is inside and pokes out by less than
    ``tol``; the smallest below it, and it pokes out by more (outside the
    room the violation only grows beyond what the sides show). So a
    circle left touching a wall costs four subtractions. Only inside the
    band, and in other rooms, does the per-wall measure run.
    """
    rect = room._rect
    if rect is not None:
        x0, y0, x1, y1 = rect
        band = room._band
        reach = radius - tol
        # above the band and inside the room, also when reach <= 0
        clear = reach + band if reach > 0.0 else band
        if x - x0 > clear and x1 - x > clear and y - y0 > clear and y1 - y > clear:
            return False
        if min(x - x0, x1 - x, y - y0, y1 - y) < reach - band:
            return True
    return _wall_violation(room, x, y, radius) > tol


def project_boundary(
    out: Sink,
    i: int,
    xi: float,
    yi: float,
    wi: float,
    radius: float,
    room: Room,
    k: float = 1.0,
) -> bool:
    """Push particle i inward so its bounding circle sits inside the room.

    A circle that pokes out by at most 1e-12 (``pokes_out``; in a
    rectangle the side clearances decide it, touching circles included)
    is left alone. Otherwise the per-wall clamps iterate until contained.
    If the room genuinely cannot contain the circle, the particle is
    clamped to the centroid and a warning is logged.
    """
    if wi <= 0.0 or k == 0.0:
        return False
    if not pokes_out(room, xi, yi, radius, 1e-12):
        return False
    x, y = xi, yi
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
    if pokes_out(room, x, y, radius, 1e-9):
        log.warning("room cannot contain a circle of radius %.3g; clamping to centroid", radius)
        x, y = room.centroid
    dx = (x - xi) * k
    dy = (y - yi) * k
    if dx == 0.0 and dy == 0.0:
        return False
    out(i, dx, dy, 0.0, 0.0)
    return True


BOUNDARY = _kind("boundary", schedule=_HARD, arity=1, weight=150.0, generated=True)


def _bind_group_curve(c, ctx):
    """(member, its weight, group particle, group curve, world-curve
    cache); the members of one group share the cache in
    ``ctx.world_curves``."""
    m, g = c.particles
    cache = ctx.world_curves.setdefault(c.group_id, [None, None, None, None])
    return m, ctx.proj_w[m], g, ctx.group_by_id[c.group_id].curve, cache


def _curve_anchor(b, st) -> tuple[float, float]:
    """Closest point (x, y) to the member on its group's world curve.
    The cache ``[x, y, theta, world curve]`` keeps the world curve for as
    long as the group particle holds the same pose objects, so the
    members of one group share one transform (and one arc-angle
    computation) per pose."""
    m, _, g, curve, cache = b
    px, py = st.px, st.py
    x, y, th = px[g], py[g], st.theta[g]
    # identity, not equality: the same float objects carry the same bits,
    # where 0.0 == -0.0 would not, and the cache keeps them alive
    if cache[0] is not x or cache[1] is not y or cache[2] is not th:
        cache[3] = curve.transformed(Vec2(x, y), th)
        cache[0], cache[1], cache[2] = x, y, th
    return closest_point_on_curve(cache[3], (px[m], py[m]))


def _group_curve(out, b, st, k, tiebreak):
    m, wm, g = b[0], b[1], b[2]
    ax, ay = _curve_anchor(b, st)
    return project_pairwise_distance(
        out, m, g, st.px[m], st.py[m], ax, ay, wm, 0.0, 0.0, k, EQUALITY, tiebreak,
    )


def _group_curve_violation(b, st) -> float:
    m = b[0]
    ax, ay = _curve_anchor(b, st)
    return math.hypot(st.px[m] - ax, st.py[m] - ay)


GROUP_CURVE = _kind("group_curve", _bind_group_curve, _group_curve, _group_curve_violation,
                    schedule=_RELAX, generated=True)

KINDS = tuple(SPECS)
