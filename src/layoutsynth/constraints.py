"""Constraint records, the kind registry and the projections.

Each projection writes its corrections to a sink ``out(particle, dx, dy,
dz, dtheta)``, one call per corrected particle, and returns whether it
wrote any. It reads all of its inputs before its first ``out`` call, so a
sink that applies each correction in place (the solver's) gets the same
bits as one that first gathers them (a test collecting them into a
list). Positional projections write zero turns and angular ones zero
moves, so the solver can apply corrections in any interleaving.

Every constraint kind is described once, by the ``KindSpec`` registered
next to its projection in ``SPECS``: arity, default weight and stiffness
schedule, the relations its projection and its pricing agree on, its
extra validation, whether the solver generates it, and for the kinds
projected one constraint at a time three record functions, plus, for the
kinds a scene may hold many of, an array kernel ``violations`` that
prices a solve's records of the kind at once with the bits of
``violation``. ``KINDS`` is the registry's order. ``bind(c, ctx)`` runs
once per solve and resolves what a solve never changes (particle indices, inverse masses, distance,
relation, lane vector, orientation mode, group curve and the like) into
a plain tuple, the bound record ``b``; ``project(out, b, st, k,
tiebreak)`` and ``violation(b, st)`` read only that record and the pose
state ``st``: only ``bind`` reads the solve context. A projection runs
at the stiffness ``k`` its caller passes: the solver evaluates the
constraint's schedule for the iteration, and nothing writes that value
onto the constraint.

Each projection is written once, most of them in their kind's record.
A kind that is a special case of another binds that kind's record and
registers its records: a focal point is a pairwise distance whose focal
weight ``bind`` pins to 0, and visual balance is a heat point pulled to
the room centroid with footprint areas as weights. The kernels that
more than one caller shares stay public functions that take positions as
scalar coordinates, so their particle ids only label the corrections and
a caller may route them elsewhere: ``project_pairwise_distance`` (the
distance-like records and the contacts) and
``project_pairwise_orientation`` (the orientation records).

The solver generates five kinds, and a scene cannot name them. It
builds a ``group_curve`` for each member of a nonrigid curve group and
binds it like an authored constraint. The four contact kinds come from
the broad and narrow phase every iteration; the solver projects them
through their ``project_*`` kernels, sending each correction to the
object's pile base, and prices them itself, so their records carry only
a weight, a schedule and a relation. The wall-ghost kernel is the
collision kernel under a second name.

Room containment (``boundary_violation``, ``pokes_out`` and the clamp
``clamp_inside``) is decided in ``model`` and imported here;
``project_boundary`` keeps its gates and the centroid fallback.

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
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Curve, Vec2, closest_point_on_curve, closest_points_on_curves, math_map, wrap_angle,
    wrap_angles,
)
from .model import Room, boundary_violation, clamp_inside, nearest_wall_point, pokes_out

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


@dataclass
class Constraint:
    """One constraint instance over distinct scene particles.

    Kind-specific targets live in the optional fields; unused ones stay
    None. ``schedule``, ``stiffness_initial`` and ``rate`` describe the
    stiffness schedule (see ``update_stiffness``); the solver evaluates
    it per iteration and passes the value to the projection. Those three,
    ``relation`` and ``weight`` take their kind's defaults from ``SPECS``
    when left unset.

    Participant conventions: focal-point and traffic-lane constraints
    list (member, focal); focal symmetry lists (focal, members...);
    stacking lists (bottom, top); group-curve lists (member, group
    particle), and only the solver builds those.
    """

    kind: str
    particles: tuple[int, ...]
    relation: Optional[str] = None
    distance: Optional[float] = None
    point: Optional[Vec2] = None
    vector: Optional[Vec2] = None
    angle_offset: float = 0.0
    orientation_mode: Optional[str] = None
    angle_target: Optional[float] = None
    height_gap: Optional[float] = None
    group_id: Optional[str] = None
    pin_focal: bool = True
    weight: Optional[float] = None
    schedule: Optional[str] = None
    stiffness_initial: Optional[float] = None
    rate: Optional[float] = None

    def __post_init__(self):
        self.particles = tuple(self.particles)
        spec = SPECS.get(self.kind)
        if spec is None:
            return  # validate names the unknown kind
        if self.relation is None:
            self.relation = spec.relations[0]
        for name in ("weight", "schedule", "stiffness_initial", "rate"):
            if getattr(self, name) is None:
                setattr(self, name, getattr(spec, name))

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

    ``violations``, on the kinds a scene may hold many of, is the array
    form of ``violation``: ``violations(records)`` stacks the columns of
    a solve's bound records of the kind once and returns the kernel
    ``price(st, px, py, theta)``, which prices them all as one float
    array, bit for bit ``[violation(b, st) for b in records]``, given the
    pose lists of ``st`` as arrays.
    """

    bind: Optional[Callable[..., tuple]]
    project: Optional[Callable[..., bool]]
    violation: Optional[Callable[..., float]]
    violations: Optional[Callable[[list], Callable[..., np.ndarray]]]
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


def _kind(name, bind=None, project=None, violation=None, *, violations=None, schedule,
          arity=2, weight=1.0, relations=(EQUALITY,), checks=(), generated=False) -> str:
    SPECS[name] = KindSpec(bind, project, violation, violations, arity, weight, *schedule,
                           relations, checks, generated)
    return name


def _priced(relation: str, C: float) -> float:
    """Violation of a kind whose projection honours either relation."""
    if relation == INEQUALITY:
        return max(0.0, -C)
    return abs(C)


def _positive_part(x: np.ndarray) -> np.ndarray:
    """``max(0.0, x)`` element by element: NaN and -0.0 give 0.0, as
    they do there."""
    return np.where(x > 0.0, x, 0.0)


def _columns(records: list[tuple]) -> list[np.ndarray]:
    """The bound records' fields as arrays, one per field."""
    return [np.array(column) for column in zip(*records)]


def _needs_distance(c: Constraint) -> None:
    if c.distance is None or c.distance < 0.0:
        raise ValueError(f"{c.kind} needs a nonnegative distance")


def _needs_vector(c: Constraint) -> None:
    # the records divide by the squared norm, which underflows first
    if c.vector is None or c.vector.x * c.vector.x + c.vector.y * c.vector.y <= 0.0:
        raise ValueError(f"{c.kind} needs a nonzero vector")


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
    i, j, _, _, d, relation = b
    return _priced(relation, math.hypot(st.px[i] - st.px[j], st.py[i] - st.py[j]) - d)


def _center_distance_violations(records):
    i, j, _, _, d, relation = _columns(records)
    inequality = relation == INEQUALITY

    def price(st, px, py, theta):
        C = math_map(math.hypot, px[i] - px[j], py[i] - py[j]) - d
        return np.where(inequality, _positive_part(-C), np.abs(C))

    return price


PAIRWISE_DISTANCE = _kind("pairwise_distance", _bind_pairwise_distance, _pairwise_distance,
                          _center_distance_violation, violations=_center_distance_violations,
                          schedule=_RELAX, relations=_EITHER, checks=(_needs_distance,))


def _bind_focal_point(c, ctx):
    """The pairwise record, with the focal's weight pinned to 0 unless
    ``pin_focal`` is off: a pinned focal is an infinite-mass anchor."""
    i, j = c.particles
    wj = 0.0 if c.pin_focal else ctx.proj_w[j]
    return i, j, ctx.proj_w[i], wj, c.distance, c.relation


FOCAL_POINT = _kind("focal_point", _bind_focal_point, _pairwise_distance,
                    _center_distance_violation, violations=_center_distance_violations,
                    schedule=_RELAX, relations=_EITHER, checks=(_needs_distance,))


def _bind_traffic_lane(c, ctx):
    """(member, origin, their weights, clearance, lane vector, its squared
    and plain norm); a pinned origin gets weight 0."""
    i, j = c.particles
    vx, vy = c.vector
    wj = 0.0 if c.pin_focal else ctx.proj_w[j]
    return i, j, ctx.proj_w[i], wj, c.distance, vx, vy, vx * vx + vy * vy, c.vector.norm()


def _traffic_lane(out, b, st, k, tiebreak):
    """Clearance corridor around the axis from particle j along v.

    The axis-projection point acts as a ghost rigidly attached to j: its
    share of the correction moves j. Inactive while the perpendicular
    distance is at least d.
    """
    i, j, wi, wj, d, vx, vy, norm2, norm = b
    px, py = st.px, st.py
    xi, yi, xj, yj = px[i], py[i], px[j], py[j]
    t = ((xi - xj) * vx + (yi - yj) * vy) / norm2
    dx = xi - (xj + t * vx)
    dy = yi - (yj + t * vy)
    dist = math.hypot(dx, dy)
    if dist >= d:
        return False
    if dist < _EPS:
        # on the axis: push left of v
        nx, ny = -vy / norm, vx / norm
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


def _traffic_lane_violation(b, st) -> float:
    i, j, _, _, d, vx, vy, norm2, _ = b
    px, py = st.px, st.py
    xi, yi, xj, yj = px[i], py[i], px[j], py[j]
    t = ((xi - xj) * vx + (yi - yj) * vy) / norm2
    return max(0.0, d - math.hypot(xi - (xj + t * vx), yi - (yj + t * vy)))


def _traffic_lane_violations(records):
    i, j, _, _, d, vx, vy, norm2, _ = _columns(records)
    # a member whose squared distance from the axis passes d^2 by this
    # margin, far wider than the rounding of either square, lies beyond d
    # whatever the last bit of its hypot, so it is priced 0.0 without
    # one. Below 1e-150 the squares lose precision, and none is skipped
    clear = np.where(d > 1e-150, d * d * (1.0 + 1e-9), np.inf)

    def price(st, px, py, theta):
        xi, yi, xj, yj = px[i], py[i], px[j], py[j]
        t = ((xi - xj) * vx + (yi - yj) * vy) / norm2
        dx, dy = xi - (xj + t * vx), yi - (yj + t * vy)
        near = (~(dx * dx + dy * dy > clear)).nonzero()[0]
        v = np.zeros(len(t))
        v[near] = _positive_part(d[near] - math_map(math.hypot, dx[near], dy[near]))
        return v

    return price


# the projection only ever pushes out of the corridor, so an equality
# lane would be priced for what is never projected
TRAFFIC_LANE = _kind("traffic_lane", _bind_traffic_lane, _traffic_lane, _traffic_lane_violation,
                     violations=_traffic_lane_violations, schedule=_STIFFEN,
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


def _bind_heat_point(c, ctx):
    """(participants, target point, anchor, weights, inverse masses): the
    point when given, else the first participant anchors the rest."""
    if c.point is not None:
        return c.particles, c.point, -1, ctx.masses, ctx.proj_w
    return c.particles[1:], None, c.particles[0], ctx.masses, ctx.proj_w


def _heat_point(out, b, st, k, tiebreak):
    """Pull the weighted center of the participants to the target."""
    members, target, anchor, weights, w = b
    if target is None:
        target = (st.px[anchor], st.py[anchor])
    return _project_center_to_target(out, members, st.px, st.py, weights, w, target, k)


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


def _bind_focal_symmetry(c, ctx):
    """(focal, members, axis vector and its squared norm, masses, inverse
    masses)."""
    vx, vy = c.vector
    return c.particles[0], c.particles[1:], vx, vy, vx * vx + vy * vy, ctx.masses, ctx.proj_w


def _focal_symmetry(out, b, st, k, tiebreak):
    """Center the members' center of mass on the ray from the focal along
    v (the moving target is the center's own projection)."""
    focal, members, vx, vy, norm2, masses, w = b
    px, py = st.px, st.py
    fx, fy = px[focal], py[focal]
    cx, cy, _ = weighted_center(members, px, py, masses)
    t = ((cx - fx) * vx + (cy - fy) * vy) / norm2
    if t < 0.0:
        t = 0.0
    target = (fx + t * vx, fy + t * vy)
    return _project_center_to_target(out, members, px, py, masses, w, target, k)


def _focal_symmetry_violation(b, st) -> float:
    focal, members, vx, vy, norm2, masses, _ = b
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


def _bind_visual_balance(c, ctx):
    """The heat-point record of a pull to the room centroid, weighted by
    footprint area (the visual weight); the one place that picks visual
    balance's target."""
    return c.particles, ctx.centroid, -1, ctx.visual_weight, ctx.proj_w


VISUAL_BALANCE = _kind("visual_balance", _bind_visual_balance, _heat_point,
                       _heat_point_violation, schedule=_RELAX, arity=None)


def _bind_wall_distance(c, ctx):
    i = c.particles[0]
    return i, ctx.proj_w[i], ctx.room, c.distance, c.relation


def _wall_distance(out, b, st, k, tiebreak):
    """Hold particle i at (or beyond) distance d from the nearest wall.

    The wall point is a fixed anchor, so only the particle moves.
    """
    i, wi, room, d, relation = b
    if wi <= 0.0 or k == 0.0:
        return False
    xi, yi = st.px[i], st.py[i]
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


# Extra separation between the nearest-wall ghost points of two colliding,
# wall-constrained objects, at their hosts' radii: it slides the hosts apart
# along the wall instead of pushing them off it. The ghost points take the
# place of the centres, so the kernel is the collision's; its own name lets
# a wrapper installed on this module tell the two apart.
project_wall_ghost_collision = project_collision


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


def _pairwise_orientation_violations(records):
    i, j, _, mode, offset, target = zip(*records)
    i, j, offset = np.array(i), np.array(j), np.array(offset, dtype=float)
    mode = np.array(mode)
    face, match = np.flatnonzero(mode == ORIENT_FACE), np.flatnonzero(mode == ORIENT_MATCH)
    i_face, j_face, j_match = i[face], j[face], j[match]
    # the fixed targets, with a placeholder where the mode sets the target
    fixed = np.array([t if m == ORIENT_FIXED else 0.0 for m, t in zip(mode, target)])

    def price(st, px, py, theta):
        goal = fixed.copy()
        dx = px[j_face] - px[i_face]
        dy = py[j_face] - py[i_face]
        goal[face] = math_map(math.atan2, dy, dx) + offset[face]
        goal[match] = theta[j_match] + offset[match]
        v = np.abs(wrap_angles(goal - theta[i]))
        # a face target on top of its particle is undefined and priced 0
        v[face[(dx == 0.0) & (dy == 0.0)]] = 0.0
        return v

    return price


def _needs_orientation_mode(c: Constraint) -> None:
    if c.orientation_mode not in (ORIENT_FACE, ORIENT_MATCH, ORIENT_FIXED):
        raise ValueError(f"unknown orientation mode {c.orientation_mode!r}")
    if c.orientation_mode == ORIENT_FIXED and c.angle_target is None:
        raise ValueError("fixed orientation needs an angle target")


# the rotation always turns to the target and the price |angle| is never
# negative, so only the equality is meaningful
PAIRWISE_ORIENTATION = _kind("pairwise_orientation", _bind_pairwise_orientation,
                             _pairwise_orientation, _pairwise_orientation_violation,
                             violations=_pairwise_orientation_violations, schedule=_RELAX,
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


def _bind_wall_orientation(c, ctx):
    i = c.particles[0]
    return i, ctx.proj_w[i], ctx.room, c.angle_offset


def _wall_orientation(out, b, st, k, tiebreak):
    """Align particle i with the nearest wall (offset 0 is parallel,
    pi/2 is perpendicular to it)."""
    i, wi, room, offset = b
    if wi <= 0.0 or k == 0.0:
        return False
    theta_i = st.theta[i]
    target = wall_orientation_target(room, (st.px[i], st.py[i]), theta_i, offset)
    return project_pairwise_orientation(out, i, theta_i, target, wi, k)


def _wall_orientation_violation(b, st) -> float:
    i, _, room, offset = b
    target = wall_orientation_target(room, (st.px[i], st.py[i]), st.theta[i], offset)
    return abs(wrap_angle(target - st.theta[i]))


WALL_ORIENTATION = _kind("wall_orientation", _bind_wall_orientation, _wall_orientation,
                         _wall_orientation_violation, schedule=_HARD, arity=1, weight=20.0)


def _bind_stacking(c, ctx):
    bottom, top = c.particles
    # a pile's base stays on the ground: only a stacked bottom may move
    w_bottom = ctx.proj_w[bottom] if bottom in ctx.stack_top else 0.0
    return bottom, top, w_bottom, ctx.proj_w[top], c.height_gap


def _stacking(out, b, st, k, tiebreak):
    """Stack ``top`` onto ``bottom``: the vertical gap between centers
    equals half the summed heights, and the ground-plane coordinates
    coincide. Both parts split by inverse mass."""
    bottom, top, w_bottom, w_top, height_gap = b
    wsum = w_bottom + w_top
    if wsum <= 0.0 or k == 0.0:
        return False
    px, py, pz = st.px, st.py, st.pz
    Cz = pz[top] - (pz[bottom] + height_gap)
    ex = px[top] - px[bottom]
    ey = py[top] - py[bottom]
    if Cz == 0.0 and ex == 0.0 and ey == 0.0:
        return False
    s = k / wsum
    if w_top > 0.0:
        out(top, -s * w_top * ex, -s * w_top * ey, -s * w_top * Cz, 0.0)
    if w_bottom > 0.0:
        out(bottom, s * w_bottom * ex, s * w_bottom * ey, s * w_bottom * Cz, 0.0)
    return True


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


def project_boundary(
    out: Sink,
    i: int,
    xi: float,
    yi: float,
    wi: float,
    radius: float,
    room: Room,
) -> bool:
    """Push particle i inward so its bounding circle sits inside the room,
    always at full stiffness.

    A circle that pokes out by at most 1e-12 (``pokes_out``; in a
    rectangle the side clearances decide it, touching circles included)
    is left alone. Otherwise ``clamp_inside`` moves it in. If the clamp
    leaves it poking out by more than 1e-9, the particle goes to the
    room centroid and a warning is logged.
    """
    if wi <= 0.0:
        return False
    if not pokes_out(room, xi, yi, radius, 1e-12):
        return False
    x, y = clamp_inside(room, xi, yi, radius)
    if pokes_out(room, x, y, radius, 1e-9):
        log.warning("the clamp could not bring a circle of radius %.3g inside the room; "
                    "moving it to the room centroid", radius)
        x, y = room.centroid
    dx = x - xi
    dy = y - yi
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


def _world_curve(g: int, curve: Curve, cache: list, st) -> Curve:
    """The group's curve at the pose of its particle g. The cache ``[x,
    y, theta, world curve]`` keeps the world curve for as long as the
    group particle holds the same pose objects, so the members of one
    group share one transform (and one arc-angle computation) per pose."""
    x, y, th = st.px[g], st.py[g], st.theta[g]
    # identity, not equality: the same float objects carry the same bits,
    # where 0.0 == -0.0 would not, and the cache keeps them alive
    if cache[0] is not x or cache[1] is not y or cache[2] is not th:
        cache[3] = curve.transformed(Vec2(x, y), th)
        cache[0], cache[1], cache[2] = x, y, th
    return cache[3]


def _curve_anchor(b, st) -> tuple[float, float]:
    """Closest point (x, y) to the member on its group's world curve."""
    m, _, g, curve, cache = b
    return closest_point_on_curve(_world_curve(g, curve, cache, st), (st.px[m], st.py[m]))


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


def _group_curve_violations(records):
    members = np.array([b[0] for b in records])
    # each group once, with the row of its group for every record
    groups, row = {}, []
    for _, _, g, curve, cache in records:
        row.append(groups.setdefault(id(cache), (len(groups), g, curve, cache))[0])
    groups, row = list(groups.values()), np.array(row)

    def price(st, px, py, theta):
        curves = [_world_curve(g, curve, cache, st) for _, g, curve, cache in groups]
        xs, ys = px[members], py[members]
        qx, qy = closest_points_on_curves(curves, row, xs, ys)
        return math_map(math.hypot, xs - qx, ys - qy)

    return price


GROUP_CURVE = _kind("group_curve", _bind_group_curve, _group_curve, _group_curve_violation,
                    violations=_group_curve_violations, schedule=_RELAX, generated=True)

KINDS = tuple(SPECS)
