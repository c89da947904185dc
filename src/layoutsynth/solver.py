"""Iterative layout synthesis by sequential constraint projection.

Each iteration projects the authored constraints one after another
(Gauss-Seidel), interleaved round-robin across kinds and each at the
stiffness its schedule gives for that iteration, then regenerates and projects
contact constraints — collisions, accessibility, boundary containment —
from a broad phase, hard ones last. Every broad phase of an attempt
walks one pair source, which ``neighbour_list`` picks once from the
configured broad phase: its steps, settle sweeps and fresh pricings
(the attempt's first pricing, the re-check of a new best candidate and
each settle's closing pricing) refresh it through ``build_hash``. Under
the naive broad phase the source is every pair of objects
(``NaiveIndex``). Otherwise it is a neighbour list, which keeps only
the pairs within collision or zone reach (plus a skin) of each other
and, at each refresh, re-buckets only the objects that have strayed
half a skin. Only the annealer builds a fresh spatial hash per pricing.

What a kind projects and how it is priced comes from its record in
``constraints.SPECS``. ``SolveContext`` binds every authored constraint
once per solve (``Bound``: its kind's ``project`` and ``violation``
records with the record its kind's ``bind`` resolved, its weight and
its schedule slot), and the step's round-robin loop calls those records
directly. ``authored_energy`` prices them: one ``violation`` call per
bound record, unless some kind with an array kernel (``violations``)
has at least ``ARRAY_PRICING_RECORDS`` records. Then the context has
stacked each such kind's columns once, every kind is priced as one
array (the narrow ones through their scalar record), and the total and
the per-kind sums are assembled in pricing order with the bits of the
per-record loop. ``project_constraint`` projects one bound entry
for the stacking re-alignment and the settle's orientation snaps, both
selected once per solve (``ctx.stacking_constraints``,
``ctx.orientation_snaps``). The
contact glue lives here: the step, the settle and ``_boundary_pass``
call the ``constraints.project_*`` contact kernels with each object's
contact root (``ctx.contact_root``, its pile's base) as its particle id,
helped by ``zone_center`` and ``wall_ghost_corrections``.

Every projection writes its corrections straight into the run's
``_Applier`` through a sink, ``out(particle, dx, dy, dz, dtheta)``, and
builds no list of them. The sink applies each correction in place. A
projection reads all of its inputs before it writes, so applying at once
gives the bits that computing every correction first would.

The run returns the lowest-energy snapshot that satisfies the hard
constraints, together with the full energy trace.

Results fixed by unchanged inputs are computed once and reused, each
bit-identical to a recomputation because it is the same arithmetic on
the same operands:

* the authored part of a step's pricing, which the attempt hands to the
  fresh re-check of a new best candidate;
* a curve group's world curve, and an arc's start, sweep and radius,
  while the group particle keeps its pose objects;
* one stiffness per distinct schedule per step, since a schedule's value
  depends only on (schedule, initial stiffness, rate) and the iteration.

The world curves live on the run's ``SolveContext``. A run writes
nothing onto its scene: each stiffness is passed to the projection,
never stored.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from . import constraints as cn
from .constraints import Constraint
from .geometry import Vec2, normalize_angle
from .model import Scene, nearest_wall_point, zone_half_side
from .spatial import NaiveIndex, NeighbourList, SpatialHash, rebuild

# lowest-energy iterates given a hard-constraint settling attempt
_SETTLE_CANDIDATES = 3
# sweep budget of one settle
_SETTLE_MAX_SWEEPS = 500
# worst circle overlap and boundary violation a feasible layout may keep
FEASIBILITY_TOLERANCE = 1e-6
# bound records of one kind from which its array kernel prices them
# faster than its scalar record, even in a scene where no other kind
# shares the array path's fixed cost (see authored_energy). Measured per
# pricing after 30 steps, 8 to 192 records of each kind with a kernel
# alone in theater1 (200 chairs) and theater2: the last kinds to cross,
# the pairwise and focal distances, cross between 96 and 128 records
ARRAY_PRICING_RECORDS = 128

log = logging.getLogger(__name__)


class SolverNumericsError(RuntimeError):
    """A projection produced a non-finite pose."""


@dataclass
class SolverConfig:
    """The settings callers choose. Authored constraints are always
    projected one after another, interleaved round-robin across kinds,
    and feasibility means ``FEASIBILITY_TOLERANCE``."""

    max_iterations: int = 300
    termination_window: int = 50
    seed: int = 0
    broad_phase: str = "hash"
    feasibility_tolerance: ClassVar[float] = FEASIBILITY_TOLERANCE

    def validate(self) -> None:
        check_count("termination_window", self.termination_window)
        check_count("max_iterations", self.max_iterations)
        if self.broad_phase not in ("hash", "naive"):
            raise ValueError(f"unknown broad phase {self.broad_phase!r}")
        check_seed(self.seed)


def check_seed(seed) -> None:
    """Reject a seed that is not an integer >= 0; numpy integers pass,
    and a bool is no seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, not {seed!r}")


def check_count(name: str, value) -> None:
    """Reject an iteration budget or window that is not an integer >= 1,
    naming its field; numpy integers pass, and a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")


Pose = tuple[float, float, float, float]  # x, y, z, orientation


@dataclass
class EnergyTrace:
    """Per-iteration energies plus the energy and row of the returned
    layout.

    ``energies[l]`` is the layout energy after iteration l (index 0 is
    the initial state). ``best_energy`` belongs to the returned snapshot:
    the lowest-energy iterate that also satisfies the hard contact
    constraints, which is not necessarily the global minimum of
    ``energies``.
    """

    energies: list[float] = field(default_factory=list)
    violation_sums: list[dict[str, float]] = field(default_factory=list)
    best_energy: float = math.inf
    best_iteration: int = -1
    degenerate_events: int = 0
    restarts: int = 0


class LayoutState:
    """Mutable pose arrays for one synthesis run."""

    __slots__ = ("px", "py", "pz", "theta")

    def __init__(self, px, py, pz, theta):
        self.px = list(px)
        self.py = list(py)
        self.pz = list(pz)
        self.theta = list(theta)

    def snapshot(self) -> list[Pose]:
        return list(zip(self.px, self.py, self.pz, self.theta))

    def restore(self, poses: list[Pose]) -> None:
        for i, (x, y, z, th) in enumerate(poses):
            self.px[i] = x
            self.py[i] = y
            self.pz[i] = z
            self.theta[i] = th


class Bound(NamedTuple):
    """One authored constraint bound for a solve: ``project(out, record,
    st, k, tiebreak)`` and ``violation(record, st)`` are its kind's
    records, ``record`` what its kind's ``bind`` resolved, and ``slot``
    indexes the step's stiffness of its schedule."""

    kind: str
    project: Callable[..., bool]
    violation: Callable[..., float]
    record: tuple
    weight: float
    slot: int


class SolveContext:
    """Per-run view of the scene prepared for fast projection, plus the
    world curves fixed by unchanged group poses. It alone says which
    particles move: ``free`` lists, in index order, those neither fixed
    nor rigid members (``proj_w > 0`` and ``owner < 0``), which an
    initialization samples and the annealer proposes over;
    ``members_of[g]`` lists group particle g's rigid members with their
    (dx, dy, dtheta) offsets, in ``scene.groups`` order, and
    ``owner[m]`` names member m's group particle (-1 for the rest)."""

    def __init__(self, scene: Scene):
        scene.validate()
        self.scene = scene
        self.room = scene.room
        self.centroid = scene.room.centroid
        n = len(scene.particles)
        self.n = n
        self.masses = [p.mass for p in scene.particles]

        self.radius = [0.0] * n
        self.b_diag = [0.0] * n
        self.half_height = [0.0] * n
        self.visual_weight = [0.0] * n
        # (local center, diagonal, half side) of each enabled zone
        self.zones: list[list[tuple[Vec2, float, float]]] = [[] for _ in range(n)]
        self.reach = [0.0] * n
        self.object_particles: list[int] = []
        for obj in scene.objects:
            i = obj.particle_index
            self.object_particles.append(i)
            self.radius[i] = obj.bbox.bounding_radius
            self.b_diag[i] = obj.bbox.footprint_diagonal
            self.half_height[i] = obj.bbox.half_height
            self.visual_weight[i] = obj.bbox.footprint_area
            for region in obj.accessibility:
                if region.enabled:
                    self.zones[i].append(
                        (region.local_center, region.diagonal, zone_half_side(region.diagonal))
                    )
                    self.reach[i] = max(
                        self.reach[i], region.local_center.norm() + 0.5 * region.diagonal
                    )
        self.object_particles.sort()
        # a fresh hash inserts each object grown by its accessibility reach,
        # so one candidate-pair pass serves collisions and zone activations
        # alike; the neighbour list tests each pair's own reach instead
        self.broad_radius = [self.radius[i] + self.reach[i] for i in range(n)]
        # cells keyed to the median extent rather than the max: a single
        # oversized object (a stage) must not coarsen everyone's buckets,
        # yet none may cover more than about eight cells a side
        spans = sorted(self.broad_radius[i] for i in self.object_particles)
        self.cell_size = max(2.0 * spans[len(spans) // 2], 0.25 * spans[-1]) if spans else 1.0

        # rigid-group routing
        index = {obj.id: obj.particle_index for obj in scene.objects}
        members = {
            group.id: [index[m] for m in group.member_object_ids] for group in scene.groups
        }
        self.owner = [-1] * n
        self.members_of: dict[int, list[tuple[int, tuple[float, float, float]]]] = {}
        self.group_by_id = {group.id: group for group in scene.groups}
        for group in scene.groups:
            if group.rigid:
                g = group.particle_index
                for m in members[group.id]:
                    self.owner[m] = g
                self.members_of[g] = list(zip(members[group.id], group.member_offsets))

        # inverse mass used when splitting corrections: rigid members
        # resist with their whole group's mass
        self.proj_w = [p.inverse_mass for p in scene.particles]
        for g, rows in self.members_of.items():
            for m, _ in rows:
                self.proj_w[m] = scene.particles[g].inverse_mass
        # a fixed particle's inverse mass is exactly 0
        self.free = [i for i in range(n) if self.proj_w[i] > 0.0 and self.owner[i] < 0]

        # the scene's own constraints: a run never writes to them
        self.user_constraints: list[Constraint] = list(scene.constraints)
        # member-to-curve attachments of the curve-carrying (nonrigid) groups
        self.user_constraints.extend(
            Constraint(cn.GROUP_CURVE, (m, group.particle_index), group_id=group.id)
            for group in scene.groups if group.curve is not None for m in members[group.id]
        )
        self.has_wall = {
            c.particles[0] for c in self.user_constraints if c.kind == cn.WALL_DISTANCE
        }
        # a wall-hugging rigid group drags all its members along the wall,
        # so every member joins the wall-ghost bookkeeping
        wall_groups = {self.owner[i] for i in self.has_wall if self.owner[i] >= 0}
        for g, rows in self.members_of.items():
            if g in wall_groups:
                self.has_wall.update(m for m, _ in rows)
        stacks = [c.particles for c in self.user_constraints if c.kind == cn.STACKING]
        # only objects stacked on another may leave the ground; everything
        # else keeps its authored height
        self.stack_top = {top for _, top in stacks}
        # contact pushes against any member of a stack move the whole pile:
        # route them to the chain's base object (the scene's validation
        # guarantees that every chain ends)
        parent = {top: bottom for bottom, top in stacks}
        self.contact_root = list(range(n))
        for i in range(n):
            root = i
            while root in parent:
                root = parent[root]
            self.contact_root[i] = root
        # objects whose boundary state can still change after the step's
        # boundary pass (corrections routed to a pile base or rigid group
        # can leave members, or the base itself, poking out)
        routed = {i for i in range(n) if self.contact_root[i] != i}
        routed.update(self.contact_root[i] for i in list(routed))
        routed.update(i for i in self.object_particles if self.owner[i] >= 0)
        self.boundary_recheck = sorted(routed & set(self.object_particles))

        # world curves fixed by unchanged group poses, keyed by the pose
        # float objects themselves (see constraints._curve_anchor)
        self.world_curves: dict[str, list] = {}

        # every constraint bound once, in user_constraints order (the
        # pricing order); constraints that share a stiffness schedule share
        # its value, so a step computes one stiffness per slot:
        # schedules[slot] is the slot's first constraint, and repr tells
        # 0.0 from -0.0
        self.schedules: list[Constraint] = []
        self.pricing: list[Bound] = []
        slots: dict[tuple, int] = {}
        by_kind: dict[str, list[Bound]] = {}
        for c in self.user_constraints:
            key = (c.schedule, repr(c.stiffness_initial), repr(c.rate))
            if key not in slots:
                slots[key] = len(self.schedules)
                self.schedules.append(c)
            spec = cn.SPECS[c.kind]
            bound = Bound(c.kind, spec.project, spec.violation, spec.bind(c, self), c.weight,
                          slots[key])
            self.pricing.append(bound)
            by_kind.setdefault(c.kind, []).append(bound)
        self.stacking_constraints = by_kind.get(cn.STACKING, [])
        # the settle's orientation snaps, in pricing order: only free
        # particles turn, since rotating a rigid group would swing its members
        self.orientation_snaps = [
            b for c, b in zip(self.user_constraints, self.pricing)
            if c.kind in (cn.PAIRWISE_ORIENTATION, cn.WALL_ORIENTATION)
            and self.owner[c.particles[0]] < 0 and c.particles[0] not in self.members_of
        ]

        # round-robin interleavings, one per starting kind: row r takes each
        # kind's r-th entry in turn; iteration l uses rotation (l-1) mod len(kinds)
        kinds = [k for k in cn.KINDS if k in by_kind]
        rotations = [kinds[start:] + kinds[:start] for start in range(max(1, len(kinds)))]
        depth = max(map(len, by_kind.values()), default=0)
        self.interleavings: list[list[Bound]] = [
            [by_kind[kind][row] for row in range(depth) for kind in rotated
             if row < len(by_kind[kind])]
            for rotated in rotations
        ]
        self._bind_array_pricing()

    def _bind_array_pricing(self) -> None:
        """``array_pricing``: each kind's pricing positions and a price
        function of ``(st, px, py, theta)`` that returns their violations
        as one array, when some kind has an array kernel and at least
        ``ARRAY_PRICING_RECORDS`` records; otherwise empty. The other
        kinds' price functions call the scalar record once per record.
        ``pricing_weights`` holds every record's weight in pricing order."""
        positions: dict[str, list[int]] = {}
        for p, b in enumerate(self.pricing):
            positions.setdefault(b.kind, []).append(p)

        def wide(kind: str) -> bool:
            return (cn.SPECS[kind].violations is not None
                    and len(positions[kind]) >= ARRAY_PRICING_RECORDS)

        self.array_pricing: list[tuple[str, np.ndarray, Callable[..., np.ndarray]]] = []
        self.pricing_weights = np.array([b.weight for b in self.pricing], dtype=float)
        if not any(map(wide, positions)):
            return
        for kind, rows in positions.items():
            spec = cn.SPECS[kind]
            records = [self.pricing[p].record for p in rows]
            if wide(kind):
                price = spec.violations(records)
            else:
                def price(st, px, py, theta, violation=spec.violation, records=records):
                    return np.array([violation(b, st) for b in records], dtype=float)
            self.array_pricing.append((kind, np.array(rows), price))


def initialize(ctx: SolveContext, seed: int) -> LayoutState:
    """Random starting poses for ``ctx.scene``: each free particle
    (``ctx.free``, in index order) draws a position uniform over the room
    polygon, then an orientation uniform over the circle. Every other
    particle keeps its authored pose, and rigid members then follow their
    group particle (``ctx.members_of``)."""
    rng = np.random.default_rng(seed)
    room = ctx.room
    min_x, min_y, max_x, max_y = room.bounds()
    particles = ctx.scene.particles
    state = LayoutState(
        [p.position.x for p in particles], [p.position.y for p in particles],
        [p.z for p in particles], [p.orientation for p in particles],
    )
    for i in ctx.free:
        for _ in range(10_000):
            x = rng.uniform(min_x, max_x)
            y = rng.uniform(min_y, max_y)
            if room.contains((x, y)):
                break
        else:
            raise RuntimeError("rejection sampling failed; room area is ~0")
        state.px[i], state.py[i] = x, y
        state.theta[i] = rng.uniform(0.0, 2.0 * math.pi)
    for g in ctx.members_of:
        place_members(state, ctx, g)
    return state


def place_members(state: LayoutState, ctx: SolveContext, g: int) -> None:
    """Pose group ``g``'s rigid members from its pose, angles wrapped by ``normalize_angle``."""
    gx, gy, gth = state.px[g], state.py[g], state.theta[g]
    c, s = math.cos(gth), math.sin(gth)
    for m, (dx, dy, dth) in ctx.members_of[g]:
        state.px[m] = gx + c * dx - s * dy
        state.py[m] = gy + s * dx + c * dy
        state.theta[m] = normalize_angle(gth + dth)


class _Applier:
    """The sinks projections write their corrections to, routing rigid
    members to their group particle and guarding against non-finite
    poses.

    ``out(particle, dx, dy, dz, dtheta)`` applies each correction in
    place, and ``project`` projects one bound constraint through it.
    ``label`` names what is being projected, for the error a non-finite
    pose raises."""

    def __init__(self, state: LayoutState, ctx: SolveContext):
        self.state = state
        # the pose lists and routing tables every correction touches
        self.px, self.py, self.pz, self.theta = state.px, state.py, state.pz, state.theta
        self.owner = ctx.owner
        self.members_of = ctx.members_of
        self.label = ""
        self.out = self._apply

    def _apply(self, i: int, dx: float, dy: float, dz: float, dtheta: float) -> None:
        """Correct ``i`` or its rigid group, posing members here, not by
        ``place_members``: angles stay unwrapped until the step's closing
        ``normalize_angle`` pass, as wrapping moves later cos/sin bits."""
        px, py, theta = self.px, self.py, self.theta
        target = self.owner[i]
        if target < 0:
            target = i
        x = px[target] + dx
        y = py[target] + dy
        th = theta[target] + dtheta
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
            raise SolverNumericsError(f"non-finite pose after projecting {self.label}")
        px[target] = x
        py[target] = y
        theta[target] = th
        if dz:
            z = self.pz[i] + dz
            if not math.isfinite(z):
                raise SolverNumericsError(f"non-finite height after projecting {self.label}")
            self.pz[i] = z
        rows = self.members_of.get(target)
        if rows:
            c, s = math.cos(th), math.sin(th)
            for m, (ox, oy, oth) in rows:
                px[m] = x + c * ox - s * oy
                py[m] = y + s * ox + c * oy
                theta[m] = th + oth

    def project(self, b: Bound, k: float, tiebreak=None) -> bool:
        """Project one bound constraint at stiffness ``k``."""
        self.label = b.kind
        return project_constraint(self.out, b, self.state, k, tiebreak)


def project_constraint(out, b: Bound, st: LayoutState, k: float, tiebreak=None) -> bool:
    """Project one bound constraint at stiffness ``k``, writing its
    corrections to the sink ``out``; True when it wrote any."""
    return b.project(out, b.record, st, k, tiebreak)


# ---------------------------------------------------------------------------
# contact generation


def neighbour_list(ctx: SolveContext, broad_phase: str = "hash") -> NaiveIndex | NeighbourList:
    """An attempt's pair source: every pair of objects under the naive
    broad phase, otherwise a neighbour list bucketed at its first refresh.
    The list pairs two objects of different rigid groups only within their
    collision or zone reach (``ctx.radius``, ``ctx.reach``) plus a skin
    that the list derives from the cell size."""
    if broad_phase == "naive":
        return NaiveIndex(ctx.object_particles)
    return NeighbourList(
        ctx.radius, ctx.reach, ctx.owner, ctx.object_particles, ctx.cell_size
    )


def build_hash(
    st: LayoutState,
    ctx: SolveContext,
    neighbours: NaiveIndex | NeighbourList | None = None,
):
    """The broad-phase index for the current poses: empty when collisions
    are off, otherwise the given pair source brought up to date (a solve
    always passes its attempt's), or without one a fresh hash."""
    if not ctx.scene.collisions_enabled:
        return NaiveIndex(())  # the narrow phase would discard any pairs
    if neighbours is not None:
        return neighbours.refresh(st.px, st.py)
    # insertion extents carry the accessibility reach so zone pairs also
    # share cells; soundness holds for any cell size
    return rebuild(
        st.px, st.py, ctx.broad_radius, ctx.object_particles,
        cell_size=ctx.cell_size,
    )


def generate_contacts(
    st: LayoutState,
    ctx: SolveContext,
    grid: SpatialHash,
    with_accessibility: bool = True,
) -> tuple[list[tuple[int, int]], list[tuple[int, int, int]], list[tuple[int, int]]]:
    """(collision pairs, accessibility activations, wall-ghost pairs) for
    the current poses. An activation ``(i, j, z)`` puts object i in the
    zone ``ctx.zones[j][z]``.

    Pairs inside one rigid group and pairs separated vertically never
    collide. Ghost pairs are the colliding pairs whose two objects both
    carry wall-distance constraints.
    """
    collisions: list[tuple[int, int]] = []
    ghosts: list[tuple[int, int]] = []
    activations: list[tuple[int, int, int]] = []
    if not ctx.scene.collisions_enabled:
        return collisions, activations, ghosts

    px, py = st.px, st.py
    pz, half_height = st.pz, ctx.half_height
    radius, reach, owner, zones = ctx.radius, ctx.reach, ctx.owner, ctx.zones
    has_wall = ctx.has_wall
    zone_cache: dict[int, tuple] = {}

    def owner_faces(j: int) -> tuple:
        cached = zone_cache.get(j)
        if cached is None:
            cj, sj = math.cos(st.theta[j]), math.sin(st.theta[j])
            xj, yj = px[j], py[j]
            cached = (
                cj,
                sj,
                [
                    (z, xj + cj * lc.x - sj * lc.y, yj + sj * lc.x + cj * lc.y, half_side)
                    for z, (lc, _, half_side) in enumerate(zones[j])
                ],
            )
            zone_cache[j] = cached
        return cached

    def activate(i: int, j: int) -> None:
        xi, yi = px[i], py[i]
        ri = radius[i]
        span = reach[j] + ri
        dx = xi - px[j]
        dy = yi - py[j]
        if dx * dx + dy * dy > span * span:
            return
        cj, sj, faces = owner_faces(j)
        for z, cx, cy, half_side in faces:
            relx = xi - cx
            rely = yi - cy
            lx = cj * relx + sj * rely
            ly = -sj * relx + cj * rely
            qx = half_side if lx > half_side else (-half_side if lx < -half_side else lx)
            qy = half_side if ly > half_side else (-half_side if ly < -half_side else ly)
            dqx = lx - qx
            dqy = ly - qy
            if dqx * dqx + dqy * dqy <= ri * ri:
                activations.append((i, j, z))

    for i, j in grid.candidate_pairs():
        if owner[i] >= 0 and owner[i] == owner[j]:
            continue
        lo = pz[i] - half_height[i]
        hi = pz[i] + half_height[i]
        lo_j = pz[j] - half_height[j]
        hi_j = pz[j] + half_height[j]
        if not (lo < hi_j - 1e-12 and lo_j < hi - 1e-12):
            continue
        dx = px[i] - px[j]
        dy = py[i] - py[j]
        d2 = dx * dx + dy * dy
        rsum = radius[i] + radius[j]
        if d2 < rsum * rsum:
            collisions.append((i, j))
            if i in has_wall and j in has_wall:
                ghosts.append((i, j))
        if with_accessibility:
            if zones[j]:
                activate(i, j)
            if zones[i]:
                activate(j, i)
    return collisions, activations, ghosts


def zone_center(st: LayoutState, ctx: SolveContext, j: int, z: int):
    """(world center, diagonal) of object j's zone ``ctx.zones[j][z]`` at
    the current poses."""
    (lx, ly), diagonal, _ = ctx.zones[j][z]
    c, s = math.cos(st.theta[j]), math.sin(st.theta[j])
    return (st.px[j] + c * lx - s * ly, st.py[j] + s * lx + c * ly), diagonal


def wall_ghost_corrections(
    out, i: int, j: int, st: LayoutState, ctx: SolveContext, k: float, tiebreak=None
) -> bool:
    """Separate the nearest-wall ghost points of objects i and j at the
    current poses, each correction going to its object's contact root."""
    gi, _, _ = nearest_wall_point(ctx.room, (st.px[i], st.py[i]))
    gj, _, _ = nearest_wall_point(ctx.room, (st.px[j], st.py[j]))
    w, r, root = ctx.proj_w, ctx.radius, ctx.contact_root
    return cn.project_wall_ghost_collision(
        out, root[i], root[j], gi.x, gi.y, gj.x, gj.y, w[i], w[j], r[i], r[j], k, tiebreak
    )


# ---------------------------------------------------------------------------
# energy


def authored_energy(st: LayoutState, ctx: SolveContext) -> tuple[float, dict[str, float]]:
    """The authored part of a pricing: (sum of weight * C^2, per-kind
    violation sums) over the bound constraints, in pricing order.

    A scene with a wide kind (``ctx.array_pricing``) prices each kind as
    one array and assembles the bits of the per-record loop: the total
    and each kind's sum accumulate strictly in pricing order (``cumsum``,
    never a pairwise or compensated sum), and the sums keep the order in
    which the kinds first violate. The loop skips zero violations, which
    the sums add; every violation and weight is nonnegative, so adding a
    zero changes no bit."""
    if not ctx.array_pricing:
        sums: dict[str, float] = {}
        total = 0.0
        for kind, _, violation, record, weight, _ in ctx.pricing:
            v = violation(record, st)
            if v:
                sums[kind] = sums.get(kind, 0.0) + v
                total += weight * v * v
        return total, sums
    px, py, theta = (np.fromiter(a, float, ctx.n) for a in (st.px, st.py, st.theta))
    v = np.empty(len(ctx.pricing))
    violated = []
    for kind, positions, price in ctx.array_pricing:
        vk = price(st, px, py, theta)
        v[positions] = vk
        hit = vk.nonzero()[0]
        if hit.size:
            violated.append((positions[hit[0]], kind, float(vk.cumsum()[-1])))
    total = float((ctx.pricing_weights * v * v).cumsum()[-1])
    return total, {kind: vsum for _, kind, vsum in sorted(violated)}


def evaluate_energy(
    st: LayoutState,
    ctx: SolveContext,
    contacts: tuple | None = None,
    broad_phase: str = "hash",
    neighbours: NaiveIndex | NeighbourList | None = None,
    authored: tuple[float, dict[str, float]] | None = None,
) -> tuple[float, dict[str, float], float, float]:
    """Layout energy sqrt(sum of weight * C^2) plus bookkeeping.

    Returns (energy, per-kind violation sums, worst circle overlap,
    worst boundary violation). Satisfied inequalities contribute zero;
    the sums dict carries only the kinds that violated.

    ``authored``, when given, is ``authored_energy`` of the current poses
    (a step's, handed to its pricing and to the re-check of a new best
    candidate). A copy of its sums takes the contact terms in the usual
    order, so every float sum accumulates exactly as a full pricing would.

    A pricing without contacts generates them through ``build_hash``:
    over the given pair source (a solve's fresh pricings), or without one
    over ``neighbour_list(ctx, "naive")`` under ``broad_phase="naive"`` and
    a fresh hash otherwise (the annealer's). The list's pairs are a sorted
    superset of the pairs that interact, as are the hash's, so all three
    give the same contacts in the same order.
    """
    if authored is None:
        total, sums = authored_energy(st, ctx)
    else:
        total, sums = authored[0], dict(authored[1])

    # with contacts handed over from a just-finished step, only the routed
    # objects (ctx.boundary_recheck) are re-measured. The step's boundary
    # pass contains the others only up to its gates, not bit for bit: one
    # left poking out by at most 1e-12, or sent to a room centroid outside
    # the room, keeps a violation this pricing does not see
    boundary_particles = ctx.object_particles
    if contacts is None:
        if neighbours is None and broad_phase == "naive":
            neighbours = neighbour_list(ctx, broad_phase)
        contacts = generate_contacts(st, ctx, build_hash(st, ctx, neighbours))
    else:
        boundary_particles = ctx.boundary_recheck
    collisions, activations, _ = contacts

    w_col = cn.SPECS[cn.COLLISION].weight
    max_overlap = 0.0
    for i, j in collisions:
        gap = math.hypot(st.px[i] - st.px[j], st.py[i] - st.py[j]) - (
            ctx.radius[i] + ctx.radius[j]
        )
        v = max(0.0, -gap)
        if v:
            sums[cn.COLLISION] = sums.get(cn.COLLISION, 0.0) + v
            total += w_col * v * v
            max_overlap = max(max_overlap, v)

    w_acc = cn.SPECS[cn.ACCESSIBILITY].weight
    for i, j, z in activations:
        (cx, cy), diagonal = zone_center(st, ctx, j, z)
        C = math.hypot(st.px[i] - cx, st.py[i] - cy) - (ctx.b_diag[i] + diagonal)
        v = max(0.0, -C)
        if v:
            sums[cn.ACCESSIBILITY] = sums.get(cn.ACCESSIBILITY, 0.0) + v
            total += w_acc * v * v

    w_bnd = cn.SPECS[cn.BOUNDARY].weight
    max_boundary = 0.0
    for i in boundary_particles:
        v = cn.boundary_violation(ctx.room, (st.px[i], st.py[i]), ctx.radius[i])
        if v:
            sums[cn.BOUNDARY] = sums.get(cn.BOUNDARY, 0.0) + v
            total += w_bnd * v * v
            max_boundary = max(max_boundary, v)

    return math.sqrt(total), sums, max_overlap, max_boundary


# ---------------------------------------------------------------------------
# stepping


def step(
    st: LayoutState,
    ctx: SolveContext,
    iteration: int,
    neighbours: NaiveIndex | NeighbourList,
    tiebreak=None,
) -> tuple:
    """One solver iteration over the attempt's pair source
    (``neighbour_list``); returns the contacts it generated so the caller
    can reuse them for the energy evaluation."""
    applier = _Applier(st, ctx)
    out = applier.out
    ks = [cn.update_stiffness(c, iteration) for c in ctx.schedules]

    order = ctx.interleavings[(iteration - 1) % len(ctx.interleavings)]
    # the bound records directly, with the label the finiteness guard names
    for kind, project, _, record, _, slot in order:
        applier.label = kind
        project(out, record, st, ks[slot], tiebreak)

    contacts = generate_contacts(st, ctx, build_hash(st, ctx, neighbours=neighbours))
    collisions, activations, ghosts = contacts
    # generated contacts follow their kind's default schedule
    k_col = cn.update_stiffness(cn.SPECS[cn.COLLISION], iteration)
    k_acc = cn.update_stiffness(cn.SPECS[cn.ACCESSIBILITY], iteration)
    k_ghost = cn.update_stiffness(cn.SPECS[cn.WALL_GHOST_COLLISION], iteration)

    # every contact correction goes to its object's contact root
    ghost_set = set(ghosts)
    px, py, w, r, root = st.px, st.py, ctx.proj_w, ctx.radius, ctx.contact_root
    for i, j in collisions:
        applier.label = cn.COLLISION
        cn.project_collision(
            out, root[i], root[j], px[i], py[i], px[j], py[j], w[i], w[j], r[i], r[j], k_col,
            tiebreak,
        )
        if (i, j) in ghost_set:
            applier.label = cn.WALL_GHOST_COLLISION
            wall_ghost_corrections(out, i, j, st, ctx, k_ghost, tiebreak)
    applier.label = cn.ACCESSIBILITY
    for i, j, z in activations:
        (cx, cy), diagonal = zone_center(st, ctx, j, z)
        cn.project_accessibility(
            out, root[i], root[j], px[i], py[i], w[i], w[j], cx, cy, st.theta[j], diagonal,
            ctx.b_diag[i], r[i], k_acc, tiebreak,
        )

    # boundary containment gets the final word, always at full stiffness
    _boundary_pass(st, ctx, applier)

    # stacked piles are hard relations too: re-align them after contacts
    # so evaluation never sees a scattered stack
    for b in ctx.stacking_constraints:
        applier.project(b, ks[b.slot], tiebreak)

    for i in range(ctx.n):
        st.theta[i] = normalize_angle(st.theta[i])
    return contacts


def _boundary_pass(st: LayoutState, ctx: SolveContext, applier: _Applier) -> bool:
    """Boundary containment of every object at full stiffness, each push
    routed to the object's contact root; True when some object moved."""
    applier.label = cn.BOUNDARY
    out, root = applier.out, ctx.contact_root
    pushed = False
    for i in ctx.object_particles:
        if cn.project_boundary(
            out, root[i], st.px[i], st.py[i], ctx.proj_w[i], ctx.radius[i], ctx.room
        ):
            pushed = True
    return pushed


# ---------------------------------------------------------------------------
# full synthesis


class Settled(NamedTuple):
    """A settle's closing ``evaluate_energy`` pricing and whether the
    settle came out clean, with every hard violation below 1e-9. Its
    truth value is ``clean``: ``perfbench/tracer.py`` counts the clean
    settles by testing each result for truth."""

    priced: tuple[float, dict[str, float], float, float]
    clean: bool

    def __bool__(self) -> bool:
        return self.clean


def _settle_hard_constraints(
    st: LayoutState,
    ctx: SolveContext,
    neighbours: NaiveIndex | NeighbourList,
    tiebreak=None,
) -> Settled:
    """Project only collisions (with wall-ghost assists), stacking, and
    boundary containment at full stiffness until the layout is clean,
    then re-snap orientation constraints (which never move positions),
    also at full stiffness, whatever schedule a constraint follows in the
    steps. Returns the settled layout's pricing, clean or not."""
    applier = _Applier(st, ctx)
    out, root = applier.out, ctx.contact_root
    for sweep in range(_SETTLE_MAX_SWEEPS):
        for b in ctx.stacking_constraints:
            applier.project(b, 1.0, tiebreak)
        grid = build_hash(st, ctx, neighbours=neighbours)
        collisions, _, ghosts = generate_contacts(st, ctx, grid, with_accessibility=False)
        ghost_set = set(ghosts)
        if collisions and sweep:
            # rotating the sweep order breaks Gauss-Seidel limit cycles
            offset = sweep % len(collisions)
            collisions = collisions[offset:] + collisions[:offset]
        dirty = False
        for i, j in collisions:
            # the hair of extra separation keeps resolved contacts from
            # re-arming off boundary clamps and float noise
            applier.label = cn.COLLISION
            if cn.project_collision(
                out, root[i], root[j], st.px[i], st.py[i], st.px[j], st.py[j],
                ctx.proj_w[i], ctx.proj_w[j],
                ctx.radius[i] + 5e-4, ctx.radius[j] + 5e-4, 1.0, tiebreak,
            ):
                dirty = True
                if (i, j) in ghost_set or (
                    cn.pokes_out(ctx.room, st.px[i], st.py[i], ctx.radius[i] + 0.02, 0.0)
                    and cn.pokes_out(ctx.room, st.px[j], st.py[j], ctx.radius[j] + 0.02, 0.0)
                ):
                    # both near a wall: also separate their wall ghost
                    # points so the pair slides apart along the wall
                    applier.label = cn.WALL_GHOST_COLLISION
                    wall_ghost_corrections(out, i, j, st, ctx, 1.0, tiebreak)
        if _boundary_pass(st, ctx, applier):
            dirty = True
        if not dirty:
            break
    # settling may have slid objects along or across walls, so their
    # orientation targets can be stale; for free particles an angular
    # snap cannot move positions, so it preserves feasibility
    for b in ctx.orientation_snaps:
        applier.project(b, 1.0, tiebreak)
    for i in range(ctx.n):
        st.theta[i] = normalize_angle(st.theta[i])
    priced = evaluate_energy(st, ctx, neighbours=neighbours)
    return Settled(priced, priced[2] <= 1e-9 and priced[3] <= 1e-9)


def synthesize(scene: Scene, config: SolverConfig | None = None) -> tuple[list[Pose], EnergyTrace]:
    """Run the full synthesis loop on a scene.

    Iterates until the iteration budget is spent or the minimum energy
    has not improved significantly for the configured window, then
    returns the best hard-feasible snapshot (a final hard-constraint
    settling pass provides one). A run whose iterates cannot be settled
    collision-free (a topological tangle) deterministically restarts
    from a reseeded initialization, up to three times. A scene with no
    free particle starts from its authored poses whatever the seed, so
    it makes one attempt.
    """
    config = config or SolverConfig()
    config.validate()
    ctx = SolveContext(scene)
    # a plain int, so a small numpy integer seed cannot overflow the mix
    seed = attempt_seed = int(config.seed)
    for attempt in range(4):
        snapshot, trace, feasible = _synthesize_attempt(ctx, config, attempt_seed)
        trace.restarts = attempt
        if feasible or not ctx.free:
            return snapshot, trace
        failed_seed = attempt_seed
        attempt_seed = (seed ^ ((attempt + 1) * 0x9E3779B9)) & 0x7FFFFFFF
        if attempt < 3:
            log.warning(
                "attempt %d (seed %d) could not be settled collision-free; "
                "restarting with seed %d",
                attempt, failed_seed, attempt_seed,
                extra={"attempt": attempt, "failed_seed": failed_seed, "next_seed": attempt_seed},
            )
    return snapshot, trace


def _synthesize_attempt(
    ctx: SolveContext, config: SolverConfig, seed: int
) -> tuple[list[Pose], EnergyTrace, bool]:
    rng = np.random.default_rng(seed ^ 0x5EED)
    trace = EnergyTrace()

    def tiebreak() -> tuple[float, float]:
        trace.degenerate_events += 1
        angle = rng.uniform(0.0, 2.0 * math.pi)
        return math.cos(angle), math.sin(angle)

    tol = FEASIBILITY_TOLERANCE
    best: tuple[float, int, list[Pose]] | None = None  # lowest-energy feasible row

    def improves(priced) -> bool:
        energy, _, max_overlap, max_boundary = priced
        return max_overlap <= tol and max_boundary <= tol and (best is None or energy < best[0])

    def record(priced, poses: list[Pose] | None = None) -> None:
        # one trace row per priced layout, kept as the best when it
        # improves; the poses are the state's unless given
        nonlocal best
        trace.energies.append(priced[0])
        trace.violation_sums.append(priced[1])
        if improves(priced):
            best = (priced[0], len(trace.energies) - 1, poses or st.snapshot())

    st = initialize(ctx, seed)
    neighbours = neighbour_list(ctx, config.broad_phase)
    priced = evaluate_energy(st, ctx, neighbours=neighbours)
    record(priced)
    energy = priced[0]
    initial_energy = energy if energy > 0.0 else 1.0
    candidates: list[tuple[float, int, list[Pose]]] = [(energy, 0, st.snapshot())]
    best_any = math.inf
    stall = 0
    for iteration in range(1, config.max_iterations + 1):
        # the step's own contact lists price this iteration's energy; a
        # fresh regeneration double-checks any new best-feasible candidate,
        # and both start from the same authored part
        contacts = step(st, ctx, iteration, neighbours, tiebreak)
        authored = authored_energy(st, ctx)
        priced = evaluate_energy(st, ctx, contacts=contacts, authored=authored)
        if improves(priced):
            priced = evaluate_energy(st, ctx, neighbours=neighbours, authored=authored)
        record(priced)
        energy = priced[0]
        if energy < best_any:
            # asymptotic stiffness decay polishes the minimum forever, so
            # progress for the stall window means a 0.1% drop (the
            # annealing baseline's threshold) or one visible at the
            # problem's initial energy scale
            if best_any == math.inf or best_any - energy > max(
                1e-3 * best_any, 1e-4 * initial_energy
            ):
                stall = 0
            else:
                stall += 1
            best_any = energy
        else:
            stall += 1
        if energy < candidates[-1][0] or len(candidates) < _SETTLE_CANDIDATES:
            candidates.append((energy, iteration, st.snapshot()))
            candidates.sort(key=lambda row: row[0])
            del candidates[_SETTLE_CANDIDATES:]
        if stall >= config.termination_window:
            break

    # settle the lowest-energy iterates so the returned layout is
    # hard-feasible; the trace's last row is the lowest-energy clean
    # settle or, when none is clean, the first (lowest-energy) candidate
    # as settled. The first candidate is always settled, so an attempt
    # priced at infinity everywhere still returns a row
    settled: tuple[tuple, list[Pose], bool] | None = None  # (pricing, poses, clean)
    for candidate_energy, _, snapshot in candidates:
        if settled and settled[2] and settled[0][0] <= candidate_energy:
            break  # settling cannot beat its own starting energy by much
        st.restore(snapshot)
        priced, clean = _settle_hard_constraints(st, ctx, neighbours, tiebreak)
        if settled is None or clean and (not settled[2] or priced[0] < settled[0][0]):
            settled = (priced, st.snapshot(), clean)
    priced, poses, _ = settled
    record(priced, poses)

    feasible = best is not None
    # with nothing feasible, the settled row is returned anyway
    trace.best_energy, trace.best_iteration, poses = best or (
        priced[0], len(trace.energies) - 1, poses
    )
    return poses, trace, feasible
