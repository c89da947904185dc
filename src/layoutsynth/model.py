"""Scene data model: particles, objects, groups, rooms.

Everything here is value-semantic. The solver never mutates a Scene; it
reads the structure and keeps its own pose state.

Room containment lives here, beside the room's tables:
``nearest_wall_point``, ``boundary_violation``, ``pokes_out`` and the
clamp ``clamp_inside``. In an axis-aligned rectangle the four side
clearances decide containment and name the nearest wall, and the clamp
skips every wall whose line the circle clears; each gives the per-wall
loop's bits. No other module reads a room's wall table, normals,
rectangle, side table, side band or side gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .geometry import (
    Curve,
    Vec2,
    normalize_angle,
    point_in_polygon,
    polygon_centroid,
    polygon_is_simple,
    polygon_signed_area,
)

INFINITE = math.inf

# accessibility face order; index k-1 into FACES gives the face name
FACES = ("back", "left", "front", "right")

# half-width of a rectangular room's side band, per unit of its largest
# coordinate magnitude: 64 machine epsilons, several times the rounding
# of the per-wall boundary measure (see Room) and, per unit of radius, of
# the clamp's distances to a wall line (see clamp_inside)
_SIDE_BAND = 64.0 * math.ulp(1.0)


@dataclass
class Particle:
    """Oriented point mass standing in for one object (or one group).

    ``mass`` may be the sentinel ``INFINITE``, in which case the inverse
    mass is exactly zero and the particle never receives corrections.
    """

    position: Vec2
    z: float = 0.0
    orientation: float = 0.0
    mass: float = 1.0

    def __post_init__(self):
        if not self.position.is_finite():
            raise ValueError("particle position must be finite")
        for name in ("z", "orientation"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"particle {name} must be finite, not {value}")
        if self.mass != INFINITE and not self.mass > 0.0:
            raise ValueError(f"mass must be positive or INFINITE, got {self.mass}")
        self.orientation = normalize_angle(self.orientation)

    @property
    def inverse_mass(self) -> float:
        return 0.0 if self.mass == INFINITE else 1.0 / self.mass

    @property
    def fixed(self) -> bool:
        return self.mass == INFINITE


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box in the object's local frame, given as half sizes."""

    half_extents: Vec2
    half_height: float

    def __post_init__(self):
        if not (self.half_extents.x > 0 and self.half_extents.y > 0 and self.half_height > 0):
            raise ValueError("bounding box extents must be positive")

    @property
    def footprint_diagonal(self) -> float:
        return 2.0 * math.hypot(self.half_extents.x, self.half_extents.y)

    @property
    def bounding_radius(self) -> float:
        return 0.5 * self.footprint_diagonal

    @property
    def volume(self) -> float:
        return 8.0 * self.half_extents.x * self.half_extents.y * self.half_height

    @property
    def footprint_area(self) -> float:
        return 4.0 * self.half_extents.x * self.half_extents.y


def mass_from_bbox(bbox: BoundingBox) -> float:
    """Mass of an object at unit density: its bounding-box volume."""
    volume = bbox.volume
    if volume <= 0.0:
        raise ValueError("cannot derive mass from a zero-volume box")
    return volume


@dataclass(frozen=True)
class AccessRegion:
    """Clearance zone attached to one face of an object.

    ``local_center`` is the zone's center in the object frame;
    ``diagonal`` is the ground diagonal of the clearance cuboid. A zero
    diagonal disables the face.
    """

    local_center: Vec2
    diagonal: float = 0.0

    def __post_init__(self):
        if self.diagonal < 0.0:
            raise ValueError("accessibility diagonal must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.diagonal > 0.0

    def world_center(self, position: Vec2, orientation: float) -> Vec2:
        c, s = math.cos(orientation), math.sin(orientation)
        lx, ly = self.local_center
        return Vec2(position.x + c * lx - s * ly, position.y + s * lx + c * ly)


def _disabled_regions() -> tuple[AccessRegion, ...]:
    return tuple(AccessRegion(Vec2(0.0, 0.0), 0.0) for _ in FACES)


# local face centers point: back -x, left +y, front +x, right -y
_FACE_DIR = {"back": (-1.0, 0.0), "left": (0.0, 1.0), "front": (1.0, 0.0), "right": (0.0, -1.0)}


def bbox_from_entry(entry: dict) -> BoundingBox:
    """Box of a catalogue entry, whose ``size`` holds full extents."""
    sx, sy, sz = entry["size"]
    return BoundingBox(Vec2(0.5 * sx, 0.5 * sy), 0.5 * sz)


def regions_from_entry(entry: dict) -> tuple[AccessRegion, ...]:
    """Four per-face regions of a catalogue entry; each face in its
    ``access`` map gets a square zone of that depth outside the face, and
    faces without a clearance are disabled (zero diagonal)."""
    sx, sy, _ = entry["size"]
    half = {"back": 0.5 * sx, "front": 0.5 * sx, "left": 0.5 * sy, "right": 0.5 * sy}
    regions = []
    access = entry.get("access", {})
    for face in FACES:
        depth = access.get(face, 0.0)
        if depth > 0.0:
            dx, dy = _FACE_DIR[face]
            offset = half[face] + 0.5 * depth
            regions.append(
                AccessRegion(Vec2(dx * offset, dy * offset), depth * math.sqrt(2.0))
            )
        else:
            regions.append(AccessRegion(Vec2(0.0, 0.0), 0.0))
    return tuple(regions)


@dataclass
class LayoutObject:
    id: str
    label: str
    particle_index: int
    bbox: BoundingBox
    accessibility: tuple[AccessRegion, ...] = field(default_factory=_disabled_regions)

    def __post_init__(self):
        if len(self.accessibility) != 4:
            raise ValueError("objects carry exactly four accessibility regions")


@dataclass
class Group:
    """A set of member objects tied to one oriented group particle.

    A group is rigid when it carries member offsets (dx, dy, dtheta) in
    the group frame; member world poses always equal group pose composed
    with the offset. Nonrigid groups may carry a placement curve,
    expressed in the group frame; the solver attaches each member to its
    nearest curve point. A group takes offsets or a curve, not both.
    """

    id: str
    particle_index: int
    member_object_ids: tuple[str, ...]
    curve: Optional[Curve] = None
    member_offsets: Optional[tuple[tuple[float, float, float], ...]] = None

    def __post_init__(self):
        if self.rigid:
            if len(self.member_offsets) != len(self.member_object_ids):
                raise ValueError("rigid groups need one offset per member")
            if self.curve is not None:
                raise ValueError("rigid groups take no curve")
        if self.curve is not None:
            self.curve.validate()

    @property
    def rigid(self) -> bool:
        return self.member_offsets is not None

    def member_world_pose(self, k: int, group_pos: Vec2, group_theta: float) -> tuple[Vec2, float]:
        dx, dy, dth = self.member_offsets[k]
        c, s = math.cos(group_theta), math.sin(group_theta)
        return (
            Vec2(group_pos.x + c * dx - s * dy, group_pos.y + s * dx + c * dy),
            normalize_angle(group_theta + dth),
        )


@dataclass
class Room:
    """Bounded region whose counterclockwise boundary polygon is the walls.
    The polygon must be simple, enclose area, and have no wall whose
    squared length is zero.

    In an axis-aligned rectangle the per-wall boundary measure of a
    point inside is its smallest side clearance (``x - x0``, ``x1 - x``,
    ``y - y0``, ``y1 - y``) up to rounding: each wall's perpendicular
    offset is the very subtraction its side clearance makes, and the
    along-wall residue, squaring, sum and root add a few units in the
    last place of the room's coordinates (Goldberg, ACM Computing
    Surveys 23(1), 1991). ``_band``, 64 machine epsilons times the
    largest coordinate magnitude, bounds that rounding several times
    over, so wherever the sides clear a containment threshold by more
    than it they decide the test exactly. It is derived from the walls
    and never set.

    The same clearances name the nearest wall of a point inside. Each
    wall's squared distance ``d2`` is its squared side clearance (the
    same bits) plus the square of the along-wall residue, rounded once
    more. ``_gap``, twice the nearest-wall loop's 1e-15 slack plus
    ``_band`` times the largest coordinate magnitude, bounds that
    rounding over every square a point inside can take, so a runner-up
    squared clearance above the smallest by more than it leaves the
    loop one wall to keep. ``_sides`` holds that wall for each side, in
    the order of the clearances ``x - x0``, ``x1 - x``, ``y - y0``,
    ``y1 - y``. ``_normals`` holds each wall's inward normal, built once.
    """

    boundary: list[Vec2]

    def __post_init__(self):
        self.boundary = [Vec2(float(p[0]), float(p[1])) for p in self.boundary]
        if len(self.boundary) < 3:
            raise ValueError("room boundary needs at least three vertices")
        area = polygon_signed_area(self.boundary)
        xs = {v.x for v in self.boundary}
        ys = {v.y for v in self.boundary}
        if area == 0.0 or len(xs) < 2 or len(ys) < 2:
            raise ValueError("room boundary encloses no area")
        if area < 0.0:
            self.boundary.reverse()
        # flat per-wall scalars for the hot paths:
        # (ax, ay, dx, dy, 1/len^2, inward nx, inward ny, tangent angle)
        self._wall_data = []
        for a, b in zip(self.boundary, self.boundary[1:] + self.boundary[:1]):
            dx = b.x - a.x
            dy = b.y - a.y
            length = math.hypot(dx, dy)
            if length * length <= 0.0:
                raise ValueError("room boundary has a zero-length wall")
            nx, ny = -dy / length, dx / length
            tangent = normalize_angle(math.atan2(ny, nx) + 0.5 * math.pi)
            self._wall_data.append((a.x, a.y, dx, dy, 1.0 / (length * length), nx, ny, tangent))
        self._normals = [Vec2(wall[5], wall[6]) for wall in self._wall_data]
        # after the area and wall-length checks, which name a degenerate
        # boundary more precisely than this one
        if not polygon_is_simple(self.boundary):
            raise ValueError("room boundary must be a simple polygon")
        # axis-aligned rectangles (the common case) get a bounds-only
        # containment test and side clearances that decide outside _band
        # (containment) and _gap (the nearest wall)
        self._rect = None
        if len(self.boundary) == 4 and len(xs) == 2 and len(ys) == 2:
            self._rect = (min(xs), min(ys), max(xs), max(ys))
            # a side's wall is the one whose inward normal faces off it;
            # an axis-aligned wall's normal is exactly one of these
            facing = dict(zip(self._normals, zip(self._wall_data, self._normals)))
            self._sides = tuple(facing[n] for n in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)))
        extent = max(abs(c) for v in self.boundary for c in v)
        self._band = _SIDE_BAND * extent
        self._gap = 2e-15 + self._band * extent
        # one shared Vec2: every particle placed by default points at it.
        # Its sums are cubes of the coordinates, which overflow where the
        # squares that every other measure takes stay finite
        self._centroid = polygon_centroid(self.boundary)
        if not all(map(math.isfinite, self._centroid)):
            raise ValueError("room boundary is too large: its centroid overflows")

    @property
    def centroid(self) -> Vec2:
        return self._centroid

    def bounds(self) -> tuple[float, float, float, float]:
        xs = [v.x for v in self.boundary]
        ys = [v.y for v in self.boundary]
        return min(xs), min(ys), max(xs), max(ys)

    def contains(self, p) -> bool:
        if self._rect is not None:
            x0, y0, x1, y1 = self._rect
            return x0 <= p[0] <= x1 and y0 <= p[1] <= y1
        return point_in_polygon(self.boundary, p)


def nearest_wall_point(room: Room, p) -> tuple[Vec2, Vec2, float]:
    """Closest boundary point to p, the wall's inward normal, and the
    wall tangent angle.

    Ties go to the first wall segment in storage order. The CCW boundary
    keeps the interior left of the travel direction, so the inward normal
    is the travel direction rotated a quarter turn counterclockwise; the
    tangent angle is the normal rotated another quarter turn, so an
    object parallel to the wall at x=0 of a counterclockwise room reports
    a tangent of pi/2.

    For a point strictly inside an axis-aligned rectangle, the four side
    clearances name the wall when the runner-up's square exceeds the
    smallest one's by more than the room's gap (``Room._gap``), and only
    that wall's arithmetic runs. Points outside, on the edge or inside
    the gap, and every other room, take the loop over every wall
    (``_nearest_wall``). Both give the same bits. A point that no wall's
    squared distance can rank (an infinite square, or a NaN) raises
    ``ValueError``.
    """
    px, py = p[0], p[1]
    rect = room._rect
    if rect is not None:
        x0, y0, x1, y1 = rect
        if x0 < px < x1 and y0 < py < y1:
            # the nearer side on each axis, then the nearer of the two
            # and the runner-up
            a, b, c, d = px - x0, x1 - px, py - y0, y1 - py
            if a < b:
                h, hs, hfar = a, 0, b
            else:
                h, hs, hfar = b, 1, a
            if c < d:
                v, vs, vfar = c, 2, d
            else:
                v, vs, vfar = d, 3, c
            if h < v:
                near, side, runner = h, hs, v if v < hfar else hfar
            else:
                near, side, runner = v, vs, h if h < vfar else vfar
            if runner * runner - near * near > room._gap:
                (ax, ay, dx, dy, inv_len2, _, _, tangent), normal = room._sides[side]
                t = ((px - ax) * dx + (py - ay) * dy) * inv_len2
                if t < 0.0:
                    t = 0.0
                elif t > 1.0:
                    t = 1.0
                return Vec2(ax + t * dx, ay + t * dy), normal, tangent
    return _nearest_wall(room, px, py)


def _nearest_wall(room: Room, px: float, py: float) -> tuple[Vec2, Vec2, float]:
    """``nearest_wall_point`` from every wall: the first wall whose
    squared distance beats the best so far by more than 1e-15."""
    best_d2 = math.inf
    best = None
    for (ax, ay, dx, dy, inv_len2, _, _, tangent), normal in zip(room._wall_data, room._normals):
        t = ((px - ax) * dx + (py - ay) * dy) * inv_len2
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        qx = ax + t * dx
        qy = ay + t * dy
        ex = px - qx
        ey = py - qy
        d2 = ex * ex + ey * ey
        if d2 < best_d2 - 1e-15:
            best_d2 = d2
            best = normal
            best_x, best_y, best_tangent = qx, qy, tangent
    if best is None:
        raise ValueError(f"point ({px!r}, {py!r}) has no nearest wall: "
                         "its squared distance to every wall is infinite or NaN")
    return Vec2(best_x, best_y), best, best_tangent


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


def clamp_inside(room: Room, x: float, y: float, radius: float) -> tuple[float, float]:
    """The centre (x, y) moved so its circle of ``radius`` sits inside
    the room, in up to 16 rounds. Each round pulls a centre outside the
    room to its nearest wall point, then pushes the circle off every wall
    it overlaps by more than 1e-12. Where the rounds do not settle (a
    room too small or too concave for the circle) the result may still
    poke out; the caller checks.

    A wall is skipped when the centre's signed distance to its line
    exceeds ``radius`` by more than the rounding band of the room
    (``Room._band``) and of the radius: its segment is at least that far
    away, so it cannot push, and the result keeps the per-wall bits.
    A centre with no nearest wall (see ``nearest_wall_point``) raises
    ``ValueError``.
    """
    reach = radius + _SIDE_BAND * radius + room._band
    for _ in range(16):
        changed = False
        if not room.contains((x, y)):
            q, normal, _ = nearest_wall_point(room, (x, y))
            x = q.x + normal.x * radius
            y = q.y + normal.y * radius
            changed = True
        for ax, ay, wdx, wdy, inv_len2, wnx, wny, _ in room._wall_data:
            if (x - ax) * wnx + (y - ay) * wny > reach:
                continue
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
                if dist > 1e-9:
                    nx, ny = dx / dist, dy / dist
                else:
                    nx, ny = wnx, wny
                x = qx + nx * radius
                y = qy + ny * radius
                changed = True
        if not changed:
            break
    return x, y


@dataclass
class Scene:
    room: Room
    objects: list[LayoutObject] = field(default_factory=list)
    particles: list[Particle] = field(default_factory=list)
    groups: list[Group] = field(default_factory=list)
    constraints: list = field(default_factory=list)
    collisions_enabled: bool = True
    solver_defaults: dict = field(default_factory=dict)
    catalogue: dict = field(default_factory=dict)

    def add_object(
        self,
        object_id: str,
        label: str,
        *,
        position: Optional[Vec2] = None,
        z: float = 0.0,
        theta: float = 0.0,
        fixed: bool = False,
        mass: Optional[float] = None,
    ) -> int:
        """Append an object of catalogue ``label`` and its particle; returns
        the particle index. The pose defaults to the room centroid and the
        mass to the box volume; a fixed object gets infinite mass and takes
        no other."""
        entry = self.catalogue[label]
        bbox = bbox_from_entry(entry)
        if fixed:
            if mass is not None:
                raise ValueError("a fixed object takes no mass")
            mass = INFINITE
        elif mass is None:
            mass = mass_from_bbox(bbox)
        obj = LayoutObject(object_id, label, len(self.particles), bbox, regions_from_entry(entry))
        self._add_particle(position, z, theta, mass)
        self.objects.append(obj)
        return obj.particle_index

    def add_group(
        self,
        group_id: str,
        members,
        *,
        mass: float,
        position: Optional[Vec2] = None,
        z: float = 0.0,
        theta: float = 0.0,
        **fields,
    ) -> int:
        """Append a group over the ``members`` object ids and its particle;
        returns the particle index. ``fields`` are the Group's curve and
        member offsets; the pose defaults to the room centroid."""
        group = Group(group_id, len(self.particles), tuple(members), **fields)
        self._add_particle(position, z, theta, mass)
        self.groups.append(group)
        return group.particle_index

    def _add_particle(self, position: Optional[Vec2], z: float, theta: float, mass: float) -> None:
        if position is None:
            position = self.room.centroid
        self.particles.append(Particle(position=position, z=z, orientation=theta, mass=mass))

    def object_by_id(self, object_id: str) -> LayoutObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)

    def validate(self) -> None:
        n = len(self.particles)
        object_ids = set()
        for obj in self.objects:
            if obj.id in object_ids:
                raise ValueError(f"duplicate object id {obj.id!r}")
            object_ids.add(obj.id)
            if not (0 <= obj.particle_index < n):
                raise ValueError(f"object {obj.id!r} references missing particle {obj.particle_index}")
        seen_ids = set(object_ids)
        fixed_ids = {obj.id for obj in self.objects if self.particles[obj.particle_index].fixed}
        # an object follows one group: the solver routes a rigid member to
        # its group particle, which would leave any other group's pull unmet
        group_of: dict[str, str] = {}
        for i, group in enumerate(self.groups):
            try:
                if group.id in seen_ids:
                    raise ValueError(f"duplicate id {group.id!r}")
                seen_ids.add(group.id)
                if not (0 <= group.particle_index < n):
                    raise ValueError(
                        f"group {group.id!r} references missing particle {group.particle_index}"
                    )
                for member in group.member_object_ids:
                    if member not in object_ids:
                        raise ValueError(f"group {group.id!r} references missing object {member!r}")
                    if member in group_of:
                        raise ValueError(
                            f"object {member!r} is in groups {group_of[member]!r} and {group.id!r}"
                        )
                    # the solver poses a rigid member from its group
                    # particle, which would carry a fixed member along
                    if group.rigid and member in fixed_ids:
                        raise ValueError(f"rigid group {group.id!r} would move fixed object {member!r}")
                    group_of[member] = group.id
            except ValueError as exc:
                raise ValueError(f"groups[{i}]: {exc}") from None
        # constraints imports this module
        from .constraints import FOCAL_SYMMETRY, HEAT_POINT, STACKING, VISUAL_BALANCE

        object_particles = {obj.particle_index for obj in self.objects}

        # stacking piles are chains: each top has one bottom, and walking
        # down from any object reaches the ground
        bottom_of: dict[int, int] = {}
        ids = {item.particle_index: item.id for item in (*self.objects, *self.groups)}
        for i, constraint in enumerate(self.constraints):
            try:
                for idx in constraint.particles:
                    if not (0 <= idx < n):
                        raise ValueError(f"{constraint.kind} references missing particle {idx}")
                constraint.validate()
                if constraint.kind in (HEAT_POINT, FOCAL_SYMMETRY):
                    # an infinite mass leaves the weighted center undefined;
                    # an anchor or focal (the first participant) is unweighed
                    anchored = constraint.kind == FOCAL_SYMMETRY or constraint.point is None
                    for idx in constraint.particles[1 if anchored else 0:]:
                        if self.particles[idx].fixed:
                            raise ValueError(f"{constraint.kind} weighs fixed object "
                                             f"{ids.get(idx, idx)!r} by its infinite mass")
                # footprints weigh visual balance, and a group has none
                if constraint.kind == VISUAL_BALANCE and object_particles.isdisjoint(
                        constraint.particles):
                    raise ValueError("visual_balance weighs only groups, which have no footprint")
                if constraint.kind == STACKING:
                    bottom, top = constraint.particles
                    on = f"{ids.get(top, top)!r} on {ids.get(bottom, bottom)!r}"
                    if top in bottom_of:
                        raise ValueError(f"stacking {on} gives it a second bottom")
                    below = bottom
                    while below in bottom_of and below != top:
                        below = bottom_of[below]
                    if below == top:
                        raise ValueError(f"stacking {on} closes a loop")
                    bottom_of[top] = bottom
            except ValueError as exc:
                raise ValueError(f"constraints[{i}]: {exc}") from None
