"""Benchmark scene templates.

Each builder returns a fully validated Scene with the constraint families
of its scenario wired up. Object dimensions and clearance depths come
from the shared catalogue. The parameters are theater1's chair count,
which serves the scaling study, theater2's tier style and pathways, and
the seed that picks tp_picnic's counts.
"""

from __future__ import annotations

import math

import numpy as np

from . import constraints as cn
from .catalogue import CATALOGUE
from .geometry import Curve, Vec2, stable_radians
from .model import BoundingBox, Room, Scene, mass_from_bbox

TEMPLATE_NAMES = (
    "theater1",
    "theater2",
    "picnic",
    "living_room",
    "desk",
    "tp_bedroom",
    "tp_picnic",
)


class _SceneBuilder:
    def __init__(self, room: Room):
        self.scene = Scene(room=room)

    def add_object(self, label: str, object_id: str, *, pose=None) -> int:
        """Register an object and its particle, copying its catalogue entry
        into the scene; ``pose`` is (x, y, theta). Returns the particle
        index."""
        if label not in self.scene.catalogue:
            entry = CATALOGUE[label]
            self.scene.catalogue[label] = {
                "size": list(entry["size"]),
                "access": dict(entry["access"]),
            }
        if pose is None:
            return self.scene.add_object(object_id, label)
        x, y, theta = pose
        return self.scene.add_object(object_id, label, position=Vec2(x, y), theta=theta)

    def add_group(self, group_id: str, members, extent: Vec2, half_height: float, **fields) -> int:
        """A group whose particle weighs as much as a box of the given
        half extents."""
        mass = mass_from_bbox(BoundingBox(extent, half_height))
        return self.scene.add_group(group_id, members, mass=mass, **fields)

    def constrain(self, kind: str, particles, **kw) -> None:
        self.scene.constraints.append(cn.Constraint(kind, particles, **kw))

    def done(self) -> Scene:
        self.scene.validate()
        return self.scene


def _rect_room(width: float, depth: float) -> Room:
    return Room([Vec2(0, 0), Vec2(width, 0), Vec2(width, depth), Vec2(0, depth)])


# ---------------------------------------------------------------------------
# theater, approach one: unattached chairs around a stage


_SEATS_PER_RING = 40


def theater1(chair_count: int = 200) -> Scene:
    if chair_count < 0:
        raise ValueError(f"chair count must be nonnegative, not {chair_count}")
    # ring count and floor area grow with the seat count so the packing
    # density stays constant across the scaling series
    rings = max(1, math.ceil(chair_count / _SEATS_PER_RING))
    tier_radii = [8.5 + 1.5 * k for k in range(rings)]
    max_radius = tier_radii[-1]
    width = max(40.0, 2.0 * (max_radius + 3.0))
    depth = max(24.0, max_radius + 7.0)

    b = _SceneBuilder(_rect_room(width, depth))
    stage = b.add_object("stage", "stage", pose=(0.5 * width, 3.5, stable_radians(90.0)))
    b.constrain(cn.WALL_DISTANCE, (stage,), distance=3.4)

    lane_vectors = (Vec2(math.cos(math.radians(75)), math.sin(math.radians(75))),
                    Vec2(math.cos(math.radians(105)), math.sin(math.radians(105))))
    for i in range(chair_count):
        chair = b.add_object("seat", f"chair_{i}")
        radius = tier_radii[i % len(tier_radii)]
        b.constrain(cn.FOCAL_POINT, (chair, stage), distance=radius)
        b.constrain(
            cn.PAIRWISE_ORIENTATION, (chair, stage), orientation_mode=cn.ORIENT_FACE
        )
        for v in lane_vectors:
            b.constrain(cn.TRAFFIC_LANE, (chair, stage), vector=v, distance=0.8)
    return b.done()


def scaling_series(counts: list[int]) -> list[Scene]:
    """Theater-1 scenes that differ only in their chair count."""
    return [theater1(chair_count=c) for c in counts]


# ---------------------------------------------------------------------------
# theater, approach two: seating tiers as curve groups


def _tier_sizes(style: str, pathways: int) -> tuple[int, int]:
    if style == "arc":
        return 6, 30
    if pathways >= 2:
        return 7, 35
    return 6, 28


def theater2(style: str = "arc", pathways: int = 2) -> Scene:
    if style not in ("arc", "seg"):
        raise ValueError(f"tier style must be 'arc' or 'seg', not {style!r}")
    if not 0 <= pathways <= 2:
        raise ValueError("theater2 supports 0 to 2 pathways")
    tiers, chairs_per_tier = _tier_sizes(style, pathways)

    b = _SceneBuilder(_rect_room(40.0, 24.0))
    stage = b.add_object("stage", "stage", pose=(20.0, 2.0, stable_radians(90.0)))
    # the stage belongs at the front midpoint
    b.constrain(cn.HEAT_POINT, (stage,), point=Vec2(20.0, 2.0))

    spacing = 0.85
    lane_angles = {0: (), 1: (90.0,), 2: (75.0, 105.0)}[pathways]
    lane_vectors = [
        Vec2(math.cos(math.radians(a)), math.sin(math.radians(a))) for a in lane_angles
    ]

    # all object particles first, group particles after: the scene file
    # format allocates particles in that order
    tier_chairs = []
    for t in range(tiers):
        tier_chairs.append(
            [b.add_object("seat", f"tier{t}_chair_{i}") for i in range(chairs_per_tier)]
        )

    tier_particles = []
    for t in range(tiers):
        radius = 12.0 + 1.2 * t
        length = chairs_per_tier * spacing
        if style == "arc":
            sweep = length / radius
            center = Vec2(radius, 0.0)
            # the arc spans angles pi -/+ sweep/2 around its center, so it
            # passes through the group origin and bulges away from the stage
            start = Vec2(
                radius + radius * math.cos(math.pi - 0.5 * sweep),
                radius * math.sin(math.pi - 0.5 * sweep),
            )
            end = Vec2(
                radius + radius * math.cos(math.pi + 0.5 * sweep),
                radius * math.sin(math.pi + 0.5 * sweep),
            )
            curve = Curve(start, end, center)
        else:
            curve = Curve(Vec2(0.0, -0.5 * length), Vec2(0.0, 0.5 * length))

        group_particle = b.add_group(
            f"tier_{t}",
            [f"tier{t}_chair_{i}" for i in range(chairs_per_tier)],
            Vec2(0.4, 0.5 * length + 0.4),
            0.5,
            curve=curve,
        )
        chair_particles = tier_chairs[t]
        b.constrain(cn.PAIRWISE_DISTANCE, (group_particle, stage), distance=radius)
        b.constrain(
            cn.PAIRWISE_ORIENTATION, (group_particle, stage), orientation_mode=cn.ORIENT_FACE
        )
        # chairs spread around the tier's own center
        b.constrain(cn.HEAT_POINT, (group_particle, *chair_particles))
        for i in range(chairs_per_tier - 1):
            b.constrain(
                cn.PAIRWISE_DISTANCE,
                (chair_particles[i], chair_particles[i + 1]),
                distance=spacing,
            )
        for idx in chair_particles:
            b.constrain(
                cn.PAIRWISE_ORIENTATION, (idx, stage), orientation_mode=cn.ORIENT_FACE
            )
            for v in lane_vectors:
                b.constrain(cn.TRAFFIC_LANE, (idx, stage), vector=v, distance=0.7)
        tier_particles.append(group_particle)

    for a, bb in zip(tier_particles, tier_particles[1:]):
        b.constrain(cn.PAIRWISE_DISTANCE, (a, bb), distance=1.2)

    b.scene.collisions_enabled = False
    return b.done()


# ---------------------------------------------------------------------------
# picnic


def picnic() -> Scene:
    b = _SceneBuilder(_rect_room(40.0, 30.0))
    tables, chaired_tables, chairs_per_table, trash_cans, grills = 14, 12, 4, 8, 6

    # one heat target per table, spread over a grid of layout areas
    cols = 4
    table_particles = []
    for t in range(tables):
        row, col = divmod(t, cols)
        target = Vec2(6.0 + col * 9.0, 5.0 + row * 7.0)
        idx = b.add_object("table_round", f"table_{t}")
        table_particles.append(idx)
        b.constrain(cn.HEAT_POINT, (idx,), point=target)

    # chairs sit just outside the table-chair bounding circle contact
    chair_orbit = 1.25
    chair_ring = 2.0 * chair_orbit * math.sin(math.pi / chairs_per_table)
    for t in range(chaired_tables):
        table = table_particles[t]
        ring = []
        for s in range(chairs_per_table):
            chair = b.add_object("chair", f"table{t}_chair_{s}")
            ring.append(chair)
            b.constrain(cn.FOCAL_POINT, (chair, table), distance=chair_orbit)
            b.constrain(
                cn.PAIRWISE_ORIENTATION, (chair, table), orientation_mode=cn.ORIENT_FACE
            )
        for s in range(chairs_per_table):
            b.constrain(
                cn.PAIRWISE_DISTANCE,
                (ring[s], ring[(s + 1) % chairs_per_table]),
                distance=chair_ring,
            )

    can_targets = [Vec2(4.0, 4.0), Vec2(36.0, 4.0), Vec2(4.0, 26.0), Vec2(36.0, 26.0)]
    cans = [b.add_object("trash_can", f"trash_can_{i}") for i in range(trash_cans)]
    for pair_index in range(trash_cans // 2):
        first, second = cans[2 * pair_index], cans[2 * pair_index + 1]
        b.constrain(cn.PAIRWISE_DISTANCE, (first, second), distance=0.7)
        b.constrain(
            cn.HEAT_POINT,
            (first, second),
            point=can_targets[pair_index % len(can_targets)],
        )

    grill_particles = [b.add_object("bbq_grill", f"grill_{i}") for i in range(grills)]
    for a, bb in zip(grill_particles, grill_particles[1:]):
        b.constrain(cn.PAIRWISE_DISTANCE, (a, bb), distance=1.2)

    carousel = b.add_object("carousel", "carousel")
    b.constrain(cn.HEAT_POINT, (carousel,), point=Vec2(20.0, 27.0))
    return b.done()


# ---------------------------------------------------------------------------
# living room


def living_room() -> Scene:
    b = _SceneBuilder(_rect_room(6.5, 5.0))
    tv = b.add_object("tv", "tv")
    sofa = b.add_object("sofa", "sofa")
    arm1 = b.add_object("armchair", "armchair_0")
    arm2 = b.add_object("armchair", "armchair_1")
    coffee = b.add_object("coffee_table", "coffee_table")
    bookcase = b.add_object("bookcase", "bookcase")
    rack = b.add_object("coat_rack", "coat_rack")
    door = b.add_object("door", "door")
    plant1 = b.add_object("plant", "plant_0")
    plant2 = b.add_object("plant", "plant_1")

    b.constrain(cn.FOCAL_POINT, (coffee, sofa), distance=1.75)
    b.constrain(cn.FOCAL_POINT, (sofa, tv), distance=3.0)
    b.constrain(cn.FOCAL_POINT, (arm1, tv), distance=2.8)
    b.constrain(cn.FOCAL_POINT, (arm2, tv), distance=2.8)

    # wall distances at least the bounding radius, so hugging the wall
    # never fights the boundary containment
    perpendicular = stable_radians(90.0)
    for idx, wall_d in ((tv, 0.65), (bookcase, 0.65), (rack, 0.3), (door, 0.5),
                        (plant1, 0.35), (plant2, 0.35)):
        b.constrain(cn.WALL_DISTANCE, (idx,), distance=wall_d)
        offset = perpendicular if idx in (tv, door) else 0.0
        b.constrain(cn.WALL_ORIENTATION, (idx,), angle_offset=offset)

    b.constrain(
        cn.VISUAL_BALANCE,
        (tv, sofa, arm1, arm2, coffee, bookcase, rack, door, plant1, plant2),
    )
    for idx in (sofa, arm1, arm2):
        b.constrain(cn.PAIRWISE_ORIENTATION, (idx, tv), orientation_mode=cn.ORIENT_FACE)
    b.constrain(cn.PAIRWISE_ORIENTATION, (coffee, sofa), orientation_mode=cn.ORIENT_MATCH)
    return b.done()


# ---------------------------------------------------------------------------
# desk: the tabletop is the "room", its edges are the walls


def desk() -> Scene:
    b = _SceneBuilder(_rect_room(1.8, 1.0))

    stacks = []
    for s in range(2):
        books = [b.add_object("book", f"book_{s}_{i}") for i in range(5)]
        book_height = 0.035
        for lower, upper in zip(books, books[1:]):
            b.constrain(cn.STACKING, (lower, upper), height_gap=book_height)
        stacks.append(books)

    notepad = b.add_object("notepad", "notepad")
    rubiks = b.add_object("rubiks_cube", "rubiks_cube")
    pencils = [b.add_object("pencil", f"pencil_{i}") for i in range(3)]
    plate = b.add_object("plate", "plate")
    binder = b.add_object("binder", "binder")
    photo = b.add_object("photo_frame", "photo_frame")
    plant = b.add_object("potted_plant", "potted_plant")
    laptop = b.add_object("laptop", "laptop")
    mug = b.add_object("mug", "mug")

    b.constrain(cn.HEAT_POINT, (laptop,), point=Vec2(0.9, 0.3))
    b.constrain(cn.HEAT_POINT, (notepad,), point=Vec2(1.45, 0.25))
    b.constrain(cn.HEAT_POINT, (rubiks,), point=Vec2(0.35, 0.25))

    b.constrain(cn.PAIRWISE_DISTANCE, (plant, stacks[1][0]), distance=0.25)
    b.constrain(cn.PAIRWISE_DISTANCE, (stacks[0][0], binder), distance=0.4)
    b.constrain(cn.PAIRWISE_DISTANCE, (binder, photo), distance=0.35)
    b.constrain(cn.PAIRWISE_DISTANCE, (photo, mug), distance=0.2)
    for a, bb in zip(pencils, pencils[1:]):
        b.constrain(cn.PAIRWISE_DISTANCE, (a, bb), distance=0.2)

    b.constrain(cn.FOCAL_POINT, (plate, laptop), distance=0.45)
    for pencil in pencils:
        b.constrain(cn.FOCAL_POINT, (pencil, rubiks), distance=0.15)
    b.constrain(cn.FOCAL_POINT, (stacks[0][0], rubiks), distance=0.5)

    b.constrain(cn.WALL_DISTANCE, (stacks[1][0],), distance=0.15)
    return b.done()


# ---------------------------------------------------------------------------
# tightly packed bedroom: beds rigidly grouped with their footlockers


def tp_bedroom() -> Scene:
    b = _SceneBuilder(_rect_room(7.0, 6.0))

    bed_particles = []
    for i in range(3):
        bed = b.add_object("bed", f"bed_{i}")
        b.add_object("footlocker", f"footlocker_{i}")
        bed_particles.append(bed)

    table = b.add_object("table", "table")
    chair1 = b.add_object("chair", "chair_0")
    chair2 = b.add_object("chair", "chair_1")
    lamp = b.add_object("floor_lamp", "floor_lamp")
    bookcase = b.add_object("bookcase", "bookcase")
    rack = b.add_object("coat_rack", "coat_rack")

    for i in range(3):
        b.add_group(
            f"bunk_{i}",
            (f"bed_{i}", f"footlocker_{i}"),
            Vec2(1.35, 0.5),
            0.3,
            member_offsets=((0.0, 0.0, 0.0), (1.35, 0.0, 0.0)),
        )
        b.constrain(cn.WALL_DISTANCE, (bed_particles[i],), distance=1.15)
        b.constrain(cn.WALL_ORIENTATION, (bed_particles[i],))

    b.constrain(cn.WALL_DISTANCE, (table,), distance=0.75)
    b.constrain(cn.WALL_DISTANCE, (bookcase,), distance=0.65)
    b.constrain(cn.WALL_ORIENTATION, (bookcase,))
    for chair in (chair1, chair2):
        b.constrain(cn.FOCAL_POINT, (chair, table), distance=1.1)
        b.constrain(cn.PAIRWISE_ORIENTATION, (chair, table), orientation_mode=cn.ORIENT_FACE)
    b.constrain(cn.PAIRWISE_DISTANCE, (lamp, table), distance=1.0)
    b.constrain(cn.PAIRWISE_DISTANCE, (bookcase, rack), distance=0.95)
    return b.done()


# ---------------------------------------------------------------------------
# tightly packed picnic: object counts drawn per seed before synthesis


TP_PICNIC_RANGES = {
    "round_tables": (4, 8),   # each brings four rigidly attached chairs
    "rect_tables": (2, 5),
    "trash_can_pairs": (2, 4),
    "grills": (2, 6),
}


def tp_picnic(seed: int = 0) -> Scene:
    rng = np.random.default_rng(seed)
    counts = {
        key: int(rng.integers(low, high + 1)) for key, (low, high) in TP_PICNIC_RANGES.items()
    }

    b = _SceneBuilder(_rect_room(20.0, 15.0))

    chair_r = 0.95
    chair_seats = (
        (chair_r, 0.0, math.pi),
        (0.0, chair_r, -0.5 * math.pi),
        (-chair_r, 0.0, 0.0),
        (0.0, -chair_r, 0.5 * math.pi),
    )
    for t in range(counts["round_tables"]):
        b.add_object("table_round", f"round_table_{t}")
        for s in range(4):
            b.add_object("chair", f"round_table{t}_chair_{s}")

    for t in range(counts["rect_tables"]):
        b.add_object("table_rect", f"rect_table_{t}")

    can_targets = [Vec2(2.5, 2.5), Vec2(17.5, 2.5), Vec2(2.5, 12.5), Vec2(17.5, 12.5)]
    for pair_index in range(counts["trash_can_pairs"]):
        first = b.add_object("trash_can", f"trash_can_{2 * pair_index}")
        second = b.add_object("trash_can", f"trash_can_{2 * pair_index + 1}")
        b.constrain(cn.PAIRWISE_DISTANCE, (first, second), distance=0.7)
        b.constrain(
            cn.HEAT_POINT, (first, second), point=can_targets[pair_index % len(can_targets)]
        )

    grills = [b.add_object("bbq_grill", f"grill_{i}") for i in range(counts["grills"])]
    for a, bb in zip(grills, grills[1:]):
        b.constrain(cn.PAIRWISE_DISTANCE, (a, bb), distance=1.0)

    carousel = b.add_object("carousel", "carousel")
    b.constrain(cn.HEAT_POINT, (carousel,), point=Vec2(10.0, 13.0))

    for t in range(counts["round_tables"]):
        b.add_group(
            f"table_group_{t}",
            (f"round_table_{t}", *(f"round_table{t}_chair_{s}" for s in range(4))),
            Vec2(chair_r + 0.25, chair_r + 0.25),
            0.45,
            member_offsets=((0.0, 0.0, 0.0), *chair_seats),
        )

    b.scene.solver_defaults = {"max_iterations": 270}
    return b.done()


# ---------------------------------------------------------------------------


_BUILDERS = {
    "theater1": theater1,
    "theater2": theater2,
    "picnic": picnic,
    "living_room": living_room,
    "desk": desk,
    "tp_bedroom": tp_bedroom,
    "tp_picnic": tp_picnic,
}


def build(name: str, params: dict | None = None, seed: int = 0) -> Scene:
    """Scene for a named template. ``params`` feeds the builder's keyword
    arguments; the seed only matters for templates that randomize their
    object counts."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scene template {name!r}; choose from {TEMPLATE_NAMES}")
    params = dict(params or {})
    if name == "tp_picnic":
        params.setdefault("seed", seed)
    return _BUILDERS[name](**params)
