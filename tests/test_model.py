import math
import re

import numpy as np
import pytest

from layoutsynth import model, scenes
from layoutsynth.constraints import boundary_violation
from layoutsynth.geometry import Curve, Vec2, polygon_signed_area
from layoutsynth.model import (
    INFINITE,
    AccessRegion,
    BoundingBox,
    Group,
    LayoutObject,
    Particle,
    Room,
    Scene,
    clamp_inside,
    mass_from_bbox,
    nearest_wall_point,
)

SQUARE = Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)])
L_ROOM = Room([Vec2(0, 0), Vec2(8, 0), Vec2(8, 3), Vec2(5, 3), Vec2(5, 6), Vec2(0, 6)])
SLANTED = Room([Vec2(0, 0), Vec2(6, 1), Vec2(7, 5), Vec2(-1, 4)])


def _rect(x0, y0, w, h):
    return Room([Vec2(x0, y0), Vec2(x0 + w, y0), Vec2(x0 + w, y0 + h), Vec2(x0, y0 + h)])


def _loop_nearest(room, p):
    """The nearest wall measured against every wall, as one loop over the
    wall table: the reference the side path must reproduce."""
    px, py = p[0], p[1]
    best_d2 = math.inf
    best = None
    for ax, ay, dx, dy, inv_len2, nx, ny, tangent in room._wall_data:
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
            best = (qx, qy, nx, ny, tangent)
    return best


def _loop_clamp(room, x, y, radius):
    """``clamp_inside`` with every wall's projection run in every round."""
    for _ in range(16):
        changed = False
        if not room.contains((x, y)):
            qx, qy, nx, ny, _ = _loop_nearest(room, (x, y))
            x = qx + nx * radius
            y = qy + ny * radius
            changed = True
        for ax, ay, wdx, wdy, inv_len2, wnx, wny, _ in room._wall_data:
            t = ((x - ax) * wdx + (y - ay) * wdy) * inv_len2
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            qx = ax + t * wdx
            qy = ay + t * wdy
            dist = math.hypot(x - qx, y - qy)
            if dist < radius - 1e-12:
                nx, ny = ((x - qx) / dist, (y - qy) / dist) if dist > 1e-9 else (wnx, wny)
                x = qx + nx * radius
                y = qy + ny * radius
                changed = True
        if not changed:
            break
    return x, y


def _hex(values):
    return [float.hex(float(v)) for v in values]


def _flat(found):
    (qx, qy), (nx, ny), tangent = found
    return qx, qy, nx, ny, tangent


def _probe_points(rng, room):
    """Points that test the side path's decisions, as (kind, x, y):
    anywhere near the room, strictly inside it, near a corner at every
    scale, near a corner's diagonal (two clearances all but tied), and at
    the edge of the room's gap (the runner-up's square from a thousandth
    of a gap to three gaps either side of the smallest one's)."""
    x0, y0, x1, y1 = room.bounds()
    w, h = x1 - x0, y1 - y0
    scale = max(abs(x0), abs(y0), abs(x1), abs(y1))
    cx, cy = rng.choice([x0, x1]), rng.choice([y0, y1])
    sx, sy = (1.0 if cx == x0 else -1.0), (1.0 if cy == y0 else -1.0)
    yield "near", rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1)
    yield "inside", rng.uniform(x0, x1), rng.uniform(y0, y1)
    reach = 10.0 ** rng.uniform(-14, 0)
    yield "corner", cx + rng.uniform(-1, 1) * reach, cy + rng.uniform(-1, 1) * reach
    d = rng.uniform(0, 0.5 * min(w, h))
    skew = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-16, -6) * max(1.0, scale)
    yield "diagonal", cx + sx * d, cy + sy * (d + skew)
    c = rng.uniform(0, 0.5 * min(w, h))
    spread = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 0.5)
    runner = math.sqrt(max(0.0, c * c + spread * room._gap))
    if rng.uniform() < 0.5:
        yield "gap", cx + sx * c, cy + sy * runner
    else:
        yield "gap", cx + sx * runner, cy + sy * c


class TestParticle:
    def test_inverse_mass_matches(self):
        p = Particle(Vec2(0, 0), mass=4.0)
        assert p.inverse_mass * p.mass == pytest.approx(1.0, abs=1e-9)

    def test_infinite_mass_means_zero_inverse(self):
        p = Particle(Vec2(0, 0), mass=INFINITE)
        assert p.inverse_mass == 0.0
        assert p.fixed

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            Particle(Vec2(0, 0), mass=0.0)
        with pytest.raises(ValueError):
            Particle(Vec2(0, 0), mass=-2.0)

    def test_rejects_nonfinite_position(self):
        with pytest.raises(ValueError):
            Particle(Vec2(math.nan, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["z", "orientation"])
    def test_rejects_nonfinite_pose_field_by_name(self, name, value):
        with pytest.raises(ValueError, match=rf"^particle {name} must be finite"):
            Particle(Vec2(0, 0), **{name: value})

    def test_orientation_normalized(self):
        p = Particle(Vec2(0, 0), orientation=-math.pi / 2)
        assert 0.0 <= p.orientation < 2 * math.pi
        assert p.orientation == pytest.approx(1.5 * math.pi)


class TestBoundingBox:
    def test_derived_quantities(self):
        bbox = BoundingBox(Vec2(0.5, 0.5), 0.5)  # unit cube
        assert bbox.volume == pytest.approx(1.0)
        assert bbox.footprint_diagonal == pytest.approx(math.sqrt(2))
        assert bbox.bounding_radius == pytest.approx(math.sqrt(2) / 2)
        assert bbox.bounding_radius >= max(bbox.half_extents)

    def test_mass_from_bbox(self):
        assert mass_from_bbox(BoundingBox(Vec2(0.5, 0.5), 0.5)) == pytest.approx(1.0)
        assert mass_from_bbox(BoundingBox(Vec2(1, 1), 1)) == pytest.approx(8.0)
        assert mass_from_bbox(BoundingBox(Vec2(0.5, 1.0), 0.25)) == pytest.approx(1.0)
        # finite half sizes whose volume overflows would read as a fixed object
        with pytest.raises(ValueError, match="overflows"):
            mass_from_bbox(BoundingBox(Vec2(5e102, 5e102), 5e102))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(Vec2(0.0, 1.0), 1.0)


class TestRoom:
    def test_normalizes_to_counterclockwise(self):
        cw = Room([Vec2(0, 0), Vec2(0, 10), Vec2(10, 10), Vec2(10, 0)])
        assert polygon_signed_area(cw.boundary) > 0

    def test_rejects_self_intersection(self):
        with pytest.raises(ValueError):
            Room([Vec2(0, 0), Vec2(4, 4), Vec2(4, 0), Vec2(0, 4)])

    def test_centroid(self):
        assert SQUARE.centroid == pytest.approx((5.0, 5.0))

    @pytest.mark.parametrize("boundary, rule", [
        ([(0, 0), (1, 0), (2, 0), (3, 0)], "room boundary encloses no area"),
        ([(0, 0), (1, 1), (2, 2), (3, 3)], "room boundary encloses no area"),
        # the wall from (1, 0) to (1, 1e-300) has a squared length of 0.0
        ([(0, 0), (1, 0), (1, 1e-300), (0, 1e-300)], "room boundary has a zero-length wall"),
    ])
    def test_rejects_boundary_without_area_or_wall_length(self, boundary, rule):
        with pytest.raises(ValueError, match=rule):
            Room([Vec2(x, y) for x, y in boundary])


class TestNearestWall:
    def test_interior_point(self):
        point, normal, tangent = nearest_wall_point(SQUARE, (3, 5))
        assert point == pytest.approx((0.0, 5.0))
        assert normal == pytest.approx((1.0, 0.0))
        assert tangent == pytest.approx(math.pi / 2)

    def test_on_wall_distance_zero(self):
        point, _, _ = nearest_wall_point(SQUARE, (0, 5))
        assert point == pytest.approx((0.0, 5.0))

    def test_centroid_tie_breaks_to_first_wall(self):
        point, normal, _ = nearest_wall_point(SQUARE, (5, 5))
        # first stored wall is (0,0)->(10,0)
        assert point == pytest.approx((5.0, 0.0))
        assert normal == pytest.approx((0.0, 1.0))

    def test_against_dense_boundary_sampling(self):
        room = Room([Vec2(0, 0), Vec2(8, 0), Vec2(8, 3), Vec2(5, 3), Vec2(5, 6), Vec2(0, 6)])
        samples = []
        for a, b in zip(room.boundary, room.boundary[1:] + room.boundary[:1]):
            for t in np.linspace(0, 1, 1250):
                samples.append((a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        samples = np.array(samples)
        rng = np.random.default_rng(7)
        for p in rng.uniform((0, 0), (8, 6), size=(50, 2)):
            point, _, _ = nearest_wall_point(room, p)
            got = math.hypot(point.x - p[0], point.y - p[1])
            best = np.min(np.hypot(samples[:, 0] - p[0], samples[:, 1] - p[1]))
            assert got <= best + 1e-6
            # on the boundary: a unit circle there pokes out by its radius
            assert boundary_violation(room, point, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_normal_points_into_room(self):
        rng = np.random.default_rng(8)
        for p in rng.uniform((0.5, 0.5), (9.5, 9.5), size=(25, 2)):
            point, normal, _ = nearest_wall_point(SQUARE, p)
            probe = (point.x + 1e-3 * normal.x, point.y + 1e-3 * normal.y)
            assert SQUARE.contains(probe)

    @pytest.mark.parametrize("point", [(1e200, 0.0), (1e160, 1e160), (math.nan, 1.0)])
    @pytest.mark.parametrize("measure", [
        nearest_wall_point,
        lambda room, p: clamp_inside(room, p[0], p[1], 0.5),
    ], ids=["nearest_wall_point", "clamp_inside"])
    def test_point_without_a_nearest_wall_is_a_value_error(self, point, measure):
        # every wall's squared distance is infinite or NaN, so none ranks
        room = scenes.living_room().room
        with pytest.raises(ValueError, match=re.escape(f"point ({point[0]!r}, {point[1]!r}) "
                                                       "has no nearest wall")):
            measure(room, point)

    def test_rectangle_side_path_gives_the_loop_bits(self, monkeypatch):
        loop = model._nearest_wall
        looped = []

        def spy(room, px, py):
            looped.append((px, py))
            return loop(room, px, py)

        monkeypatch.setattr(model, "_nearest_wall", spy)
        rng = np.random.default_rng(928)
        calls: dict[str, int] = {}
        sided: dict[str, int] = {}
        for offset in (0.0, 1e4, -1e4):
            for _ in range(400):
                x0, y0 = offset + rng.uniform(-5, 5, 2)
                w, h = rng.uniform(0.5, 10, 2)
                room = _rect(x0, y0, w, h)
                for kind, x, y in _probe_points(rng, room):
                    looped.clear()
                    assert _hex(_flat(nearest_wall_point(room, (x, y)))) == \
                        _hex(_loop_nearest(room, (x, y))), (kind, x, y)
                    calls[kind] = calls.get(kind, 0) + 1
                    sided[kind] = sided.get(kind, 0) + (not looped)
        # the sides name the wall for most points inside; never for a
        # point that may lie outside without the loop agreeing; and both
        # ways at the gap's edge
        assert sided["inside"] > 0.9 * calls["inside"]
        assert 0 < sided["gap"] < calls["gap"]
        assert 0 < sided["diagonal"] < calls["diagonal"]

    def test_clamp_skips_give_the_loop_bits(self):
        rng = np.random.default_rng(929)
        rooms = [L_ROOM, SLANTED]
        for offset in (0.0, 1e4, -1e4):
            for _ in range(100):
                x0, y0 = offset + rng.uniform(-5, 5, 2)
                w, h = rng.uniform(0.5, 10, 2)
                rooms.append(_rect(x0, y0, w, h))
        for room in rooms:
            x0, y0, x1, y1 = room.bounds()
            for _ in range(20 if room._rect is not None else 400):
                for kind, x, y in _probe_points(rng, room):
                    radius = rng.uniform(0.01, 0.6 * min(x1 - x0, y1 - y0))
                    assert _hex(clamp_inside(room, x, y, radius)) == \
                        _hex(_loop_clamp(room, x, y, radius)), (kind, x, y, radius)
                    assert _hex(_flat(nearest_wall_point(room, (x, y)))) == \
                        _hex(_loop_nearest(room, (x, y))), (kind, x, y)

    def test_every_vertex_order_gives_the_loop_bits(self):
        # each side's wall is found whichever corner the boundary starts
        # at and whichever way it winds
        def orders(corners):
            rotations = [corners[k:] + corners[:k] for k in range(4)]
            return [Room(c) for c in rotations] + [Room(c[::-1]) for c in rotations]

        x0, y0, w, h = 1.5, -2.25, 7.3, 4.1
        corners = [Vec2(x0, y0), Vec2(x0 + w, y0), Vec2(x0 + w, y0 + h), Vec2(x0, y0 + h)]
        rng = np.random.default_rng(930)
        points = [p[1:] for _ in range(500) for p in _probe_points(rng, _rect(x0, y0, w, h))]
        for room in orders(corners):
            for p in points:
                assert _hex(_flat(nearest_wall_point(room, p))) == _hex(_loop_nearest(room, p)), p
        # the centre of a square ties all four walls; the first stored wins
        square = [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)]
        for room in orders(square):
            ax, ay, dx, dy, _, nx, ny, tangent = room._wall_data[0]
            assert _flat(nearest_wall_point(room, (5, 5))) == \
                (ax + 0.5 * dx, ay + 0.5 * dy, nx, ny, tangent)


class TestAccessRegion:
    def test_world_center_rotates(self):
        region = AccessRegion(Vec2(1.0, 0.0), diagonal=0.5)
        w = region.world_center(Vec2(2, 3), math.pi / 2)
        assert w.x == pytest.approx(2.0)
        assert w.y == pytest.approx(4.0)

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError):
            AccessRegion(Vec2(0, 0), diagonal=-0.1)


def _tiny_scene() -> Scene:
    scene = Scene(room=SQUARE)
    scene.particles.append(Particle(Vec2(5, 5)))
    scene.objects.append(
        LayoutObject(id="box", label="box", particle_index=0, bbox=BoundingBox(Vec2(0.5, 0.5), 0.5))
    )
    return scene


class TestScene:
    def test_validate_accepts_consistent(self):
        _tiny_scene().validate()

    def test_validate_rejects_bad_particle_index(self):
        scene = _tiny_scene()
        scene.objects[0].particle_index = 5
        with pytest.raises(ValueError):
            scene.validate()

    def test_validate_rejects_duplicate_ids(self):
        scene = _tiny_scene()
        scene.particles.append(Particle(Vec2(2, 2)))
        scene.objects.append(
            LayoutObject(id="box", label="box", particle_index=1, bbox=BoundingBox(Vec2(0.5, 0.5), 0.5))
        )
        with pytest.raises(ValueError):
            scene.validate()

    def test_validate_rejects_missing_group_member(self):
        scene = _tiny_scene()
        scene.particles.append(Particle(Vec2(1, 1)))
        scene.groups.append(
            Group(id="g", particle_index=1, member_object_ids=("ghost",),
                  member_offsets=((0.0, 0.0, 0.0),))
        )
        with pytest.raises(ValueError):
            scene.validate()

    def test_validate_rejects_an_object_in_two_groups(self):
        scene = _tiny_scene()
        scene.particles += [Particle(Vec2(1, 1)), Particle(Vec2(2, 2))]
        scene.groups.append(Group(id="g", particle_index=1, member_object_ids=("box",)))
        scene.validate()
        scene.groups.append(
            Group(id="h", particle_index=2, member_object_ids=("box",),
                  member_offsets=((0.0, 0.0, 0.0),))
        )
        with pytest.raises(ValueError, match=r"^groups\[1\]: object 'box' is in groups 'g' and 'h'"):
            scene.validate()

    def test_validate_rejects_a_fixed_member_of_a_rigid_group(self):
        # the group particle would carry the fixed member along; a curve
        # group gives a fixed member weight 0, so it may keep one
        scene = _tiny_scene()
        scene.particles[0].mass = INFINITE
        scene.particles.append(Particle(Vec2(1, 1)))
        scene.groups.append(Group(id="g", particle_index=1, member_object_ids=("box",),
                                  curve=Curve(Vec2(-1, 0), Vec2(1, 0))))
        scene.validate()
        scene.groups[0] = Group(id="g", particle_index=1, member_object_ids=("box",),
                                member_offsets=((0.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match=r"^groups\[0\]: rigid group 'g' would move fixed object 'box'$"):
            scene.validate()

    def test_validate_names_the_failing_constraint(self):
        from layoutsynth.constraints import Constraint

        scene = _tiny_scene()
        scene.constraints.append(Constraint("heat_point", (0,), point=Vec2(1, 1)))
        scene.constraints.append(Constraint("wall_distance", (0,)))
        with pytest.raises(ValueError, match=r"^constraints\[1\]: wall_distance"):
            scene.validate()
        scene.constraints[1] = Constraint("wall_distance", (7,), distance=1.0)
        with pytest.raises(ValueError, match=r"^constraints\[1\]: .*missing particle 7"):
            scene.validate()

    @pytest.mark.parametrize("kind, fields", [
        ("heat_point", {"point": Vec2(3, 4)}), ("focal_symmetry", {"vector": Vec2(1, 0)}),
    ])
    def test_validate_rejects_weighing_a_fixed_object(self, kind, fields):
        from layoutsynth.constraints import Constraint
        from layoutsynth.solver import SolverConfig, synthesize

        # objects of mass INFINITE, 1 and 2; a solve would reach a weighted
        # center that is not a number
        scene = Scene(room=SQUARE)
        for i, mass in enumerate((INFINITE, 1.0, 2.0)):
            scene.particles.append(Particle(Vec2(2.0 + 2 * i, 5.0), mass=mass))
            scene.objects.append(LayoutObject(id=f"o{i}", label="box", particle_index=i,
                                              bbox=BoundingBox(Vec2(0.5, 0.5), 0.5)))
        scene.constraints.append(Constraint("wall_distance", (1,), distance=1.0))
        weighed = (0, 1, 2) if kind == "heat_point" else (1, 0, 2)
        scene.constraints.append(Constraint(kind, weighed, **fields))
        message = rf"^constraints\[1\]: {kind} weighs fixed object 'o0' by its infinite mass$"
        with pytest.raises(ValueError, match=message):
            scene.validate()
        with pytest.raises(ValueError, match=message):
            synthesize(scene, SolverConfig(max_iterations=5))
        # a fixed anchor or focal is not weighed: the solve ends finite
        scene.constraints[1] = Constraint(kind, (0, 1, 2), **(
            {} if kind == "heat_point" else fields))
        scene.validate()
        _, trace = synthesize(scene, SolverConfig(max_iterations=5))
        assert math.isfinite(trace.best_energy)

    def test_validate_rejects_visual_balance_of_groups_only(self):
        from layoutsynth.constraints import Constraint
        from layoutsynth.solver import SolverConfig, synthesize

        # a group has no footprint, so its visual weight is 0 and the
        # weighted center would divide by a zero total
        scene = Scene(room=SQUARE)
        for i in range(2):
            scene.particles.append(Particle(Vec2(3.0 + 2 * i, 5.0)))
            scene.objects.append(LayoutObject(id=f"o{i}", label="box", particle_index=i,
                                              bbox=BoundingBox(Vec2(0.5, 0.5), 0.5)))
        scene.particles.append(Particle(Vec2(4.0, 5.0)))
        scene.groups.append(Group(id="g", particle_index=2, member_object_ids=("o0", "o1")))
        scene.constraints.append(Constraint("visual_balance", (2,)))
        message = r"^constraints\[0\]: visual_balance weighs only groups, which have no footprint$"
        with pytest.raises(ValueError, match=message):
            scene.validate()
        with pytest.raises(ValueError, match=message):
            synthesize(scene, SolverConfig(max_iterations=5))
        # a group beside an object is weighed by the object: the solve ends finite
        scene.constraints[0] = Constraint("visual_balance", (2, 0))
        scene.validate()
        _, trace = synthesize(scene, SolverConfig(max_iterations=5))
        assert math.isfinite(trace.best_energy)

    def test_add_object_and_group_defaults(self):
        scene = Scene(room=SQUARE, catalogue={"crate": {"size": [1.0, 2.0, 0.5],
                                                        "access": {"front": 0.4}}})
        assert scene.add_object("a", "crate") == 0
        assert scene.add_object("b", "crate", position=Vec2(1, 2), theta=0.5, fixed=True) == 1
        assert scene.add_group("g", ["a"], mass=3.0, member_offsets=((0.0, 0.0, 0.0),)) == 2
        a, b, g = scene.particles
        assert a.position == SQUARE.centroid and a.mass == pytest.approx(1.0)
        assert (b.position, b.orientation, b.fixed) == (Vec2(1, 2), 0.5, True)
        assert g.position == SQUARE.centroid and g.mass == 3.0
        assert scene.objects[0].bbox == BoundingBox(Vec2(0.5, 1.0), 0.25)
        assert [r.enabled for r in scene.objects[0].accessibility] == [False, False, True, False]
        assert scene.groups[0].particle_index == 2
        scene.validate()
