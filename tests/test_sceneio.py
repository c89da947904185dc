import json
import math

import pytest

from layoutsynth import constraints as cn
from layoutsynth.cli import main
from layoutsynth.geometry import Vec2
from layoutsynth.model import BoundingBox, LayoutObject, Particle, Room, Scene, regions_from_entry
from layoutsynth.sceneio import SceneFormatError, load_scene, parse_scene, save_scene, serialize_scene
from layoutsynth.scenes import TEMPLATE_NAMES, build

MINIMAL = {
    "room": {"boundary": [[0, 0], [10, 0], [10, 8], [0, 8]]},
    "catalogue": {"crate": {"size": [1.0, 1.0, 1.0], "access": {}}},
    "objects": [{"id": "crate_0", "label": "crate"}],
}


def doc(**overrides):
    out = json.loads(json.dumps(MINIMAL))
    out.update(overrides)
    return out


class TestParse:
    def test_minimal_scene(self):
        scene = parse_scene(json.dumps(MINIMAL))
        assert len(scene.particles) == 1
        assert scene.objects[0].id == "crate_0"
        assert scene.particles[0].mass == pytest.approx(1.0)

    def test_syntax_error_reports_line(self):
        with pytest.raises(SceneFormatError, match="line 2"):
            parse_scene('{\n "room": [,]\n}')

    def test_unknown_root_field_rejected(self):
        with pytest.raises(SceneFormatError, match="colour"):
            parse_scene(json.dumps(doc(colour="red")))

    def test_unknown_object_field_named_with_path(self):
        bad = doc()
        bad["objects"][0]["wheels"] = 4
        with pytest.raises(SceneFormatError, match=r"objects\[0\].*wheels"):
            parse_scene(json.dumps(bad))

    def test_member_ts_fails_validate(self, tmp_path):
        # the solver attaches each member to its nearest curve point, so a
        # group names no per-member curve coordinate
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(doc(groups=[{
            "id": "g", "members": ["crate_0"], "member_ts": [0.5],
            "curve": {"a": [-1, 0], "b": [1, 0]},
        }])))
        assert main(["validate", str(path)]) == 2

    def test_unknown_constraint_kind(self):
        bad = doc(constraints=[{"kind": "gravity", "objects": ["crate_0"]}])
        with pytest.raises(SceneFormatError, match="gravity"):
            parse_scene(json.dumps(bad))

    def test_dangling_reference_names_id(self):
        bad = doc(constraints=[{
            "kind": "pairwise_distance", "objects": ["crate_0", "ghost"], "distance": 1.0,
        }])
        with pytest.raises(SceneFormatError, match="ghost"):
            parse_scene(json.dumps(bad))

    def test_nonpositive_weight_rejected(self):
        bad = doc(constraints=[{
            "kind": "heat_point", "objects": ["crate_0"], "point": [1, 1], "weight": 0.0,
        }])
        with pytest.raises(SceneFormatError, match="weight"):
            parse_scene(json.dumps(bad))

    def test_unknown_label_rejected(self):
        bad = doc()
        bad["objects"][0]["label"] = "sofa"
        with pytest.raises(SceneFormatError, match="sofa"):
            parse_scene(json.dumps(bad))

    def test_degrees_converted_to_radians(self):
        d = doc()
        d["objects"][0]["pose"] = {"x": 2, "y": 3, "theta_deg": 90}
        scene = parse_scene(json.dumps(d))
        assert scene.particles[0].orientation == pytest.approx(math.pi / 2)

    def test_fixed_flag_gives_infinite_mass(self):
        d = doc()
        d["objects"][0]["fixed"] = True
        scene = parse_scene(json.dumps(d))
        assert scene.particles[0].inverse_mass == 0.0

    def test_bad_curve_rejected(self):
        d = doc()
        d["objects"].append({"id": "crate_1", "label": "crate"})
        d["groups"] = [{
            "id": "g", "members": ["crate_0", "crate_1"],
            "curve": {"a": [1, 0], "b": [0, 2], "center": [0, 0]},
        }]
        with pytest.raises(SceneFormatError, match="radi"):
            parse_scene(json.dumps(d))

    def test_group_with_offsets_is_rigid(self):
        d = doc(groups=[{"id": "g", "members": ["crate_0"], "member_offsets": [[1, 0, 90]]}])
        group = parse_scene(json.dumps(d)).groups[0]
        assert group.rigid and group.curve is None
        assert group.member_offsets == ((1.0, 0.0, math.pi / 2),)

    def test_curve_with_center_is_arc(self):
        d = doc(groups=[{"id": "g", "members": ["crate_0"],
                         "curve": {"a": [1, 0], "b": [0, 1], "center": [0, 0]}}])
        group = parse_scene(json.dumps(d)).groups[0]
        assert not group.rigid
        assert group.curve.center == Vec2(0, 0)
        assert group.curve.point_at(0.5) == pytest.approx((math.sqrt(0.5), math.sqrt(0.5)))

    def test_constraint_defaults_applied(self):
        d = doc(constraints=[{"kind": "wall_distance", "objects": ["crate_0"], "distance": 1.0}])
        scene = parse_scene(json.dumps(d))
        assert scene.constraints[0].relation == cn.EQUALITY
        assert scene.constraints[0].weight == 20.0



def _set(path, value):
    """Doc edit that sets the value at a key path (a tuple of keys and
    list indices)."""
    def edit(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _with_group(**fields):
    def edit(d):
        d["groups"] = [dict({"id": "g", "members": ["crate_0"]}, **fields)]
    return edit


def _in_two_groups(d):
    d["groups"] = [
        {"id": "g", "members": ["crate_0"], "curve": {"a": [-1, 0], "b": [1, 0]}},
        {"id": "h", "members": ["crate_0"], "member_offsets": [[0, 0, 0]]},
    ]


def _fixed_in_rigid_group(d):
    d["objects"][0]["fixed"] = True
    d["groups"] = [{"id": "g", "members": ["crate_0"], "member_offsets": [[0, 0, 0]]}]


def _with_constraint(**fields):
    def edit(d):
        d["constraints"] = [dict({"kind": "heat_point", "objects": ["crate_0"]}, **fields)]
    return edit


def _stacked(*pairs):
    """Doc edit that adds crates a, b and c and stacks each (bottom, top)."""
    def edit(d):
        d["objects"] += [{"id": name, "label": "crate"} for name in "abc"]
        d["constraints"] = [
            {"kind": "stacking", "objects": list(pair), "height_gap": 1.0} for pair in pairs
        ]
    return edit


class TestMalformed:
    """Every malformed file fails with a SceneFormatError naming the
    offending path; none crashes or is read as something else."""

    @pytest.mark.parametrize("edit, where", [
        (_set(("objects",), 5), r"^objects:"),
        (_set(("catalogue",), [1]), r"^catalogue:"),
        (_set(("catalogue", "crate", "size"), [True, 1, 1]), r"catalogue\['crate'\]\.size\[0\]"),
        (_set(("objects", 0, "label"), ["crate"]), r"objects\[0\]\.label"),
        (_set(("objects", 0, "fixed"), "no"), r"objects\[0\]\.fixed"),
        (_set(("objects", 0, "pose"), {"x": True}), r"objects\[0\]\.pose\.x"),
        (_set(("objects", 0, "pose"), {"y": 10 ** 400}), r"objects\[0\]\.pose\.y"),
        (_with_group(pose=5), r"groups\[0\]\.pose"),
        (_with_group(members=[["crate_0"]]), r"groups\[0\]\.members\[0\]"),
        (_with_group(curve={"kind": "arc", "a": [1, 0], "b": [-1, 0], "center": [0, 0]}),
         r"^groups\[0\]\.curve: unknown field 'kind'"),
        (_with_group(curve={"a": [1, 0], "b": [-1, 0], "center": "origin"}),
         r"^groups\[0\]\.curve\.center"),
        (_with_group(member_ts=[0.5]), r"^groups\[0\]: unknown field 'member_ts'"),
        (_with_group(rigidity="nonrigid", member_offsets=[[0, 0, 0]]),
         r"^groups\[0\]: unknown field 'rigidity'"),
        (_with_group(member_offsets=[[0, 0, 0]], curve={"a": [-1, 0], "b": [1, 0]}),
         r"^groups\[0\]: rigid groups take no curve"),
        (lambda d: d["objects"][0].update(fixed=True, mass=5.0),
         r"^objects\[0\]: a fixed object takes no mass"),
        (_set(("catalogue", "crate", "size"), [1e103, 1e103, 1e103]),
         r"^objects\[0\]: cannot derive mass from a box whose volume overflows"),
        (_in_two_groups, r"^groups\[1\]: object 'crate_0' is in groups 'g' and 'h'"),
        (_with_group(members=["crate_0", "crate_0"]),
         r"^groups\[0\]: group 'g' names object 'crate_0' twice"),
        (_fixed_in_rigid_group, r"^groups\[0\]: rigid group 'g' would move fixed object 'crate_0'"),
        (_with_constraint(pin_focal="no"), r"constraints\[0\]\.pin_focal"),
        (_with_constraint(face=True), r"constraints\[0\]: unknown field 'face'"),
        (_with_constraint(kind="pairwise_distance", objects=["crate_0", "crate_0"], distance=1.0),
         r"constraints\[0\]: pairwise_distance names one participant twice"),
        (_with_constraint(kind="stacking", objects=["crate_0", "crate_0"], height_gap=1.0),
         r"constraints\[0\]: stacking names one participant twice"),
        (_stacked(("b", "a"), ("a", "b")), r"constraints\[1\]: stacking 'b' on 'a' closes a loop"),
        (_stacked(("a", "c"), ("b", "c")),
         r"constraints\[1\]: stacking 'c' on 'b' gives it a second bottom"),
        (_with_constraint(weight=True), r"constraints\[0\]\.weight"),
        (_with_constraint(objects=[["crate_0"]]), r"constraints\[0\]\.objects\[0\]"),
    ])
    def test_rejected_with_path(self, edit, where):
        d = doc()
        edit(d)
        with pytest.raises(SceneFormatError, match=where):
            parse_scene(json.dumps(d))

    @pytest.mark.parametrize("edit, where", [
        (_set(("room", "boundary"), [[0, 0], [1e155, 0], [1e155, 1e155], [0, 1e155]]),
         r"room\.boundary\[1\]\[0\]"),
        (_with_constraint(kind="wall_distance", distance=1e155), r"constraints\[0\]\.distance"),
        (_with_constraint(point=[1e155, 1e155]), r"constraints\[0\]\.point\[0\]"),
        (_set(("objects", 0, "pose"), {"x": 1e155}), r"objects\[0\]\.pose\.x"),
        (_set(("catalogue", "crate", "size"), [1e155, 1, 1]), r"catalogue\['crate'\]\.size\[0\]"),
    ], ids=["room", "distance", "point", "pose", "size"])
    def test_number_too_large_to_square_fails_validate(self, edit, where, tmp_path):
        # a distance between two such numbers would overflow to infinity
        d = doc()
        edit(d)
        text = json.dumps(d)
        message = ": expected a number of magnitude at most 1e150"
        with pytest.raises(SceneFormatError, match=where + message):
            parse_scene(text)
        path = tmp_path / "scene.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("boundary, rule", [
    ([[0, 0], [1, 0], [2, 0], [3, 0]], "encloses no area"),
    ([[0, 0], [1, 1], [2, 2], [3, 3]], "encloses no area"),
    ([[0, 0], [1, 0], [1, 1e-300], [0, 1e-300]], "has a zero-length wall"),
])
def test_room_without_area_or_wall_length_rejected(boundary, rule, tmp_path):
    text = json.dumps(doc(room={"boundary": boundary}))
    with pytest.raises(SceneFormatError, match=rf"^room\.boundary: room boundary {rule}"):
        parse_scene(text)
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("side, overflows", [(1e102, False), (1e103, True), (1e150, True)])
def test_room_whose_centroid_overflows_rejected(side, overflows, tmp_path):
    # the centroid sums cubes of the coordinates, where the 1e150 number
    # bound keeps only their squares finite; the crate is placed, so only
    # the room can fail
    d = doc(room={"boundary": [[0, 0], [side, 0], [side, side], [0, side]]})
    d["objects"][0]["pose"] = {"x": 1, "y": 1}
    text = json.dumps(d)
    path = tmp_path / "scene.json"
    path.write_text(text)
    if not overflows:
        assert parse_scene(text).room.centroid == pytest.approx((0.5 * side, 0.5 * side))
        assert main(["validate", str(path)]) == 0
        return
    with pytest.raises(SceneFormatError,
                       match=r"^room\.boundary: room boundary is too large: its centroid overflows"):
        parse_scene(text)
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("boundary", [
    [[0, 0], [4, 0], [4, 4], [2, 4], [2, 6], [2, 4], [0, 4]],
    [[0, 0], [4, 0], [2, 0], [2, 3]],
    [[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]],
], ids=["spike", "fold", "touch"])
def test_room_that_touches_or_retraces_itself_rejected(boundary, tmp_path):
    text = json.dumps(doc(room={"boundary": boundary}))
    with pytest.raises(SceneFormatError,
                       match=r"^room\.boundary: room boundary must be a simple polygon"):
        parse_scene(text)
    path = tmp_path / "scene.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2


class TestSolverBlock:
    @pytest.mark.parametrize("solver, where", [
        ({"max_iterations": "many"}, r"solver\.max_iterations"),
        ({"max_iterations": 2.5}, r"solver\.max_iterations"),
        ({"max_iterations": True}, r"solver\.max_iterations"),
        ({"termination_window": 0}, r"solver\.termination_window"),
        ({"projection_mode": "batch"}, r"solver\.projection_mode"),
        ({"max_iteration": 5}, r"solver\.max_iteration\b"),
        ([], r"^solver:"),
        ({"projection_mode": "sequential"}, r"solver\.projection_mode"),
    ])
    def test_bad_solver_block_rejected(self, solver, where):
        with pytest.raises(SceneFormatError, match=where):
            parse_scene(json.dumps(doc(solver=solver)))

    def test_allowed_keys_round_trip(self):
        solver = {"max_iterations": 5, "termination_window": 3}
        text = serialize_scene(parse_scene(json.dumps(doc(solver=solver))))
        assert parse_scene(text).solver_defaults == solver
        assert serialize_scene(parse_scene(text)) == text


def test_parse_validates_each_constraint_once(monkeypatch):
    text = serialize_scene(build("living_room"))
    calls = []
    original = cn.Constraint.validate
    monkeypatch.setattr(cn.Constraint, "validate", lambda c: calls.append(c) or original(c))
    scene = parse_scene(text)
    assert len(calls) == len(scene.constraints) == 21


class TestUnsolvableConstraints:
    """Constraints the solver could not project and price alike are
    rejected at parse time, with the constraint's path."""

    def _two_crates(self, constraint):
        d = doc(constraints=[constraint])
        d["objects"].append({"id": "crate_1", "label": "crate"})
        return d

    @pytest.mark.parametrize("kind", [
        "collision", "accessibility", "wall_ghost_collision", "boundary", "group_curve",
    ])
    def test_generated_kind_rejected(self, kind, tmp_path):
        d = self._two_crates({"kind": kind, "objects": ["crate_0", "g"]})
        d["groups"] = [{
            "id": "g", "members": ["crate_1"],
            "curve": {"a": [-1, 0], "b": [1, 0]},
        }]
        with pytest.raises(SceneFormatError, match=r"^constraints\[0\]: .*generated"):
            parse_scene(json.dumps(d))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(d))
        assert main(["validate", str(path)]) == 2

    def test_equality_traffic_lane_rejected(self):
        d = self._two_crates({
            "kind": "traffic_lane", "objects": ["crate_0", "crate_1"], "vector": [1, 0],
            "distance": 1.0, "relation": "equality",
        })
        with pytest.raises(SceneFormatError, match=r"constraints\[0\].*inequality"):
            parse_scene(json.dumps(d))

    def test_inequality_heat_point_rejected(self):
        d = self._two_crates({
            "kind": "heat_point", "objects": ["crate_0"], "point": [1, 1],
            "relation": "inequality",
        })
        with pytest.raises(SceneFormatError, match=r"constraints\[0\].*equality"):
            parse_scene(json.dumps(d))

    def test_unknown_relation_rejected(self):
        d = self._two_crates({
            "kind": "pairwise_distance", "objects": ["crate_0", "crate_1"], "distance": 1.0,
            "relation": "roughly",
        })
        with pytest.raises(SceneFormatError, match="roughly"):
            parse_scene(json.dumps(d))

    @pytest.mark.parametrize("constraint", [
        {"kind": "heat_point", "objects": ["crate_1", "crate_0"], "point": [3, 4]},
        {"kind": "heat_point", "objects": ["crate_1", "crate_0"]},
        {"kind": "focal_symmetry", "objects": ["crate_1", "crate_0"], "vector": [1, 0]},
    ], ids=["heat_point_to_a_point", "heat_point_to_an_anchor", "focal_symmetry"])
    def test_weighing_a_fixed_object_rejected(self, constraint, tmp_path, capsys):
        # its infinite mass would make the weighted center not a number
        d = self._two_crates(constraint)
        d["objects"][0]["fixed"] = True
        where = rf"^constraints\[0\]: {constraint['kind']} weighs fixed object 'crate_0' by its"
        with pytest.raises(SceneFormatError, match=where):
            parse_scene(json.dumps(d))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(d))
        assert main(["validate", str(path)]) == 2
        assert "constraints[0]: " in capsys.readouterr().err
        if "point" not in constraint:
            # the unweighted anchor or focal may be fixed
            d["constraints"][0]["objects"].reverse()
            parse_scene(json.dumps(d))

    def test_visual_balance_of_groups_only_rejected(self, tmp_path, capsys):
        # a group has no footprint to weigh the balance by
        d = self._two_crates({"kind": "visual_balance", "objects": ["g"]})
        d["groups"] = [{"id": "g", "members": ["crate_0", "crate_1"]}]
        where = r"^constraints\[0\]: visual_balance weighs only groups, which have no footprint"
        with pytest.raises(SceneFormatError, match=where):
            parse_scene(json.dumps(d))
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(d))
        assert main(["validate", str(path)]) == 2
        assert "constraints[0]: " in capsys.readouterr().err
        # an object beside the group weighs it
        d["constraints"][0]["objects"].append("crate_0")
        parse_scene(json.dumps(d))

    @pytest.mark.parametrize("kind", ["pairwise_distance", "focal_point", "wall_distance"])
    def test_either_relation_accepted_where_honoured(self, kind):
        objects = ["crate_0"] if kind == "wall_distance" else ["crate_0", "crate_1"]
        for relation in (cn.EQUALITY, cn.INEQUALITY):
            scene = parse_scene(json.dumps(self._two_crates({
                "kind": kind, "objects": objects, "distance": 1.0, "relation": relation,
            })))
            assert scene.constraints[0].relation == relation


class TestRoundTrip:
    @pytest.mark.parametrize("name", TEMPLATE_NAMES)
    def test_template_round_trip_equality(self, name):
        scene = build(name, seed=2)
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert again == scene

    def test_serialization_is_stable_bytes(self):
        assert serialize_scene(build("living_room")) == serialize_scene(build("living_room"))

    def test_double_round_trip_fixed_point(self):
        scene = build("tp_picnic", seed=5)
        text = serialize_scene(scene)
        assert serialize_scene(parse_scene(text)) == text

    def test_fixed_and_mass_written_only_where_set(self):
        d = doc()
        d["objects"] = [
            {"id": "pinned", "label": "crate", "fixed": True},
            {"id": "heavy", "label": "crate", "mass": 2.5},
            {"id": "plain", "label": "crate"},
        ]
        scene = parse_scene(json.dumps(d))
        text = serialize_scene(scene)
        objects = json.loads(text)["objects"]
        assert objects[0]["fixed"] is True and "mass" not in objects[0]
        assert objects[1]["mass"] == 2.5 and "fixed" not in objects[1]
        assert "fixed" not in objects[2] and "mass" not in objects[2]
        assert parse_scene(text) == scene

    @pytest.mark.parametrize("side", [1e103, 1e-110])  # the volume overflows, underflows
    def test_mass_of_a_box_without_a_volume_is_written(self, side):
        d = doc()
        d["catalogue"]["crate"]["size"] = [side, side, side]
        d["objects"][0]["mass"] = 2.5
        text = serialize_scene(parse_scene(json.dumps(d)))
        assert json.loads(text)["objects"][0]["mass"] == 2.5
        assert serialize_scene(parse_scene(text)) == text

    def test_object_its_label_cannot_rebuild_is_refused(self):
        # a scene built without a catalogue writes one entry per label,
        # taken from the label's first object: the 2 x 1 m box o1 would
        # load as o0's 0.6 x 0.6 m box with o0's front zone
        scene = Scene(room=Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 8), Vec2(0, 8)]))
        zones = regions_from_entry({"size": [0.6, 0.6, 0.6], "access": {"front": 0.6}})
        no_zones = regions_from_entry({"size": [2.0, 1.0, 1.0]})
        boxes = (("o0", BoundingBox(Vec2(0.3, 0.3), 0.3), zones),
                 ("o1", BoundingBox(Vec2(1.0, 0.5), 0.5), no_zones))
        for object_id, bbox, regions in boxes:
            scene.particles.append(Particle(Vec2(5, 4)))
            scene.objects.append(LayoutObject(object_id, "box", len(scene.objects), bbox, regions))
        with pytest.raises(ValueError, match="^object 'o1': the catalogue entry for label 'box'"):
            serialize_scene(scene)
        del scene.objects[1], scene.particles[1]
        again = parse_scene(serialize_scene(scene)).objects[0]
        assert (again.bbox, again.accessibility) == (scene.objects[0].bbox, zones)

    def test_file_helpers(self, tmp_path):
        scene = build("desk")
        path = tmp_path / "desk.json"
        save_scene(scene, path)
        assert load_scene(path) == scene
