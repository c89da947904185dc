"""Scene file format: JSON serialization with validating parse.

The format is documented in the README. Geometry is in meters; every
angle in a file is in degrees and becomes radians in memory. Parsing is
strict: unknown fields and dangling references are rejected with the
offending JSON path in the message, and ``parse_scene(serialize_scene(s))``
reproduces ``s`` exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

from . import constraints as cn
from .geometry import Curve, Vec2, stable_radians
from .model import (
    FACES, Particle, Room, Scene, bbox_from_entry, mass_from_bbox, regions_from_entry,
)


class SceneFormatError(ValueError):
    """Scene file violates the format; the message names the JSON path."""


_ROOT_KEYS = {"room", "catalogue", "objects", "groups", "constraints",
              "collisions_enabled", "solver"}
_ROOM_KEYS = {"boundary"}
_CATALOGUE_KEYS = {"size", "access"}
_OBJECT_KEYS = {"id", "label", "pose", "fixed", "mass"}
_POSE_KEYS = {"x", "y", "z", "theta_deg"}
_GROUP_KEYS = {"id", "members", "curve", "member_offsets", "mass", "pose"}
_CURVE_KEYS = {"a", "b", "center"}


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise SceneFormatError(f"{path}: unknown field {key!r}")


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SceneFormatError(f"{path}: {message}")


def _as_number(value: Any, path: str) -> float:
    # the bound rejects NaN, infinities and integers too large for a
    # float; below it the square of a difference of two file numbers is
    # finite, so every distance the solver measures is too
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and abs(value) <= 1e150,
        path, "expected a number of magnitude at most 1e150",
    )
    return float(value)


def _as_positive(value: Any, path: str) -> float:
    number = _as_number(value, path)
    _expect(number > 0, path, "must be positive")
    return number


def _as_angle(value: Any, path: str) -> float:
    """Radians from a file angle in degrees."""
    return stable_radians(_as_number(value, path))


def _as_point(value: Any, path: str) -> Vec2:
    _expect(isinstance(value, (list, tuple)) and len(value) == 2, path, "expected a [x, y] pair")
    return Vec2(_as_number(value[0], f"{path}[0]"), _as_number(value[1], f"{path}[1]"))


def _as_bool(value: Any, path: str) -> bool:
    _expect(isinstance(value, bool), path, "expected true or false")
    return value


def _as_text(value: Any, path: str) -> str:
    _expect(isinstance(value, str), path, "expected a string")
    return value


def _as_positive_int(value: Any, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= 1, path,
            "expected an integer >= 1")
    return value


def _as_list(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    _expect(isinstance(value, list), key, "expected a list")
    return value


def _as_ref(value: Any, known, path: str, what: str):
    _expect(isinstance(value, str) and value in known, path, f"unknown {what} {value!r}")
    return value


def _new_id(doc: dict, index_of: dict, path: str) -> str:
    """The ``id`` of an object or group; ids are unique across both."""
    new_id = doc.get("id")
    _expect(isinstance(new_id, str) and new_id, f"{path}.id", "missing id")
    _expect(new_id not in index_of, f"{path}.id", f"duplicate id {new_id!r}")
    return new_id


def _same(value):
    return value


def _given(value) -> bool:
    return value is not None


def _always(value) -> bool:
    return True


# One row per optional constraint field: file key, Constraint attribute,
# reader (file value -> attribute), writer (attribute -> file value), and
# when the writer runs. "kind" and "objects" are read and written apart.
_CONSTRAINT_FIELDS = (
    ("relation", "relation", _as_text, _same, lambda v: v != cn.EQUALITY),
    ("distance", "distance", _as_number, _same, _given),
    ("point", "point", _as_point, list, _given),
    ("vector", "vector", _as_point, list, _given),
    ("angle_offset_deg", "angle_offset", _as_angle, math.degrees, bool),
    ("orientation_mode", "orientation_mode", _as_text, _same, _given),
    ("angle_target_deg", "angle_target", _as_angle, math.degrees, _given),
    ("height_gap", "height_gap", _as_number, _same, _given),
    ("pin_focal", "pin_focal", _as_bool, _same, lambda v: not v),
    ("weight", "weight", _as_number, _same, _always),
    ("schedule", "schedule", _as_text, _same, _always),
    ("stiffness", "stiffness_initial", _as_number, _same, _always),
    ("rate", "rate", _as_number, _same, _always),
)
_CONSTRAINT_KEYS = {"kind", "objects", *(row[0] for row in _CONSTRAINT_FIELDS)}

# the scene-file solver defaults: the SolverConfig fields a scene may set
_SOLVER_FIELDS = {
    "max_iterations": _as_positive_int,
    "termination_window": _as_positive_int,
}


def _read_pose(doc: dict, path: str) -> dict:
    """Particle pose keywords (position, z, theta) from an optional
    ``pose`` field; an absent pose leaves the constructor's defaults."""
    if "pose" not in doc:
        return {}
    path = f"{path}.pose"
    pose = doc["pose"]
    _expect(isinstance(pose, dict), path, "expected an object")
    _check_keys(pose, _POSE_KEYS, path)
    return {
        "position": Vec2(_as_number(pose.get("x", 0.0), f"{path}.x"),
                         _as_number(pose.get("y", 0.0), f"{path}.y")),
        "z": _as_number(pose.get("z", 0.0), f"{path}.z"),
        "theta": _as_angle(pose.get("theta_deg", 0.0), f"{path}.theta_deg"),
    }


def parse_scene(text: str) -> Scene:
    """Scene from JSON text; raises SceneFormatError with the offending
    path (or JSON line/column for syntax errors)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneFormatError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _expect(isinstance(doc, dict), "$", "top level must be an object")
    _check_keys(doc, _ROOT_KEYS, "$")
    _expect("room" in doc, "$", "missing required field 'room'")

    room_doc = doc["room"]
    _expect(isinstance(room_doc, dict), "room", "expected an object")
    _check_keys(room_doc, _ROOM_KEYS, "room")
    boundary = room_doc.get("boundary")
    _expect(isinstance(boundary, list) and len(boundary) >= 3, "room.boundary",
            "expected at least three [x, y] vertices")
    try:
        room = Room([_as_point(v, f"room.boundary[{i}]") for i, v in enumerate(boundary)])
    except ValueError as exc:
        raise SceneFormatError(f"room.boundary: {exc}") from None

    catalogue_doc = doc.get("catalogue", {})
    _expect(isinstance(catalogue_doc, dict), "catalogue", "expected an object")
    catalogue: dict[str, dict] = {}
    for label, entry in catalogue_doc.items():
        path = f"catalogue[{label!r}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _check_keys(entry, _CATALOGUE_KEYS, path)
        size = entry.get("size")
        _expect(isinstance(size, list) and len(size) == 3, f"{path}.size",
                "expected three positive extents")
        size = [_as_positive(v, f"{path}.size[{k}]") for k, v in enumerate(size)]
        access = entry.get("access", {})
        _expect(isinstance(access, dict), f"{path}.access", "expected an object")
        for face, depth in access.items():
            _expect(face in FACES, f"{path}.access",
                    f"unknown face {face!r} (use back/left/front/right)")
            _expect(_as_number(depth, f"{path}.access[{face!r}]") >= 0,
                    f"{path}.access[{face!r}]", "clearance depth must be >= 0")
        catalogue[label] = {"size": size, "access": dict(access)}

    scene = Scene(room=room, catalogue=catalogue)
    index_of: dict[str, int] = {}

    for i, obj_doc in enumerate(_as_list(doc, "objects")):
        path = f"objects[{i}]"
        _expect(isinstance(obj_doc, dict), path, "expected an object")
        _check_keys(obj_doc, _OBJECT_KEYS, path)
        object_id = _new_id(obj_doc, index_of, path)
        label = _as_ref(obj_doc.get("label"), catalogue, f"{path}.label", "catalogue label")
        mass = _as_positive(obj_doc["mass"], f"{path}.mass") if "mass" in obj_doc else None
        fixed = _as_bool(obj_doc.get("fixed", False), f"{path}.fixed")
        pose = _read_pose(obj_doc, path)
        try:
            index_of[object_id] = scene.add_object(object_id, label, fixed=fixed, mass=mass,
                                                   **pose)
        except ValueError as exc:
            raise SceneFormatError(f"{path}: {exc}") from None

    for g, group_doc in enumerate(_as_list(doc, "groups")):
        path = f"groups[{g}]"
        _expect(isinstance(group_doc, dict), path, "expected an object")
        _check_keys(group_doc, _GROUP_KEYS, path)
        group_id = _new_id(group_doc, index_of, path)
        members = group_doc.get("members")
        _expect(isinstance(members, list) and members, f"{path}.members",
                "expected a non-empty list of object ids")
        for m, member in enumerate(members):
            _as_ref(member, index_of, f"{path}.members[{m}]", "object id")
        curve = None
        if "curve" in group_doc:
            curve_doc = group_doc["curve"]
            _expect(isinstance(curve_doc, dict), f"{path}.curve", "expected an object")
            _check_keys(curve_doc, _CURVE_KEYS, f"{path}.curve")
            curve = Curve(
                _as_point(curve_doc.get("a"), f"{path}.curve.a"),
                _as_point(curve_doc.get("b"), f"{path}.curve.b"),
                _as_point(curve_doc["center"], f"{path}.curve.center")
                if "center" in curve_doc else None,
            )
        member_offsets = None
        if "member_offsets" in group_doc:
            offs = group_doc["member_offsets"]
            _expect(isinstance(offs, list) and len(offs) == len(members),
                    f"{path}.member_offsets", "expected one offset per member")
            rows = []
            for k, off in enumerate(offs):
                _expect(isinstance(off, list) and len(off) == 3,
                        f"{path}.member_offsets[{k}]", "expected [dx, dy, dtheta_deg]")
                rows.append(
                    (
                        _as_number(off[0], f"{path}.member_offsets[{k}][0]"),
                        _as_number(off[1], f"{path}.member_offsets[{k}][1]"),
                        _as_angle(off[2], f"{path}.member_offsets[{k}][2]"),
                    )
                )
            member_offsets = tuple(rows)
        mass = _as_positive(group_doc.get("mass", 1.0), f"{path}.mass")
        pose = _read_pose(group_doc, path)
        try:
            index_of[group_id] = scene.add_group(
                group_id,
                members,
                mass=mass,
                curve=curve,
                member_offsets=member_offsets,
                **pose,
            )
        except ValueError as exc:
            raise SceneFormatError(f"{path}: {exc}") from None

    for c, con_doc in enumerate(_as_list(doc, "constraints")):
        path = f"constraints[{c}]"
        _expect(isinstance(con_doc, dict), path, "expected an object")
        _check_keys(con_doc, _CONSTRAINT_KEYS, path)
        kind = con_doc.get("kind")
        _expect(kind in cn.KINDS, f"{path}.kind", f"unknown constraint kind {kind!r}")
        refs = con_doc.get("objects")
        _expect(isinstance(refs, list) and refs, f"{path}.objects",
                "expected a non-empty list of object/group ids")
        particles = tuple(
            index_of[_as_ref(ref, index_of, f"{path}.objects[{r}]", "object or group id")]
            for r, ref in enumerate(refs)
        )
        kw = {
            attr: read(con_doc[key], f"{path}.{key}")
            for key, attr, read, _, _ in _CONSTRAINT_FIELDS
            if key in con_doc
        }
        scene.constraints.append(cn.Constraint(kind, particles, **kw))

    if "collisions_enabled" in doc:
        scene.collisions_enabled = _as_bool(doc["collisions_enabled"], "collisions_enabled")
    solver = doc.get("solver", {})
    _expect(isinstance(solver, dict), "solver", "expected an object")
    for key, value in solver.items():
        _expect(key in _SOLVER_FIELDS, f"solver.{key}",
                f"unknown field (use {', '.join(_SOLVER_FIELDS)})")
        _SOLVER_FIELDS[key](value, f"solver.{key}")
    scene.solver_defaults = dict(solver)

    try:
        scene.validate()
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from None
    return scene


def _pose_doc(particle: Particle) -> dict:
    return {
        "x": particle.position.x,
        "y": particle.position.y,
        "z": particle.z,
        "theta_deg": math.degrees(particle.orientation),
    }


def serialize_scene(scene: Scene) -> str:
    """Canonical JSON for a scene; stable byte-for-byte for equal scenes.
    Raises ValueError for an object that its label's catalogue entry does
    not rebuild exactly, as when two objects share a label but not a box."""
    ids: dict[int, str] = {}
    for obj in scene.objects:
        ids[obj.particle_index] = obj.id
    for group in scene.groups:
        ids[group.particle_index] = group.id

    catalogue = {k: dict(v) for k, v in scene.catalogue.items()}
    for obj in scene.objects:
        if obj.label not in catalogue:
            # scene built without a catalogue: reconstruct the entry
            access = {}
            for face, region in zip(FACES, obj.accessibility):
                if region.enabled:
                    access[face] = region.diagonal / math.sqrt(2.0)
            catalogue[obj.label] = {
                "size": [
                    2.0 * obj.bbox.half_extents.x,
                    2.0 * obj.bbox.half_extents.y,
                    2.0 * obj.bbox.half_height,
                ],
                "access": access,
            }
        # the file rebuilds each object from its label's entry alone
        entry = catalogue[obj.label]
        if bbox_from_entry(entry) != obj.bbox or regions_from_entry(entry) != obj.accessibility:
            raise ValueError(
                f"object {obj.id!r}: the catalogue entry for label {obj.label!r} does not "
                "rebuild its box and zones, so the file would load a different object"
            )

    objects = []
    for obj in scene.objects:
        particle = scene.particles[obj.particle_index]
        entry: dict[str, Any] = {
            "id": obj.id,
            "label": obj.label,
            "pose": _pose_doc(particle),
        }
        if particle.fixed:
            entry["fixed"] = True
        elif particle.mass != mass_from_bbox(obj.bbox):
            entry["mass"] = particle.mass
        objects.append(entry)

    groups = []
    for group in scene.groups:
        particle = scene.particles[group.particle_index]
        entry = {
            "id": group.id,
            "members": list(group.member_object_ids),
            "mass": particle.mass,
            "pose": _pose_doc(particle),
        }
        if group.curve is not None:
            curve_doc: dict[str, Any] = {
                "a": list(group.curve.a),
                "b": list(group.curve.b),
            }
            if group.curve.center is not None:
                curve_doc["center"] = list(group.curve.center)
            entry["curve"] = curve_doc
        if group.member_offsets is not None:
            entry["member_offsets"] = [
                [dx, dy, math.degrees(dth)] for dx, dy, dth in group.member_offsets
            ]
        groups.append(entry)

    constraints = []
    for con in scene.constraints:
        entry = {"kind": con.kind, "objects": [ids[p] for p in con.particles]}
        for key, attr, _, write, written in _CONSTRAINT_FIELDS:
            value = getattr(con, attr)
            if written(value):
                entry[key] = write(value)
        constraints.append(entry)

    doc = {
        "room": {"boundary": [list(v) for v in scene.room.boundary]},
        "catalogue": catalogue,
        "objects": objects,
        "groups": groups,
        "constraints": constraints,
        "collisions_enabled": scene.collisions_enabled,
        "solver": scene.solver_defaults,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scene(handle.read())


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_scene(scene))
