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
from .catalogue import bbox_from_entry, regions_from_entry
from .geometry import ARC, Curve, SEGMENT, Vec2, stable_radians
from .model import FACES, Group, LayoutObject, Particle, Room, Scene, mass_from_bbox


class SceneFormatError(ValueError):
    """Scene file violates the format; the message names the JSON path."""


_ROOT_KEYS = {"room", "catalogue", "objects", "groups", "constraints",
              "collisions_enabled", "solver"}
_ROOM_KEYS = {"boundary"}
_CATALOGUE_KEYS = {"size", "access"}
_OBJECT_KEYS = {"id", "label", "pose", "fixed", "mass"}
_POSE_KEYS = {"x", "y", "z", "theta_deg"}
_GROUP_KEYS = {"id", "members", "rigidity", "curve", "member_ts",
               "member_offsets", "mass", "pose"}
_CURVE_KEYS = {"kind", "a", "b", "center"}
_CONSTRAINT_KEYS = {
    "kind", "objects", "relation", "distance", "point", "vector",
    "angle_offset_deg", "orientation_mode", "angle_target_deg",
    "height_gap", "face", "pin_focal", "weight", "schedule",
    "stiffness", "rate",
}


def _check_keys(mapping: dict, allowed: set[str], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise SceneFormatError(f"{path}: unknown field {key!r}")


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SceneFormatError(f"{path}: {message}")


def _as_point(value: Any, path: str) -> Vec2:
    _expect(
        isinstance(value, (list, tuple)) and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value),
        path, "expected a [x, y] pair",
    )
    return Vec2(float(value[0]), float(value[1]))


def _as_number(value: Any, path: str) -> float:
    _expect(isinstance(value, (int, float)) and math.isfinite(value), path, "expected a finite number")
    return float(value)


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

    catalogue: dict[str, dict] = {}
    for label, entry in (doc.get("catalogue") or {}).items():
        path = f"catalogue[{label!r}]"
        _expect(isinstance(entry, dict), path, "expected an object")
        _check_keys(entry, _CATALOGUE_KEYS, path)
        size = entry.get("size")
        _expect(
            isinstance(size, list) and len(size) == 3
            and all(isinstance(v, (int, float)) and v > 0 for v in size),
            f"{path}.size", "expected three positive extents",
        )
        access = entry.get("access", {})
        _expect(isinstance(access, dict), f"{path}.access", "expected an object")
        for face, depth in access.items():
            _expect(face in FACES, f"{path}.access",
                    f"unknown face {face!r} (use back/left/front/right)")
            _expect(isinstance(depth, (int, float)) and depth >= 0,
                    f"{path}.access[{face!r}]", "clearance depth must be >= 0")
        catalogue[label] = {"size": [float(v) for v in size], "access": dict(access)}

    scene = Scene(room=room, catalogue=catalogue)
    index_of: dict[str, int] = {}

    for i, obj_doc in enumerate(doc.get("objects") or []):
        path = f"objects[{i}]"
        _expect(isinstance(obj_doc, dict), path, "expected an object")
        _check_keys(obj_doc, _OBJECT_KEYS, path)
        object_id = obj_doc.get("id")
        _expect(isinstance(object_id, str) and object_id, f"{path}.id", "missing id")
        _expect(object_id not in index_of, f"{path}.id", f"duplicate id {object_id!r}")
        label = obj_doc.get("label")
        _expect(label in catalogue, f"{path}.label",
                f"label {label!r} not present in the catalogue")
        entry = catalogue[label]
        bbox = bbox_from_entry(entry)
        position, z, theta = scene.room.centroid, 0.0, 0.0
        if "pose" in obj_doc:
            pose = obj_doc["pose"]
            _expect(isinstance(pose, dict), f"{path}.pose", "expected an object")
            _check_keys(pose, _POSE_KEYS, f"{path}.pose")
            position = Vec2(
                _as_number(pose.get("x", 0.0), f"{path}.pose.x"),
                _as_number(pose.get("y", 0.0), f"{path}.pose.y"),
            )
            z = _as_number(pose.get("z", 0.0), f"{path}.pose.z")
            theta = stable_radians(_as_number(pose.get("theta_deg", 0.0), f"{path}.pose.theta_deg"))
        if obj_doc.get("fixed", False):
            mass = math.inf
        elif "mass" in obj_doc:
            mass = _as_number(obj_doc["mass"], f"{path}.mass")
            _expect(mass > 0, f"{path}.mass", "mass must be positive")
        else:
            mass = mass_from_bbox(bbox)
        particle_index = len(scene.particles)
        scene.particles.append(Particle(position=position, z=z, orientation=theta, mass=mass))
        scene.objects.append(
            LayoutObject(
                id=object_id,
                label=label,
                particle_index=particle_index,
                bbox=bbox,
                accessibility=regions_from_entry(entry),
            )
        )
        index_of[object_id] = particle_index

    for g, group_doc in enumerate(doc.get("groups") or []):
        path = f"groups[{g}]"
        _expect(isinstance(group_doc, dict), path, "expected an object")
        _check_keys(group_doc, _GROUP_KEYS, path)
        group_id = group_doc.get("id")
        _expect(isinstance(group_id, str) and group_id, f"{path}.id", "missing id")
        _expect(group_id not in index_of, f"{path}.id", f"duplicate id {group_id!r}")
        members = group_doc.get("members")
        _expect(isinstance(members, list) and members, f"{path}.members",
                "expected a non-empty list of object ids")
        for m, member in enumerate(members):
            _expect(member in index_of, f"{path}.members[{m}]",
                    f"unknown object id {member!r}")
        rigidity = group_doc.get("rigidity", "nonrigid")
        curve = None
        if "curve" in group_doc:
            curve_doc = group_doc["curve"]
            _expect(isinstance(curve_doc, dict), f"{path}.curve", "expected an object")
            _check_keys(curve_doc, _CURVE_KEYS, f"{path}.curve")
            kind = curve_doc.get("kind")
            _expect(kind in (SEGMENT, ARC), f"{path}.curve.kind",
                    f"unknown curve kind {kind!r}")
            curve = Curve(
                kind,
                _as_point(curve_doc.get("a"), f"{path}.curve.a"),
                _as_point(curve_doc.get("b"), f"{path}.curve.b"),
                _as_point(curve_doc["center"], f"{path}.curve.center")
                if kind == ARC else None,
            )
            try:
                curve.validate()
            except ValueError as exc:
                raise SceneFormatError(f"{path}.curve: {exc}") from None
        member_ts = None
        if "member_ts" in group_doc:
            ts = group_doc["member_ts"]
            _expect(isinstance(ts, list) and len(ts) == len(members),
                    f"{path}.member_ts", "expected one t per member")
            member_ts = tuple(_as_number(t, f"{path}.member_ts[{k}]") for k, t in enumerate(ts))
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
                        stable_radians(_as_number(off[2], f"{path}.member_offsets[{k}][2]")),
                    )
                )
            member_offsets = tuple(rows)
        mass = _as_number(group_doc.get("mass", 1.0), f"{path}.mass")
        _expect(mass > 0, f"{path}.mass", "mass must be positive")
        position, z, theta = scene.room.centroid, 0.0, 0.0
        if "pose" in group_doc:
            pose = group_doc["pose"]
            _check_keys(pose, _POSE_KEYS, f"{path}.pose")
            position = Vec2(
                _as_number(pose.get("x", 0.0), f"{path}.pose.x"),
                _as_number(pose.get("y", 0.0), f"{path}.pose.y"),
            )
            z = _as_number(pose.get("z", 0.0), f"{path}.pose.z")
            theta = stable_radians(_as_number(pose.get("theta_deg", 0.0), f"{path}.pose.theta_deg"))
        particle_index = len(scene.particles)
        scene.particles.append(Particle(position=position, z=z, orientation=theta, mass=mass))
        try:
            scene.groups.append(
                Group(
                    id=group_id,
                    particle_index=particle_index,
                    member_object_ids=tuple(members),
                    rigidity=rigidity,
                    curve=curve,
                    member_offsets=member_offsets,
                    member_ts=member_ts,
                )
            )
        except ValueError as exc:
            raise SceneFormatError(f"{path}: {exc}") from None
        index_of[group_id] = particle_index

    for c, con_doc in enumerate(doc.get("constraints") or []):
        path = f"constraints[{c}]"
        _expect(isinstance(con_doc, dict), path, "expected an object")
        _check_keys(con_doc, _CONSTRAINT_KEYS, path)
        kind = con_doc.get("kind")
        _expect(kind in cn.KINDS, f"{path}.kind", f"unknown constraint kind {kind!r}")
        refs = con_doc.get("objects")
        _expect(isinstance(refs, list) and refs, f"{path}.objects",
                "expected a non-empty list of object/group ids")
        particles = []
        for r, ref in enumerate(refs):
            _expect(ref in index_of, f"{path}.objects[{r}]",
                    f"unknown object or group id {ref!r}")
            particles.append(index_of[ref])
        kw: dict[str, Any] = {}
        if "relation" in con_doc:
            kw["relation"] = con_doc["relation"]
        if "distance" in con_doc:
            kw["distance"] = _as_number(con_doc["distance"], f"{path}.distance")
        if "point" in con_doc:
            kw["point"] = _as_point(con_doc["point"], f"{path}.point")
        if "vector" in con_doc:
            kw["vector"] = _as_point(con_doc["vector"], f"{path}.vector")
        if "angle_offset_deg" in con_doc:
            kw["angle_offset"] = stable_radians(
                _as_number(con_doc["angle_offset_deg"], f"{path}.angle_offset_deg")
            )
        if "orientation_mode" in con_doc:
            kw["orientation_mode"] = con_doc["orientation_mode"]
        if "angle_target_deg" in con_doc:
            kw["angle_target"] = stable_radians(
                _as_number(con_doc["angle_target_deg"], f"{path}.angle_target_deg")
            )
        if "height_gap" in con_doc:
            kw["height_gap"] = _as_number(con_doc["height_gap"], f"{path}.height_gap")
        if "face" in con_doc:
            kw["face"] = con_doc["face"]
        if "pin_focal" in con_doc:
            kw["pin_focal"] = bool(con_doc["pin_focal"])
        if "weight" in con_doc:
            kw["weight"] = _as_number(con_doc["weight"], f"{path}.weight")
            _expect(kw["weight"] > 0, f"{path}.weight", "weight must be positive")
        if "schedule" in con_doc:
            kw["schedule"] = con_doc["schedule"]
        if "stiffness" in con_doc:
            kw["stiffness_initial"] = _as_number(con_doc["stiffness"], f"{path}.stiffness")
        if "rate" in con_doc:
            kw["rate"] = _as_number(con_doc["rate"], f"{path}.rate")
        try:
            constraint = cn.make_constraint(kind, tuple(particles), **kw)
            constraint.validate()
        except ValueError as exc:
            raise SceneFormatError(f"{path}: {exc}") from None
        scene.constraints.append(constraint)

    if "collisions_enabled" in doc:
        _expect(isinstance(doc["collisions_enabled"], bool), "collisions_enabled",
                "expected true or false")
        scene.collisions_enabled = doc["collisions_enabled"]
    if "solver" in doc:
        _expect(isinstance(doc["solver"], dict), "solver", "expected an object")
        scene.solver_defaults = dict(doc["solver"])

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
    """Canonical JSON for a scene; stable byte-for-byte for equal scenes."""
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
            "rigidity": group.rigidity,
            "mass": particle.mass,
            "pose": _pose_doc(particle),
        }
        if group.curve is not None:
            curve_doc: dict[str, Any] = {
                "kind": group.curve.kind,
                "a": list(group.curve.a),
                "b": list(group.curve.b),
            }
            if group.curve.center is not None:
                curve_doc["center"] = list(group.curve.center)
            entry["curve"] = curve_doc
        if group.member_ts is not None:
            entry["member_ts"] = list(group.member_ts)
        if group.member_offsets is not None:
            entry["member_offsets"] = [
                [dx, dy, math.degrees(dth)] for dx, dy, dth in group.member_offsets
            ]
        groups.append(entry)

    constraints = []
    for con in scene.constraints:
        entry = {"kind": con.kind, "objects": [ids[p] for p in con.particles]}
        if con.relation != cn.EQUALITY:
            entry["relation"] = con.relation
        if con.distance is not None:
            entry["distance"] = con.distance
        if con.point is not None:
            entry["point"] = list(con.point)
        if con.vector is not None:
            entry["vector"] = list(con.vector)
        if con.angle_offset:
            entry["angle_offset_deg"] = math.degrees(con.angle_offset)
        if con.orientation_mode is not None:
            entry["orientation_mode"] = con.orientation_mode
        if con.angle_target is not None:
            entry["angle_target_deg"] = math.degrees(con.angle_target)
        if con.height_gap is not None:
            entry["height_gap"] = con.height_gap
        if con.face is not None:
            entry["face"] = con.face
        if not con.pin_focal:
            entry["pin_focal"] = False
        entry["weight"] = con.weight
        entry["schedule"] = con.schedule
        entry["stiffness"] = con.stiffness_initial
        entry["rate"] = con.rate
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
