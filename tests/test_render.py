import json
import math
import re
import time

from layoutsynth.render import MARGIN, SCALE, RenderOptions, render_svg
from layoutsynth.sceneio import parse_scene, serialize_scene
from layoutsynth.scenes import build
from layoutsynth.solver import SolverConfig, synthesize


def test_empty_scene_renders_room_outline_only():
    from layoutsynth.geometry import Vec2
    from layoutsynth.model import Room, Scene

    scene = Scene(room=Room([Vec2(0, 0), Vec2(5, 0), Vec2(5, 4), Vec2(0, 4)]))
    svg = render_svg(scene)
    assert svg.startswith("<svg")
    assert '<g id="room">' in svg
    assert "<polygon" in svg
    assert "<rect" not in svg.replace('<rect width', '<bg width')  # only the background rect


def test_rotated_object_gets_rotate_transform():
    scene = build("living_room")
    layout = [(p.position.x, p.position.y, p.z, p.orientation) for p in scene.particles]
    layout[0] = (3.0, 2.0, 0.0, math.radians(45.0))
    svg = render_svg(scene, layout)
    assert 'rotate(-45.0000' in svg


def test_overlays_toggle_named_layers():
    scene = build("theater1", {"chair_count": 8})
    base = render_svg(scene, options=RenderOptions())
    assert '<g id="accessibility">' not in base
    assert '<g id="bounding-circles">' not in base
    assert '<g id="traffic-lanes">' not in base

    full = render_svg(
        scene,
        options=RenderOptions(
            show_accessibility=True, show_bounding_circles=True, show_traffic_lanes=True
        ),
    )
    assert '<g id="accessibility">' in full
    assert '<g id="bounding-circles">' in full
    assert '<g id="traffic-lanes">' in full
    # one bounding circle per object
    circles = full.split('<g id="bounding-circles">')[1].split("</g>")[0]
    assert circles.count("<circle") == len(scene.objects)


def _curve_paths(svg: str) -> list[str]:
    layer = svg.split('<g id="group-curves">')[1].split("</g>")[0]
    return re.findall(r'<path d="([^"]*)"', layer)


def _pixel(scene, x: float, y: float) -> tuple[float, float]:
    min_x, _, _, max_y = scene.room.bounds()
    return (x - min_x + MARGIN) * SCALE, (max_y + MARGIN - y) * SCALE


def _arc_centers(path: str) -> list[tuple[float, float]]:
    """The centre of each circular ``A`` command of a path, by the SVG
    spec's endpoint-to-centre conversion (implementation notes F.6.5)
    with equal radii and no rotation."""
    tokens = path.replace(",", " ").split()
    x1, y1 = float(tokens[1]), float(tokens[2])
    centers = []
    for i in range(3, len(tokens), 8):
        assert tokens[i] == "A"
        r, _, phi, large, sweep, x2, y2 = map(float, tokens[i + 1:i + 8])
        assert phi == 0.0
        hx, hy = (x1 - x2) / 2, (y1 - y2) / 2
        sign = -1.0 if large == sweep else 1.0
        coef = sign * math.sqrt(max(0.0, (r * r - hx * hx - hy * hy) / (hx * hx + hy * hy)))
        centers.append((coef * hy + (x1 + x2) / 2, -coef * hx + (y1 + y2) / 2))
        x1, y1 = x2, y2
    return centers


def test_curve_layer_present_for_tier_groups():
    scene = build("theater2")
    assert len(_curve_paths(render_svg(scene))) == len(scene.groups) == 6


def test_arc_paths_keep_the_curve_centres():
    scene = build("theater2", {"style": "arc", "pathways": 2})
    paths = _curve_paths(render_svg(scene))
    assert len(paths) == len(scene.groups) == 6
    for group, path in zip(scene.groups, paths):
        pose = scene.particles[group.particle_index]
        world = group.curve.transformed(pose.position, pose.orientation)
        cx, cy = _pixel(scene, *world.center)
        centers = _arc_centers(path)
        assert len(centers) == 2
        for x, y in centers:
            assert math.hypot(x - cx, y - cy) < 1e-3


def test_long_segment_curves_render_as_two_points():
    doc = json.loads(serialize_scene(build("theater2", {"style": "seg", "pathways": 1})))
    for group in doc["groups"]:
        group["curve"] = {"a": [0.0, -1e5], "b": [0.0, 1e5]}
    scene = parse_scene(json.dumps(doc))
    start = time.perf_counter()
    svg = render_svg(scene)
    assert time.perf_counter() - start < 1.0
    paths = _curve_paths(svg)
    assert len(paths) == 6
    for group, path in zip(scene.groups, paths):
        pose = scene.particles[group.particle_index]
        world = group.curve.transformed(pose.position, pose.orientation)
        a, b = (",".join(f"{v:.4f}" for v in _pixel(scene, *end)) for end in (world.a, world.b))
        assert path == f"M {a} L {b}"


def test_deterministic_bytes():
    scene = build("desk")
    layout, _ = synthesize(scene, SolverConfig(seed=3, max_iterations=30))
    a = render_svg(scene, layout)
    b = render_svg(build("desk"), list(layout))
    assert a == b


def test_rejects_nonfinite_pose():
    import pytest

    scene = build("living_room")
    layout = [(p.position.x, p.position.y, p.z, p.orientation) for p in scene.particles]
    layout[2] = (math.nan, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        render_svg(scene, layout)


def test_object_count_matches_rect_count():
    scene = build("picnic")
    svg = render_svg(scene)
    objects = svg.split('<g id="objects">')[1].rsplit("</g>", 1)[0]
    assert objects.count("<rect") == len(scene.objects)
