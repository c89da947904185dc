import math

from layoutsynth.render import RenderOptions, render_svg
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


def test_curve_layer_present_for_tier_groups():
    scene = build("theater2")
    svg = render_svg(scene)
    assert '<g id="group-curves">' in svg
    curves = svg.split('<g id="group-curves">')[1].split("</g>")[0]
    assert curves.count("<polyline") == len(scene.groups) == 6


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
