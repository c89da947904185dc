"""Overhead SVG rendering of scenes and synthesized layouts.

Output is plain SVG 1.1 text with one layer group per overlay, formatted
with fixed precision so identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constraints as cn
from .geometry import Vec2
from .model import Scene

SCALE = 24.0  # pixels per meter
MARGIN = 1.0  # meters of padding around the room

_PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


@dataclass
class RenderOptions:
    """The optional overlays. Group curves and orientation arrows are
    always drawn, at ``SCALE`` pixels per meter with ``MARGIN`` around the
    room."""

    show_accessibility: bool = False
    show_bounding_circles: bool = False
    show_traffic_lanes: bool = False


def _fmt(value: float) -> str:
    return f"{value:.4f}"


class _Doc:
    def __init__(self, min_x, max_y):
        self.min_x = min_x
        self.max_y = max_y
        self.lines: list[str] = []

    def pt(self, x: float, y: float) -> tuple[str, str]:
        # flip y so the room's +y points up on screen
        return _fmt((x - self.min_x) * SCALE), _fmt((self.max_y - y) * SCALE)

    def add(self, line: str) -> None:
        self.lines.append(line)


def render_svg(scene: Scene, layout=None, options: RenderOptions | None = None) -> str:
    """Overhead view of a layout: room outline, group curves, object
    footprints with orientation arrows, and optional overlays for
    accessibility zones, bounding circles, and traffic lanes.

    ``layout`` is a list of (x, y, z, theta) poses per particle; omitted,
    the scene's authored poses are drawn.
    """
    options = options or RenderOptions()
    if layout is None:
        layout = [
            (p.position.x, p.position.y, p.z, p.orientation) for p in scene.particles
        ]
    for pose in layout:
        if not all(math.isfinite(v) for v in pose):
            raise ValueError("layout poses must be finite")

    min_x, min_y, max_x, max_y = scene.room.bounds()
    min_x -= MARGIN
    min_y -= MARGIN
    max_x += MARGIN
    max_y += MARGIN
    doc = _Doc(min_x, max_y)
    width = _fmt((max_x - min_x) * SCALE)
    height = _fmt((max_y - min_y) * SCALE)

    labels = []
    for obj in scene.objects:
        if obj.label not in labels:
            labels.append(obj.label)
    color_of = {label: _PALETTE[i % len(_PALETTE)] for i, label in enumerate(labels)}

    doc.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    doc.add(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    room_points = " ".join(
        ",".join(doc.pt(v.x, v.y)) for v in scene.room.boundary
    )
    doc.add('<g id="room">')
    doc.add(
        f'<polygon points="{room_points}" fill="#f7f6f2" stroke="#2d3436" stroke-width="2"/>'
    )
    doc.add("</g>")

    if scene.groups:
        doc.add('<g id="group-curves">')
        for group in scene.groups:
            if group.curve is None:
                continue
            gx, gy, _, gth = layout[group.particle_index]
            world = group.curve.transformed(Vec2(gx, gy), gth)
            samples = max(2, int(world.length() * 4))
            pts = " ".join(
                ",".join(doc.pt(*world.point_at(t / samples))) for t in range(samples + 1)
            )
            doc.add(
                f'<polyline points="{pts}" fill="none" stroke="#b07aa1" '
                f'stroke-width="1" stroke-dasharray="4,3"/>'
            )
        doc.add("</g>")

    if options.show_traffic_lanes:
        doc.add('<g id="traffic-lanes">')
        seen = set()
        for con in scene.constraints:
            if con.kind != cn.TRAFFIC_LANE:
                continue
            origin = con.particles[1]
            key = (origin, con.vector, con.distance)
            if key in seen:
                continue
            seen.add(key)
            ox, oy, _, _ = layout[origin]
            vx, vy = con.vector
            norm = math.hypot(vx, vy)
            ux, uy = vx / norm, vy / norm
            span = max(max_x - min_x, max_y - min_y)
            ex, ey = ox + ux * span, oy + uy * span
            x1, y1 = doc.pt(ox, oy)
            x2, y2 = doc.pt(ex, ey)
            doc.add(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#e15759" '
                f'stroke-width="{_fmt(2 * con.distance * SCALE)}" stroke-opacity="0.15"/>'
            )
            doc.add(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#e15759" '
                f'stroke-width="1" stroke-dasharray="6,4"/>'
            )
        doc.add("</g>")

    doc.add('<g id="objects">')
    for obj in scene.objects:
        x, y, _, theta = layout[obj.particle_index]
        hx, hy = obj.bbox.half_extents
        cx, cy = doc.pt(x, y)
        angle = _fmt(-math.degrees(theta))
        color = color_of[obj.label]
        doc.add(f'<g transform="rotate({angle} {cx} {cy})">')
        doc.add(
            f'<rect x="{_fmt((x - hx - min_x) * SCALE)}" y="{_fmt((max_y - y - hy) * SCALE)}" '
            f'width="{_fmt(2 * hx * SCALE)}" height="{_fmt(2 * hy * SCALE)}" '
            f'fill="{color}" fill-opacity="0.75" stroke="#2d3436" stroke-width="0.8"/>'
        )
        tip = doc.pt(x + hx, y)
        doc.add(
            f'<line x1="{cx}" y1="{cy}" x2="{tip[0]}" y2="{tip[1]}" '
            f'stroke="#2d3436" stroke-width="1.2"/>'
        )
        doc.add("</g>")
    doc.add("</g>")

    if options.show_bounding_circles:
        doc.add('<g id="bounding-circles">')
        for obj in scene.objects:
            x, y, _, _ = layout[obj.particle_index]
            cx, cy = doc.pt(x, y)
            doc.add(
                f'<circle cx="{cx}" cy="{cy}" r="{_fmt(obj.bbox.bounding_radius * SCALE)}" '
                f'fill="none" stroke="#59a14f" stroke-width="0.8" stroke-dasharray="3,3"/>'
            )
        doc.add("</g>")

    if options.show_accessibility:
        doc.add('<g id="accessibility">')
        for obj in scene.objects:
            x, y, _, theta = layout[obj.particle_index]
            for region in obj.accessibility:
                if not region.enabled:
                    continue
                center = region.world_center(Vec2(x, y), theta)
                half_side = region.diagonal / (2.0 * math.sqrt(2.0))
                ccx, ccy = doc.pt(center.x, center.y)
                doc.add(f'<g transform="rotate({_fmt(-math.degrees(theta))} {ccx} {ccy})">')
                doc.add(
                    f'<rect x="{_fmt((center.x - half_side - min_x) * SCALE)}" '
                    f'y="{_fmt((max_y - center.y - half_side) * SCALE)}" '
                    f'width="{_fmt(2 * half_side * SCALE)}" height="{_fmt(2 * half_side * SCALE)}" '
                    f'fill="#f28e2b" fill-opacity="0.2" stroke="#f28e2b" stroke-width="0.6"/>'
                )
                doc.add("</g>")
        doc.add("</g>")

    doc.add("</svg>")
    return "\n".join(doc.lines) + "\n"
