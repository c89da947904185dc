"""
Constraint projections, one at a time
=====================================

Each constraint kind maps current particle states to corrections, which
it writes to a sink ``out(particle, dx, dy, dz, dtheta)``; the solver's
sink applies them in place. This walks the main kinds on tiny hand-made
configurations with a sink that collects them into a list, so you can see
the numbers move; every equality lands exactly on target at stiffness 1.
"""

import math

from layoutsynth import constraints as cn
from layoutsynth.geometry import Vec2
from layoutsynth.model import Room

room = Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)])


def corrections(project, *args):
    """What ``project`` writes to its sink, as a list of Corrections."""
    out = []
    project(lambda *c: out.append(cn.Correction(*c)), *args)
    return out


def show(title, before, corrs):
    after = {i: list(p) for i, p in before.items()}
    for c in corrs:
        after[c.particle][0] += c.dx
        after[c.particle][1] += c.dy
    print(f"\n{title}")
    for i in sorted(before):
        print(f"  particle {i}: {tuple(before[i])} -> {tuple(round(v, 4) for v in after[i])}")
    return after


# pairwise distance: two equal masses meet in the middle
show(
    "pairwise distance d=2 (equal masses)",
    {0: (0.0, 0.0), 1: (4.0, 0.0)},
    corrections(cn.project_pairwise_distance, 0, 1, 0.0, 0.0, 4.0, 0.0, 1.0, 1.0, 2.0, 1.0),
)

# focal point: the focal object is pinned, the member orbits it
show(
    "focal point d=3 (focal pinned at origin)",
    {0: (5.0, 0.0), 1: (0.0, 0.0)},
    corrections(cn.project_focal_point, 0, 1, 5.0, 0.0, 0.0, 0.0, 1.0, 0.0, 3.0, 1.0),
)

# traffic lane: clearance around the x axis
show(
    "traffic lane along +x, clearance 2",
    {0: (2.0, 1.0), 1: (0.0, 0.0)},
    corrections(cn.project_traffic_lane, 0, 1, 2.0, 1.0, 0.0, 0.0, 1.0, 0.0, Vec2(1, 0), 2.0, 1.0),
)

# heat point: the weighted center lands on the target exactly
px, py = [0.0, 2.0], [0.0, 0.0]
corrs = corrections(cn.project_heat_point, (0, 1), px, py, [1.0, 1.0], [1.0, 1.0], (3.0, 1.0), 1.0)
show("heat point: center of mass to (3, 1)", {0: (0.0, 0.0), 1: (2.0, 0.0)}, corrs)

# collision: overlapping circles separate along the center line
show(
    "collision of two unit circles",
    {0: (0.0, 0.0), 1: (1.0, 0.0)},
    corrections(cn.project_collision, 0, 1, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0),
)

# wall distance: snap one meter off the nearest wall
show(
    "wall distance d=1 in a 10x10 room",
    {0: (3.0, 5.0)},
    corrections(cn.project_wall_distance, 0, 3.0, 5.0, 1.0, room, 1.0, 1.0),
)

# orientation: wrapped shortest rotation, half stiffness
corrs = corrections(
    cn.project_pairwise_orientation, 0, math.radians(350), math.radians(10), 1.0, 0.5
)
print("\npairwise orientation 350deg -> target 10deg at k=0.5")
print(f"  rotates by {math.degrees(corrs[0].dtheta):+.1f} deg (wraps through zero)")

# stacking: a book lands exactly on top of its base
corrs = corrections(
    cn.project_stacking, 0, 1, 0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.0, 1.0, 0.035, 1.0
)
dz = sum(c.dz for c in corrs)
print("\nstacking: top book centers over the base, lifted by the height gap")
print(f"  dz={dz:.3f}, dx={sum(c.dx for c in corrs):+.3f}, dy={sum(c.dy for c in corrs):+.3f}")
