"""
Constraint projections, one at a time
=====================================

Each constraint kind maps current particle states to corrections, which
it writes to a sink ``out(particle, dx, dy, dz, dtheta)``; the solver's
sink applies them in place. This walks the main kinds on tiny hand-made
scenes, each kind through its record in ``constraints.SPECS``: bound on
the scene's ``SolveContext`` as a solve binds it, then projected into a
sink that collects the corrections in a list, so you can see the numbers
move. A collision has no record; the solver calls its contact kernel,
and so does this walk. Every equality lands exactly on target at
stiffness 1.
"""

import math

from layoutsynth import constraints as cn
from layoutsynth.geometry import Vec2
from layoutsynth.model import BoundingBox, LayoutObject, Particle, Room, Scene
from layoutsynth.solver import LayoutState, SolveContext

room = Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)])


def corrections(kind, poses, k=1.0, **fields):
    """What the record of one ``kind`` constraint over particles 0, 1, ...
    writes to its sink, on a scene of unit-mass boxes at ``poses``
    (x, y, z, theta)."""
    scene = Scene(room=room)
    for i, (x, y, _, _) in enumerate(poses):
        scene.particles.append(Particle(Vec2(x, y)))
        scene.objects.append(LayoutObject(f"o{i}", "box", i, BoundingBox(Vec2(0.25, 0.25), 0.25)))
    c = cn.Constraint(kind, range(len(poses)), **fields)
    scene.constraints.append(c)
    spec = cn.SPECS[kind]
    record = spec.bind(c, SolveContext(scene))
    out = []
    spec.project(lambda *correction: out.append(correction), record,
                 LayoutState(*zip(*poses)), k, None)
    return out


def show(title, before, corrs):
    after = {i: list(p) for i, p in before.items()}
    for i, dx, dy, _, _ in corrs:
        after[i][0] += dx
        after[i][1] += dy
    print(f"\n{title}")
    for i in sorted(before):
        print(f"  particle {i}: {tuple(before[i])} -> {tuple(round(v, 4) for v in after[i])}")
    return after


def flat(*points):
    """Poses on the ground, facing +x."""
    return [(x, y, 0.0, 0.0) for x, y in points]


# pairwise distance: two equal masses meet in the middle
show(
    "pairwise distance d=2 (equal masses)",
    {0: (0.0, 0.0), 1: (4.0, 0.0)},
    corrections(cn.PAIRWISE_DISTANCE, flat((0.0, 0.0), (4.0, 0.0)), distance=2.0),
)

# focal point: the focal object is pinned, the member orbits it
show(
    "focal point d=3 (focal pinned at origin)",
    {0: (5.0, 0.0), 1: (0.0, 0.0)},
    corrections(cn.FOCAL_POINT, flat((5.0, 0.0), (0.0, 0.0)), distance=3.0),
)

# traffic lane: clearance around the x axis, its origin pinned
show(
    "traffic lane along +x, clearance 2",
    {0: (2.0, 1.0), 1: (0.0, 0.0)},
    corrections(cn.TRAFFIC_LANE, flat((2.0, 1.0), (0.0, 0.0)), distance=2.0, vector=Vec2(1, 0)),
)

# heat point: the weighted center lands on the target exactly
show(
    "heat point: center of mass to (3, 1)",
    {0: (0.0, 0.0), 1: (2.0, 0.0)},
    corrections(cn.HEAT_POINT, flat((0.0, 0.0), (2.0, 0.0)), point=Vec2(3.0, 1.0)),
)

# collision: overlapping circles separate along the center line
collision = []
cn.project_collision(lambda *c: collision.append(c),
                     0, 1, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0)
show("collision of two unit circles", {0: (0.0, 0.0), 1: (1.0, 0.0)}, collision)

# wall distance: snap one meter off the nearest wall
show(
    "wall distance d=1 in a 10x10 room",
    {0: (3.0, 5.0)},
    corrections(cn.WALL_DISTANCE, flat((3.0, 5.0)), distance=1.0),
)

# orientation: wrapped shortest rotation, half stiffness
corrs = corrections(
    cn.PAIRWISE_ORIENTATION, [(1.0, 1.0, 0.0, math.radians(350)), (4.0, 1.0, 0.0, 0.0)], 0.5,
    orientation_mode=cn.ORIENT_FIXED, angle_target=math.radians(10),
)
print("\npairwise orientation 350deg -> target 10deg at k=0.5")
print(f"  rotates by {math.degrees(corrs[0][4]):+.1f} deg (wraps through zero)")

# stacking: a book lands exactly on top of its base, which stays put
corrs = corrections(cn.STACKING, flat((0.0, 0.0), (0.3, 0.2)), height_gap=0.035)
print("\nstacking: top book centers over the base, lifted by the height gap")
print(f"  dz={sum(c[3] for c in corrs):.3f}, dx={sum(c[1] for c in corrs):+.3f}, "
      f"dy={sum(c[2] for c in corrs):+.3f}")
