import ast
import inspect
import logging
import math

import numpy as np
import pytest

from layoutsynth import constraints as cn
from layoutsynth import model, scenes, solver
from layoutsynth.constraints import (
    Constraint,
    boundary_violation,
    project_accessibility,
    project_boundary,
    project_collision,
    project_pairwise_distance,
    project_pairwise_orientation,
    project_wall_ghost_collision,
    update_stiffness,
)
from layoutsynth.geometry import Curve, Vec2, closest_point_on_curve, wrap_angle
from layoutsynth.model import (
    INFINITE, BoundingBox, Group, LayoutObject, Particle, Room, Scene,
)
from layoutsynth.solver import LayoutState, SolveContext, initialize

SQUARE = Room([Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)])
# non-convex rooms with 2 m arms or more: an L, and a 6.5 x 5 m room with
# a 2.5 x 3 m notch whose centroid lies in the notch
L_ROOM = [(0, 0), (8, 0), (8, 4), (5.5, 4), (5.5, 6), (0, 6)]
NOTCHED_ROOM = [(0, 0), (6.5, 0), (6.5, 5), (4.5, 5), (4.5, 2), (2, 2), (2, 5), (0, 5)]


def corrections(project, *args, **kwargs):
    """The corrections ``project`` writes to its sink, as plain
    (particle, dx, dy, dz, dtheta) tuples; its return value says whether
    it wrote any."""
    out = []
    wrote = project(lambda *c: out.append(c), *args, **kwargs)
    assert wrote == bool(out)
    return out


def record_corrections(constraint, poses, k=1.0, *, masses=None, areas=None, room=SQUARE,
                       others=()):
    """The corrections the solver's record of ``constraint`` writes at
    stiffness ``k``. A tiny scene in ``room`` holds one box per pose
    (x, y[, z, theta]) with the given masses and footprint areas (1 by
    default) and the ``others`` constraints; the constraint is bound on
    its ``SolveContext`` and projected as a solve does."""
    n = len(poses)
    scene = Scene(room=room)
    for i, (mass, area) in enumerate(zip(masses or [1.0] * n, areas or [1.0] * n)):
        scene.particles.append(Particle(Vec2(*poses[i][:2]), mass=mass))
        scene.objects.append(LayoutObject(id=f"o{i}", label="box", particle_index=i,
                                          bbox=BoundingBox(Vec2(0.25 * area, 1.0), 0.5)))
    scene.constraints += [constraint, *others]
    ctx = SolveContext(scene)
    st = LayoutState(*zip(*[(*pose, 0.0, 0.0)[:4] for pose in poses]))
    spec = cn.SPECS[constraint.kind]
    return corrections(spec.project, spec.bind(constraint, ctx), st, k, None)


def apply(positions, corrs):
    out = {i: list(p) for i, p in positions.items()}
    for i, dx, dy, _, _ in corrs:
        out[i][0] += dx
        out[i][1] += dy
    return out


class TestStiffnessSchedule:
    def test_decreasing_formula_value(self):
        c = Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0,
                       schedule=cn.DECREASING, stiffness_initial=0.9, rate=10.0)
        assert update_stiffness(c, 10) == pytest.approx(0.9)

    def test_decreasing_monotone_to_zero(self):
        c = Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0,
                       schedule=cn.DECREASING, stiffness_initial=0.9, rate=10.0)
        values = [update_stiffness(c, l) for l in range(10, 3000)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert update_stiffness(c, 10**9) < 1e-4
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_increasing_rises_with_floor(self):
        c = Constraint(cn.COLLISION, (0, 1), schedule=cn.INCREASING,
                       stiffness_initial=0.9, rate=10.0, relation=cn.INEQUALITY)
        values = [update_stiffness(c, l) for l in range(1, 500)]
        assert values[0] == pytest.approx(cn.INCREASING_FLOOR)
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[-1] > 0.85
        tail = values[20:]
        assert all(b >= a - 1e-15 for a, b in zip(tail, tail[1:]))

    def test_constant(self):
        c = Constraint(cn.BOUNDARY, (0,), schedule=cn.CONSTANT, stiffness_initial=1.0)
        assert all(update_stiffness(c, l) == 1.0 for l in (1, 7, 1000))

    def test_iterations_are_one_based(self):
        c = Constraint(cn.BOUNDARY, (0,), schedule=cn.CONSTANT)
        with pytest.raises(ValueError):
            update_stiffness(c, 0)


class TestPairwiseDistance:
    def test_equal_masses_split(self):
        corrs = corrections(project_pairwise_distance, 0, 1, 0, 0, 4, 0, 1.0, 1.0, 2.0, 1.0)
        moved = apply({0: (0, 0), 1: (4, 0)}, corrs)
        assert moved[0] == pytest.approx([1.0, 0.0])
        assert moved[1] == pytest.approx([3.0, 0.0])

    def test_anchored_partner_takes_full_correction(self):
        corrs = corrections(project_pairwise_distance, 0, 1, 0, 0, 4, 0, 1.0, 0.0, 2.0, 1.0)
        moved = apply({0: (0, 0), 1: (4, 0)}, corrs)
        assert moved[0] == pytest.approx([2.0, 0.0])
        assert moved[1] == pytest.approx([4.0, 0.0])

    def test_satisfied_is_silent(self):
        assert corrections(project_pairwise_distance, 0, 1, 0, 0, 2, 0, 1.0, 1.0, 2.0, 1.0) == []

    def test_inequality_inactive_beyond_target(self):
        assert corrections(
            project_pairwise_distance, 0, 1, 0, 0, 5, 0, 1.0, 1.0, 2.0, 1.0, cn.INEQUALITY,
        ) == []

    def test_inequality_active_when_too_close(self):
        corrs = corrections(
            project_pairwise_distance, 0, 1, 0, 0, 1, 0, 1.0, 1.0, 2.0, 1.0, cn.INEQUALITY,
        )
        moved = apply({0: (0, 0), 1: (1, 0)}, corrs)
        d = math.hypot(moved[0][0] - moved[1][0], moved[0][1] - moved[1][1])
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_coincident_uses_tiebreak_direction(self):
        corrs = corrections(
            project_pairwise_distance, 0, 1, 1, 1, 1, 1, 1.0, 1.0, 2.0, 1.0, cn.EQUALITY,
            tiebreak=lambda: (0.0, 1.0),
        )
        moved = apply({0: (1, 1), 1: (1, 1)}, corrs)
        assert moved[0][1] != moved[1][1]
        d = math.hypot(moved[0][0] - moved[1][0], moved[0][1] - moved[1][1])
        assert d == pytest.approx(2.0, abs=1e-12)

    def test_conservation_of_weighted_center(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            pi = rng.uniform(-5, 5, 2)
            pj = rng.uniform(-5, 5, 2)
            mi, mj = rng.uniform(0.1, 10, 2)
            d = rng.uniform(0, 5)
            k = rng.uniform(0, 1)
            corrs = corrections(project_pairwise_distance, 0, 1, *pi, *pj, 1 / mi, 1 / mj, d, k)
            sx = sy = 0.0
            for particle, dx, dy, _, _ in corrs:
                m = mi if particle == 0 else mj
                sx += m * dx
                sy += m * dy
            assert abs(sx) < 1e-9 and abs(sy) < 1e-9


class TestFocalPoint:
    def test_member_pulled_to_radius(self):
        corrs = record_corrections(Constraint(cn.FOCAL_POINT, (0, 1), distance=3.0),
                                   [(5, 0), (0, 0)], masses=[1.0, INFINITE])
        moved = apply({0: (5, 0), 1: (0, 0)}, corrs)
        assert moved[0] == pytest.approx([3.0, 0.0])
        assert moved[1] == pytest.approx([0.0, 0.0])

    def test_on_circle_is_silent(self):
        assert record_corrections(Constraint(cn.FOCAL_POINT, (0, 1), distance=3.0),
                                  [(3, 0), (0, 0)], masses=[1.0, INFINITE]) == []

    def test_pinned_focal_never_moves_even_with_mass(self):
        corrs = record_corrections(
            Constraint(cn.FOCAL_POINT, (0, 1), distance=3.0, pin_focal=True),
            [(5, 0), (0, 0)],
        )
        assert all(particle == 0 for particle, *_ in corrs)

    def test_two_members_sequentially_reach_circle(self):
        focal = (0.0, 0.0)
        members = {0: (5.0, 0.0), 1: (0.0, -7.0)}
        for idx in (0, 1):
            corrs = record_corrections(Constraint(cn.FOCAL_POINT, (idx, 2), distance=3.0),
                                       [members[0], members[1], focal],
                                       masses=[1.0, 1.0, INFINITE])
            members = apply({**members, 2: focal}, corrs)
            members.pop(2)
        for pos in members.values():
            assert math.hypot(*pos) == pytest.approx(3.0, abs=1e-12)


def _lane(distance, **kw):
    return Constraint(cn.TRAFFIC_LANE, (0, 1), distance=distance, vector=Vec2(1, 0), **kw)


class TestTrafficLane:
    def test_push_off_axis(self):
        corrs = record_corrections(_lane(2.0), [(2, 1), (0, 0)])
        moved = apply({0: (2, 1), 1: (0, 0)}, corrs)
        assert moved[0] == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_inactive_when_clear(self):
        assert record_corrections(_lane(2.0), [(2, 3), (0, 0)]) == []

    def test_ghost_share_moves_origin(self):
        corrs = record_corrections(_lane(2.0, pin_focal=False), [(2, 1), (0, 0)])
        by_particle = {i: (dx, dy) for i, dx, dy, _, _ in corrs}
        assert 1 in by_particle
        # momentum split: equal inverse masses move by half each, in
        # opposite perpendicular directions
        assert by_particle[0][1] == pytest.approx(0.5)
        assert by_particle[1][1] == pytest.approx(-0.5)

    def test_on_axis_pushes_left_of_vector(self):
        corrs = record_corrections(_lane(1.0), [(3, 0), (0, 0)])
        moved = apply({0: (3, 0), 1: (0, 0)}, corrs)
        assert moved[0][1] == pytest.approx(1.0, abs=1e-12)


class TestHeatPoint:
    def test_center_already_at_target(self):
        assert record_corrections(Constraint(cn.HEAT_POINT, (0, 1), point=Vec2(1, 0)),
                                  [(0.0, 0.0), (2.0, 0.0)]) == []

    def test_gradient_hand_value(self):
        # two unit masses at (0,0),(2,0), target (0,0): each gradient 0.5*(1,0)
        grad = cn.center_target_gradient(1.0, 2.0, (1.0, 0.0), (0.0, 0.0))
        assert grad == pytest.approx((0.5, 0.0))

    def test_single_particle_moves_exactly_to_target(self):
        corrs = record_corrections(Constraint(cn.HEAT_POINT, (0,), point=Vec2(1.0, -1.0)),
                                   [(5.0, 5.0)], masses=[2.0])
        moved = apply({0: (5, 5)}, corrs)
        assert moved[0] == pytest.approx([1.0, -1.0], abs=1e-12)

    def test_center_moves_fraction_k(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = rng.integers(2, 6)
            px = list(rng.uniform(-5, 5, n))
            py = list(rng.uniform(-5, 5, n))
            masses = list(rng.uniform(0.2, 4, n))
            target = rng.uniform(-5, 5, 2)
            k = rng.uniform(0.1, 1.0)
            cx0, cy0, _ = cn.weighted_center(range(n), px, py, masses)
            corrs = record_corrections(
                Constraint(cn.HEAT_POINT, tuple(range(n)), point=Vec2(*target)),
                list(zip(px, py)), k, masses=masses,
            )
            for i, dx, dy, _, _ in corrs:
                px[i] += dx
                py[i] += dy
            cx1, cy1, _ = cn.weighted_center(range(n), px, py, masses)
            assert cx1 == pytest.approx(cx0 + k * (target[0] - cx0), abs=1e-9)
            assert cy1 == pytest.approx(cy0 + k * (target[1] - cy0), abs=1e-9)


def _symmetry():
    """Focal symmetry of particles 1 and 2 about the +x ray from focal 0."""
    return Constraint(cn.FOCAL_SYMMETRY, (0, 1, 2), vector=Vec2(1, 0))


class TestFocalSymmetry:
    def test_symmetric_configuration_is_silent(self):
        assert record_corrections(_symmetry(), [(0, 0), (1.0, 1.0), (1.0, -1.0)]) == []

    def test_center_projected_onto_axis(self):
        corrs = record_corrections(_symmetry(), [(0, 0), (1.0, 1.0), (1.0, 0.0)])
        assert len(corrs) == 2
        # equal masses pushed down equally
        assert corrs[0][2] == pytest.approx(-0.5)
        assert corrs[1][2] == pytest.approx(-0.5)
        assert corrs[0][1] == pytest.approx(0.0)

    def test_zero_stiffness_silent(self):
        assert record_corrections(_symmetry(), [(0, 0), (1.0, 1.0), (1.0, 0.0)], 0.0) == []


class TestVisualBalance:
    def test_symmetric_about_centroid_silent(self):
        assert record_corrections(Constraint(cn.VISUAL_BALANCE, (0, 1)),
                                  [(4.0, 5.0), (6.0, 5.0)], areas=[2.0, 2.0]) == []

    def test_single_object_moves_to_centroid(self):
        corrs = record_corrections(Constraint(cn.VISUAL_BALANCE, (0,)), [(1.0, 1.0)],
                                   areas=[3.0])
        moved = apply({0: (1, 1)}, corrs)
        assert moved[0] == pytest.approx([5.0, 5.0], abs=1e-12)

    def test_gradient_proportional_to_weight_share(self):
        # big object carries more of the gradient but moves by its own
        # inverse mass share; the 4 x 4 room's centroid is (2, 2)
        room = Room([Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4)])
        weights = [3.0, 1.0]
        inv = [0.5, 2.0]
        corrs = record_corrections(Constraint(cn.VISUAL_BALANCE, (0, 1)),
                                   [(0.0, 0.0), (4.0, 0.0)], masses=[1 / w for w in inv],
                                   areas=weights, room=room)
        by = {i: dx for i, dx, _, _, _ in corrs}
        ratio = (by[0] / by[1])
        assert ratio == pytest.approx((weights[0] * inv[0]) / (weights[1] * inv[1]))


class TestGradientChecks:
    """Analytic center-of-mass gradients against central finite differences."""

    def _finite_diff(self, f, px, py, j, h=1e-5):
        px1 = list(px); px1[j] += h
        px2 = list(px); px2[j] -= h
        gx = (f(px1, py) - f(px2, py)) / (2 * h)
        py1 = list(py); py1[j] += h
        py2 = list(py); py2[j] -= h
        gy = (f(px, py1) - f(px, py2)) / (2 * h)
        return gx, gy

    def test_heat_point_gradients(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            px = list(rng.uniform(-3, 3, n))
            py = list(rng.uniform(-3, 3, n))
            masses = list(rng.uniform(0.3, 3, n))
            target = tuple(rng.uniform(-3, 3, 2))

            def C(qx, qy):
                cx, cy, _ = cn.weighted_center(range(n), qx, qy, masses)
                return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)

            total = sum(masses)
            cx, cy, _ = cn.weighted_center(range(n), px, py, masses)
            for j in range(n):
                ax, ay = cn.center_target_gradient(masses[j], total, (cx, cy), target)
                nx, ny = self._finite_diff(C, px, py, j)
                assert ax == pytest.approx(nx, rel=1e-4, abs=1e-8)
                assert ay == pytest.approx(ny, rel=1e-4, abs=1e-8)

    def test_focal_symmetry_gradients(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            px = list(rng.uniform(1, 4, n))
            py = list(rng.uniform(-2, 2, n))
            masses = list(rng.uniform(0.3, 3, n))
            focal = (0.0, 0.0)
            v = rng.uniform(-1, 1, 2)
            v /= np.hypot(*v)

            def C(qx, qy):
                cx, cy, _ = cn.weighted_center(range(n), qx, qy, masses)
                t = max(0.0, (cx - focal[0]) * v[0] + (cy - focal[1]) * v[1])
                rx = cx - focal[0] - t * v[0]
                ry = cy - focal[1] - t * v[1]
                return 0.5 * (rx * rx + ry * ry)

            total = sum(masses)
            cx, cy, _ = cn.weighted_center(range(n), px, py, masses)
            t = max(0.0, (cx - focal[0]) * v[0] + (cy - focal[1]) * v[1])
            target = (focal[0] + t * v[0], focal[1] + t * v[1])
            for j in range(n):
                ax, ay = cn.center_target_gradient(masses[j], total, (cx, cy), target)
                nx, ny = self._finite_diff(C, px, py, j)
                assert ax == pytest.approx(nx, rel=1e-4, abs=1e-8)
                assert ay == pytest.approx(ny, rel=1e-4, abs=1e-8)

    def test_visual_balance_gradients(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            px = list(rng.uniform(-3, 3, n))
            py = list(rng.uniform(-3, 3, n))
            weights = list(rng.uniform(0.2, 5, n))
            centroid = tuple(rng.uniform(-1, 1, 2))

            def C(qx, qy):
                cx, cy, _ = cn.weighted_center(range(n), qx, qy, weights)
                return 0.5 * ((cx - centroid[0]) ** 2 + (cy - centroid[1]) ** 2)

            total = sum(weights)
            cx, cy, _ = cn.weighted_center(range(n), px, py, weights)
            for j in range(n):
                ax, ay = cn.center_target_gradient(weights[j], total, (cx, cy), centroid)
                nx, ny = self._finite_diff(C, px, py, j)
                assert ax == pytest.approx(nx, rel=1e-4, abs=1e-8)
                assert ay == pytest.approx(ny, rel=1e-4, abs=1e-8)


def _wall(distance, relation=cn.EQUALITY):
    return Constraint(cn.WALL_DISTANCE, (0,), distance=distance, relation=relation)


class TestWallDistance:
    def test_equality_pulls_to_distance(self):
        corrs = record_corrections(_wall(1.0), [(3, 5)])
        moved = apply({0: (3, 5)}, corrs)
        assert moved[0] == pytest.approx([1.0, 5.0], abs=1e-12)

    def test_satisfied_is_silent(self):
        assert record_corrections(_wall(1.0), [(1, 5)]) == []

    def test_inequality_pushes_away(self):
        corrs = record_corrections(_wall(1.0, cn.INEQUALITY), [(0.5, 5)])
        moved = apply({0: (0.5, 5)}, corrs)
        assert moved[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_inequality_inactive_when_far(self):
        assert record_corrections(_wall(1.0, cn.INEQUALITY), [(2, 5)]) == []


class TestAccessibility:
    def test_push_to_clearance(self):
        # intruder half a meter from the zone center, needs 1.5
        corrs = corrections(
            project_accessibility, 0, 1, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
            access_diagonal=0.8, b_i=0.7, r_i=0.35, k=1.0,
        )
        moved = apply({0: (0.5, 0.0), 1: (5, 5)}, corrs)
        assert math.hypot(*moved[0]) == pytest.approx(0.7 + 0.8, abs=1e-12)

    def test_inactive_when_disjoint(self):
        corrs = corrections(
            project_accessibility, 0, 1, 9.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
            access_diagonal=0.8, b_i=0.7, r_i=0.35, k=1.0,
        )
        assert corrs == []

    def test_anchored_owner_full_correction_on_intruder(self):
        corrs = corrections(
            project_accessibility, 0, 1, 0.5, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
            access_diagonal=0.8, b_i=0.7, r_i=0.35, k=1.0,
        )
        assert all(particle == 0 for particle, *_ in corrs)

    def test_owner_share_when_movable(self):
        corrs = corrections(
            project_accessibility, 0, 1, 0.5, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0,
            access_diagonal=0.8, b_i=0.7, r_i=0.35, k=1.0,
        )
        assert {particle for particle, *_ in corrs} == {0, 1}

    def test_zone_activation_geometry(self):
        # square zone of diagonal d has half side d / (2*sqrt(2)); the
        # separation b_i + d = 1.7 is unmet at both points, so only the
        # zone test keeps the far one quiet
        diagonal = 0.5 * math.sqrt(2.0)
        assert model.zone_half_side(diagonal) == pytest.approx(0.25, abs=1e-15)
        for x, active in ((0.4, True), (1.0, False)):
            corrs = corrections(
                project_accessibility, 0, 1, x, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                access_diagonal=diagonal, b_i=1.0, r_i=0.2, k=1.0,
            )
            assert bool(corrs) == active

    def test_zone_test_equals_the_circle_square_test(self):
        # the zone test as a function of its own, NaN distances included:
        # with the separation unmet everywhere, projecting means active
        def zone_active(pi, r_i, center, half_side, theta_j):
            c, s = math.cos(theta_j), math.sin(theta_j)
            relx = pi[0] - center[0]
            rely = pi[1] - center[1]
            lx = c * relx + s * rely
            ly = -s * relx + c * rely
            qx = min(half_side, max(-half_side, lx))
            qy = min(half_side, max(-half_side, ly))
            return math.hypot(lx - qx, ly - qy) <= r_i

        rng = np.random.default_rng(29)
        seen = {True: 0, False: 0}
        for n in range(4000):
            xi, yi, xc, yc = rng.uniform(-3.0, 3.0, size=4)
            theta = rng.uniform(0.0, 2 * math.pi)
            diagonal, r_i = rng.uniform(0.01, 3.0), rng.uniform(0.0, 1.5)
            if n % 10 == 0:
                xi = math.nan
            elif n % 10 == 1:
                theta = math.nan
            want = zone_active((xi, yi), r_i, (xc, yc), model.zone_half_side(diagonal), theta)
            corrs = corrections(
                project_accessibility, 0, 1, xi, yi, 1.0, 0.0, xc, yc, theta,
                access_diagonal=diagonal, b_i=100.0, r_i=r_i, k=1.0,
            )
            assert bool(corrs) == want
            seen[want] += 1
        assert min(seen.values()) > 300


class TestCollision:
    def test_overlap_split(self):
        corrs = corrections(project_collision, 0, 1, 0, 0, 1, 0, 1.0, 1.0, 1.0, 1.0, 1.0)
        moved = apply({0: (0, 0), 1: (1, 0)}, corrs)
        assert moved[0] == pytest.approx([-0.5, 0.0])
        assert moved[1] == pytest.approx([1.5, 0.0])

    def test_separated_is_silent(self):
        assert corrections(project_collision, 0, 1, 0, 0, 3, 0, 1.0, 1.0, 1.0, 1.0, 1.0) == []

    def test_anchor_takes_none(self):
        corrs = corrections(project_collision, 0, 1, 0, 0, 1, 0, 1.0, 0.0, 1.0, 1.0, 1.0)
        moved = apply({0: (0, 0), 1: (1, 0)}, corrs)
        assert moved[0] == pytest.approx([-1.0, 0.0])
        assert moved[1] == pytest.approx([1.0, 0.0])


class TestWallGhostCollision:
    def test_slides_hosts_apart_along_wall(self):
        # ghost points on the wall x=0 overlap; hosts pushed apart in y
        corrs = corrections(
            project_wall_ghost_collision, 0, 1, 0.0, 4.0, 0.0, 4.5, 1.0, 1.0, 1.0, 1.0, 1.0,
        )
        by = {i: (dx, dy) for i, dx, dy, _, _ in corrs}
        assert by[0][1] < 0 < by[1][1]
        assert by[0][0] == pytest.approx(0.0)

    def test_far_ghosts_inactive(self):
        assert corrections(
            project_wall_ghost_collision, 0, 1, 0.0, 1.0, 0.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        ) == []

    def test_two_constraint_fixed_point_slides_apart(self):
        # two unit circles hugging the wall x=0; iterate wall distance +
        # collision + ghost until quiet, then both sit on the wall line
        # separated by at least the radius sum
        pos = {0: [1.0, 4.0], 1: [1.0, 4.5]}
        for _ in range(50):
            for i in (0, 1):
                wall = Constraint(cn.WALL_DISTANCE, (i,), distance=1.0)
                pos = apply(pos, record_corrections(wall, [pos[0], pos[1]]))
            corrs = corrections(
                project_collision, 0, 1, *pos[0], *pos[1], 1.0, 1.0, 1.0, 1.0, 1.0,
            )
            pos = apply(pos, corrs)
            if corrs:
                g0, _, _ = model.nearest_wall_point(SQUARE, pos[0])
                g1, _, _ = model.nearest_wall_point(SQUARE, pos[1])
                pos = apply(pos, corrections(
                    project_wall_ghost_collision, 0, 1, *g0, *g1, 1.0, 1.0, 1.0, 1.0, 1.0,
                ))
        assert pos[0][0] == pytest.approx(1.0, abs=1e-6)
        assert pos[1][0] == pytest.approx(1.0, abs=1e-6)
        assert abs(pos[0][1] - pos[1][1]) >= 2.0 - 1e-6


class TestPairwiseOrientation:
    def test_wrap_around_shortest_path(self):
        corrs = corrections(
            project_pairwise_orientation, 0, math.radians(350), math.radians(370), 1.0, 0.5,
        )
        assert len(corrs) == 1
        new = math.radians(350) + corrs[0][4]
        assert new % (2 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_satisfied_is_silent(self):
        assert corrections(project_pairwise_orientation, 0, 1.0, 1.0, 1.0, 1.0) == []

    def test_antipodal_rotates_positive(self):
        corrs = corrections(project_pairwise_orientation, 0, 0.0, math.pi, 1.0, 1.0)
        assert corrs[0][4] == pytest.approx(math.pi)

    def test_positions_untouched(self):
        corrs = corrections(project_pairwise_orientation, 0, 0.2, 1.3, 1.0, 1.0)
        assert all(dx == 0.0 and dy == 0.0 and dz == 0.0 for _, dx, dy, dz, _ in corrs)


def _wall_turn(offset):
    return Constraint(cn.WALL_ORIENTATION, (0,), angle_offset=offset)


class TestWallOrientation:
    def test_snaps_parallel_to_nearest_wall(self):
        corrs = record_corrections(_wall_turn(0.0), [(0.5, 5, 0.0, math.radians(45))])
        new = math.radians(45) + corrs[0][4]
        assert new == pytest.approx(math.pi / 2, abs=1e-9)

    def test_parallel_is_silent(self):
        assert record_corrections(_wall_turn(0.0), [(0.5, 5, 0.0, math.pi / 2)]) == []

    def test_half_stiffness_blends(self):
        corrs = record_corrections(_wall_turn(math.pi / 2), [(5, 0.5, 0.0, 0.0)], 0.5)
        # near wall y=0 (tangent pi), offset pi/2: both perpendicular
        # candidates are a quarter turn away; half of it gets applied
        assert abs(corrs[0][4]) == pytest.approx(math.pi / 4)


def _stack(bottom, top, gap):
    return Constraint(cn.STACKING, (bottom, top), height_gap=gap)


class TestStacking:
    def test_anchored_bottom_lifts_top(self):
        # the pile's base stays on the ground
        corrs = record_corrections(_stack(0, 1, 1.5), [(0, 0, 0.0), (0, 0, 0.0)])
        assert len(corrs) == 1
        assert corrs[0][0] == 1
        assert corrs[0][3] == pytest.approx(1.5)

    def test_already_stacked_silent(self):
        assert record_corrections(_stack(0, 1, 1.5), [(0, 0, 0.0), (0, 0, 1.5)]) == []

    def test_three_book_chain_converges(self):
        # fixed-point iteration: z offsets accumulate along the chain; the
        # middle book is a stacked bottom, so it moves too
        z = [0.0, 0.0, 0.0]
        xy = [[0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]]
        gap01, gap12 = 0.035, 0.035
        pile = [_stack(0, 1, gap01), _stack(1, 2, gap12)]
        for _ in range(50):
            for c in pile:
                poses = [(x, y, zi) for (x, y), zi in zip(xy, z)]
                others = [other for other in pile if other is not c]
                for i, dx, dy, dz, _ in record_corrections(c, poses, others=others):
                    xy[i][0] += dx
                    xy[i][1] += dy
                    z[i] += dz
        assert z[0] == pytest.approx(0.0, abs=1e-6)
        assert z[1] == pytest.approx(gap01, abs=1e-6)
        assert z[2] == pytest.approx(gap01 + gap12, abs=1e-6)
        for j in (1, 2):
            assert xy[j][0] == pytest.approx(xy[0][0], abs=1e-6)
            assert xy[j][1] == pytest.approx(xy[0][1], abs=1e-6)

    def test_ground_plane_pull_mass_weighted(self):
        # particle 0 is itself stacked on particle 2, so both 0 and 1 move
        corrs = record_corrections(_stack(0, 1, 1.0), [(0, 0, 0.0), (2, 0, 1.0), (0, 0, 0.0)],
                                   others=[_stack(2, 0, 0.0)])
        by = {i: dx for i, dx, _, _, _ in corrs}
        assert by[0] == pytest.approx(1.0)
        assert by[1] == pytest.approx(-1.0)


class TestBoundary:
    def test_push_inside(self):
        corrs = corrections(project_boundary, 0, 0.2, 5, 1.0, 1.0, SQUARE)
        moved = apply({0: (0.2, 5)}, corrs)
        assert moved[0] == pytest.approx([1.0, 5.0], abs=1e-9)

    def test_interior_silent(self):
        assert corrections(project_boundary, 0, 5, 5, 1.0, 1.0, SQUARE) == []

    def test_corner_violation(self):
        corrs = corrections(project_boundary, 0, 0.2, 0.2, 1.0, 1.0, SQUARE)
        moved = apply({0: (0.2, 0.2)}, corrs)
        assert moved[0] == pytest.approx([1.0, 1.0], abs=1e-9)
        assert boundary_violation(SQUARE, moved[0], 1.0) < 1e-9

    def test_point_outside_room_comes_back(self):
        corrs = corrections(project_boundary, 0, 12.0, 5.0, 1.0, 1.0, SQUARE)
        moved = apply({0: (12.0, 5.0)}, corrs)
        assert boundary_violation(SQUARE, moved[0], 1.0) < 1e-9

    def test_room_too_small_clamps_to_centroid(self, caplog):
        tiny = Room([Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)])
        with caplog.at_level(logging.WARNING):
            corrs = corrections(project_boundary, 0, 0.1, 0.1, 1.0, 5.0, tiny)
        moved = apply({0: (0.1, 0.1)}, corrs)
        assert moved[0] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert any("clamp" in r.message for r in caplog.records)

    def test_rectangle_early_out_only_where_contained(self, monkeypatch):
        # the sides decide only what the per-wall loop would, bit for bit
        wall_violation = model._wall_violation
        measured = []

        def spy(room, x, y, radius):
            measured.append((x, y))
            return wall_violation(room, x, y, radius)

        monkeypatch.setattr(model, "_wall_violation", spy)

        def rect(x0, y0, w, h):
            return Room([Vec2(x0, y0), Vec2(x0 + w, y0), Vec2(x0 + w, y0 + h), Vec2(x0, y0 + h)])

        rng = np.random.default_rng(546)
        skipped = {"violation": 0, "contained": 0, "pokes_out": 0}
        calls = dict.fromkeys(skipped, 0)

        def check(room, x, y, radius):
            """Every side decision of the three tests against the loop's;
            returns project_boundary's corrections."""
            exact = wall_violation(room, x, y, radius)
            measured.clear()
            assert float.hex(boundary_violation(room, (x, y), radius)) == float.hex(exact)
            calls["violation"] += 1
            skipped["violation"] += not measured
            for tol, r in ((1e-12, radius), (1e-9, radius), (0.0, radius + 0.02)):
                measured.clear()
                assert cn.pokes_out(room, x, y, r, tol) == (wall_violation(room, x, y, r) > tol)
                calls["pokes_out"] += 1
                skipped["pokes_out"] += not measured
            measured.clear()
            corrs = corrections(project_boundary, 0, x, y, 1.0, radius, room)
            calls["contained"] += 1
            if not measured and not corrs:
                # contained from the sides: touching circles may read a hair above 0
                skipped["contained"] += 1
                assert exact <= 1e-12
            with monkeypatch.context() as loop_only:
                loop_only.setattr(cn, "pokes_out",
                                  lambda room, x, y, r, tol: wall_violation(room, x, y, r) > tol)
                assert _bits(corrections(project_boundary, 0, x, y, 1.0, radius, room)) == \
                    _bits(corrs)
            return corrs

        for offset in (0.0, 1e4, -1e4):
            for _ in range(600):
                x0, y0 = offset + rng.uniform(-5, 5, 2)
                w, h = rng.uniform(0.5, 10, 2)
                room = rect(x0, y0, w, h)
                radius = rng.uniform(0.01, 0.5 * min(w, h))
                # anywhere near the room, outside included
                x, y = rng.uniform(x0 - 1, x0 + w + 1), rng.uniform(y0 - 1, y0 + h + 1)
                corrs = check(room, x, y, radius)
                # where the clamp left it, touching a wall
                (x, y), = apply({0: (x, y)}, corrs).values()
                check(room, x, y, radius)
                # a corner region
                cx, cy = rng.choice([x0, x0 + w]), rng.choice([y0, y0 + h])
                x, y = cx + rng.uniform(-2, 2) * radius, cy + rng.uniform(-2, 2) * radius
                corrs = check(room, x, y, radius)
                (x, y), = apply({0: (x, y)}, corrs).values()
                check(room, x, y, radius)
                # just inside and just outside the band around each threshold
                y = y0 + 0.5 * h
                for reach in (radius - 1e-12, radius):
                    for edge in (-1.01, -0.99, 0.99, 1.01):
                        check(room, x0 + reach + edge * room._band, y, radius)
        # the sides decide often, and the loop still decides inside the band
        for name, share in (("violation", 0.1), ("contained", 0.1), ("pokes_out", 0.8)):
            assert share * calls[name] < skipped[name] < calls[name], name

        # in a 6.5 x 5 m room, circles the clamp left touching a wall are
        # found contained from the sides
        room = rect(0.0, 0.0, 6.5, 5.0)
        touching = contained = 0
        for _ in range(500):
            radius = rng.uniform(0.1, 1.5)
            x, y = rng.uniform(-0.5, 7.0), rng.uniform(-0.5, 5.5)
            corrs = check(room, x, y, radius)
            if corrs:
                (x, y), = apply({0: (x, y)}, corrs).values()
                touching += 1
                measured.clear()
                assert corrections(project_boundary, 0, x, y, 1.0, radius, room) == []
                contained += not measured
        assert touching > 200 and contained > 0.9 * touching

    @pytest.mark.parametrize("boundary, angle, shift", [
        (L_ROOM, 0.0, (0.0, 0.0)),
        (NOTCHED_ROOM, 0.0, (0.0, 0.0)),
        ([(0, 0), (6.5, 0), (6.5, 5), (0, 5)], math.radians(30.0), (0.0, 0.0)),
        (L_ROOM, 0.0, (1e4, -1e4)),
        (NOTCHED_ROOM, 0.4, (5e3, -2e3)),
    ], ids=["l", "notched", "rectangle_turned", "l_far", "notched_turned_far"])
    def test_one_projection_contains_outside_rectangles(self, boundary, angle, shift, caplog):
        # rooms where no rectangle side test decides: the clamp alone
        # brings every circle narrower than the arms inside
        c, s = math.cos(angle), math.sin(angle)
        room = Room([Vec2(c * x - s * y + shift[0], s * x + c * y + shift[1]) for x, y in boundary])
        x0, y0, x1, y1 = room.bounds()
        rng = np.random.default_rng(17)
        with caplog.at_level(logging.WARNING, logger="layoutsynth.constraints"):
            for _ in range(6000):
                radius = rng.uniform(0.05, 0.9)
                x, y = rng.uniform(x0 - 1, x1 + 1), rng.uniform(y0 - 1, y1 + 1)
                corrs = corrections(project_boundary, 0, x, y, 1.0, radius, room)
                (x, y), = apply({0: (x, y)}, corrs).values()
                assert boundary_violation(room, (x, y), radius) <= 1e-9
        assert not caplog.records

    def test_violation_measure(self):
        assert boundary_violation(SQUARE, (5, 5), 1.0) == 0.0
        assert boundary_violation(SQUARE, (0.2, 5), 1.0) == pytest.approx(0.8)
        assert boundary_violation(SQUARE, (-1.0, 5), 1.0) == pytest.approx(2.0)


class TestConstraintRecord:
    def test_constraint_takes_its_kinds_defaults(self):
        c = Constraint(cn.COLLISION, (0, 1))
        assert c.relation == cn.INEQUALITY
        assert c.weight == 150.0
        assert c.schedule == cn.INCREASING
        c = Constraint(cn.WALL_DISTANCE, (0,), distance=0.5)
        assert c.weight == 20.0
        assert c.schedule == cn.CONSTANT and c.stiffness_initial == 1.0
        c = Constraint(cn.PAIRWISE_DISTANCE, [0, 1], distance=1.0)
        assert c.particles == (0, 1)
        assert (c.schedule, c.stiffness_initial, c.rate) == (cn.DECREASING, 0.9, 10.0)
        # a lane is an inequality, and a constraint left unset takes it
        Constraint(cn.TRAFFIC_LANE, (0, 1), vector=Vec2(1, 0), distance=0.8).validate()
        # what a caller sets is kept
        c = Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0, relation=cn.INEQUALITY,
                       weight=3.0, schedule=cn.CONSTANT, stiffness_initial=0.5, rate=2.0)
        assert (c.relation, c.weight, c.schedule, c.stiffness_initial, c.rate) == (
            cn.INEQUALITY, 3.0, cn.CONSTANT, 0.5, 2.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Constraint("warp", (0, 1)).validate()
        with pytest.raises(ValueError):
            Constraint(cn.PAIRWISE_DISTANCE, (0, 1, 2), distance=1.0).validate()
        with pytest.raises(ValueError):
            Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=-1.0).validate()
        with pytest.raises(ValueError):
            Constraint(cn.TRAFFIC_LANE, (0, 1), distance=1.0, vector=Vec2(0, 0)).validate()
        # the records divide by the squared norm, which underflows to 0
        tiny = Vec2(1e-300, 0)
        with pytest.raises(ValueError, match="nonzero vector"):
            Constraint(cn.TRAFFIC_LANE, (0, 1), distance=1.0, vector=tiny).validate()
        with pytest.raises(ValueError, match="nonzero vector"):
            Constraint(cn.FOCAL_SYMMETRY, (0, 1, 2), vector=tiny).validate()
        Constraint(cn.TRAFFIC_LANE, (0, 1), distance=1.0, vector=Vec2(1e-155, 0)).validate()
        Constraint(cn.FOCAL_SYMMETRY, (0, 1, 2), vector=Vec2(1e-155, 0)).validate()
        with pytest.raises(ValueError):
            Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0, weight=0.0).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, build", [
        ("distance", lambda v: Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=v)),
        ("height_gap", lambda v: Constraint(cn.STACKING, (0, 1), height_gap=v)),
        ("rate", lambda v: Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0, rate=v)),
        ("weight",
         lambda v: Constraint(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.0, weight=v)),
        ("angle_offset", lambda v: Constraint(cn.WALL_ORIENTATION, (0,), angle_offset=v)),
        ("angle_target", lambda v: Constraint(
            cn.PAIRWISE_ORIENTATION, (0, 1), orientation_mode=cn.ORIENT_FIXED, angle_target=v)),
        ("point", lambda v: Constraint(cn.HEAT_POINT, (0,), point=Vec2(1.0, v))),
        ("vector", lambda v: Constraint(
            cn.TRAFFIC_LANE, (0, 1), distance=1.0, vector=Vec2(v, 0.0))),
    ])
    def test_non_finite_number_rejected_by_name(self, field, build, value):
        build(1.0).validate()
        with pytest.raises(ValueError, match=rf"^\w+ {field} must be finite"):
            build(value).validate()

    def test_contact_kinds_have_no_record_projection(self):
        generated = {kind for kind, spec in cn.SPECS.items() if spec.generated}
        assert generated == {
            cn.ACCESSIBILITY, cn.COLLISION, cn.WALL_GHOST_COLLISION, cn.BOUNDARY, cn.GROUP_CURVE,
        }
        # the contact pass projects and prices the contact kinds itself
        for kind in generated - {cn.GROUP_CURVE}:
            spec = cn.SPECS[kind]
            assert spec.bind is None and spec.project is None and spec.violation is None

    def test_angular_never_positional_and_vice_versa(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            pi = tuple(rng.uniform(-3, 3, 2))
            pj = tuple(rng.uniform(-3, 3, 2))
            d = rng.uniform(0.1, 3)
            for *_, dtheta in corrections(
                project_pairwise_distance, 0, 1, *pi, *pj, 1.0, 1.0, d, 1.0,
            ):
                assert dtheta == 0.0
            for _, dx, dy, dz, _ in corrections(
                project_pairwise_orientation, 0, rng.uniform(0, 6), rng.uniform(0, 6), 1.0, 1.0,
            ):
                assert (dx, dy, dz) == (0.0, 0.0, 0.0)


class TestCurveAnchor:
    @pytest.mark.parametrize("style", ["arc", "seg"])
    def test_kept_world_curve_equals_a_fresh_transform(self, style):
        scene = scenes.theater2(style=style, pathways=1)
        ctx = SolveContext(scene)
        st = initialize(ctx, 3)
        attached = [
            (c.group_id, b.record)
            for c, b in zip(ctx.user_constraints, ctx.pricing)
            if c.kind == cn.GROUP_CURVE
        ]
        group_id = attached[0][0]
        first, second = [record for gid, record in attached if gid == group_id][:2]
        group = ctx.group_by_id[group_id]
        g = group.particle_index
        # the members of one group share one cache
        cache = ctx.world_curves[group_id]
        assert first[4] is cache and second[4] is cache

        def uncached(record):
            world = group.curve.transformed(Vec2(st.px[g], st.py[g]), st.theta[g])
            m = record[0]
            return closest_point_on_curve(world, (st.px[m], st.py[m]))

        assert cn._curve_anchor(first, st) == uncached(first)
        kept = cache[3]
        assert cn._curve_anchor(second, st) == uncached(second)
        assert cache[3] is kept
        # the group particle moves between two member projections
        st.px[g] += 0.75
        st.theta[g] += 0.3
        assert cn._curve_anchor(second, st) == uncached(second)
        assert cache[3] is not kept
        assert cn._curve_anchor(first, st) == uncached(first)
        # an equal value in a new float object transforms again
        kept = cache[3]
        st.py[g] = st.py[g] + 0.0
        assert cn._curve_anchor(first, st) == uncached(first)
        assert cache[3] is not kept


def _every_record_kind_scene() -> Scene:
    """Each kind with a record, in each variant its bind resolves, over
    particles of unequal mass: a fixed object, a rigid pair, a three-high
    pile and a segment-curve group."""
    scene = Scene(room=SQUARE)
    masses = [1.0, 2.0, 0.5, INFINITE, 3.0, 1.5, 1.0, 1.0, 2.0, 4.0]
    for i, mass in enumerate(masses):
        scene.particles.append(Particle(Vec2(5, 5), mass=mass))
        scene.objects.append(
            LayoutObject(id=f"o{i}", label="box", particle_index=i,
                         bbox=BoundingBox(Vec2(0.4, 0.3), 0.5))
        )
    scene.particles += [Particle(Vec2(5, 5), mass=2.5), Particle(Vec2(5, 5), mass=3.0)]
    scene.groups.append(Group(id="pair", particle_index=10, member_object_ids=("o6", "o7"),
                              member_offsets=((-0.5, 0, 0), (0.5, 0, 0.3))))
    scene.groups.append(Group(id="row", particle_index=11, member_object_ids=("o8", "o9"),
                              curve=Curve(Vec2(-2, 0), Vec2(2, 1))))
    mk = Constraint
    scene.constraints += [
        mk(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.5),
        mk(cn.PAIRWISE_DISTANCE, (1, 2), distance=2.0, relation=cn.INEQUALITY),
        mk(cn.PAIRWISE_DISTANCE, (6, 4), distance=1.0),
        mk(cn.FOCAL_POINT, (0, 4), distance=2.0),
        mk(cn.FOCAL_POINT, (2, 1), distance=3.0, relation=cn.INEQUALITY, pin_focal=False),
        mk(cn.FOCAL_POINT, (7, 5), distance=1.2, pin_focal=False),
        mk(cn.TRAFFIC_LANE, (1, 2), distance=1.0, vector=Vec2(1.0, 0.5)),
        mk(cn.TRAFFIC_LANE, (4, 0), distance=2.5, vector=Vec2(0.0, 2.0), pin_focal=False),
        mk(cn.HEAT_POINT, (0, 1, 2)),
        mk(cn.HEAT_POINT, (4, 5, 6), point=Vec2(3.0, 4.0)),
        mk(cn.FOCAL_SYMMETRY, (3, 0, 1, 7), vector=Vec2(0.3, 1.0)),
        mk(cn.VISUAL_BALANCE, (0, 1, 2, 6, 8)),
        mk(cn.WALL_DISTANCE, (5,), distance=0.5),
        mk(cn.WALL_DISTANCE, (2,), distance=1.0, relation=cn.INEQUALITY),
        mk(cn.PAIRWISE_ORIENTATION, (0, 1), orientation_mode=cn.ORIENT_FACE, angle_offset=0.2),
        mk(cn.PAIRWISE_ORIENTATION, (1, 2), orientation_mode=cn.ORIENT_MATCH, angle_offset=-0.4),
        mk(cn.PAIRWISE_ORIENTATION, (7, 3), orientation_mode=cn.ORIENT_FIXED, angle_target=1.1),
        mk(cn.WALL_ORIENTATION, (4,), angle_offset=math.pi / 2),
        mk(cn.STACKING, (4, 5), height_gap=1.0),
        mk(cn.STACKING, (5, 2), height_gap=0.8),
    ]
    return scene


def _reference_violation(c, st, scene) -> float:
    """The price of constraint ``c``, read from the constraint's own
    fields and the scene."""
    px, py, pz, theta = st.px, st.py, st.pz, st.theta
    p = c.particles

    def priced(C):
        return max(0.0, -C) if c.relation == cn.INEQUALITY else abs(C)

    def pull(members, weights, target):
        cx, cy, _ = cn.weighted_center(members, px, py, weights)
        return 0.5 * ((cx - target[0]) ** 2 + (cy - target[1]) ** 2)

    masses = [q.mass for q in scene.particles]
    if c.kind in (cn.PAIRWISE_DISTANCE, cn.FOCAL_POINT):
        i, j = p
        return priced(math.hypot(px[i] - px[j], py[i] - py[j]) - c.distance)
    if c.kind == cn.TRAFFIC_LANE:
        i, j = p
        (vx, vy), (xj, yj) = c.vector, (px[j], py[j])
        t = ((px[i] - xj) * vx + (py[i] - yj) * vy) / (vx * vx + vy * vy)
        return max(0.0, c.distance - math.hypot(px[i] - (xj + t * vx), py[i] - (yj + t * vy)))
    if c.kind == cn.HEAT_POINT:
        members, target = (p, c.point) if c.point else (p[1:], (px[p[0]], py[p[0]]))
        return pull(members, masses, target)
    if c.kind == cn.VISUAL_BALANCE:
        areas = [0.0] * len(px)
        for obj in scene.objects:
            areas[obj.particle_index] = obj.bbox.footprint_area
        return pull(p, areas, scene.room.centroid)
    if c.kind == cn.FOCAL_SYMMETRY:
        (vx, vy), (fx, fy) = c.vector, (px[p[0]], py[p[0]])
        cx, cy, _ = cn.weighted_center(p[1:], px, py, masses)
        t = max(0.0, ((cx - fx) * vx + (cy - fy) * vy) / (vx * vx + vy * vy))
        return 0.5 * ((cx - fx - t * vx) ** 2 + (cy - fy - t * vy) ** 2)
    if c.kind == cn.WALL_DISTANCE:
        (i,) = p
        q, _, _ = model.nearest_wall_point(scene.room, (px[i], py[i]))
        return priced(math.hypot(px[i] - q.x, py[i] - q.y) - c.distance)
    if c.kind == cn.PAIRWISE_ORIENTATION:
        i, j = p
        target = {
            cn.ORIENT_FACE: math.atan2(py[j] - py[i], px[j] - px[i]) + c.angle_offset,
            cn.ORIENT_MATCH: theta[j] + c.angle_offset,
            cn.ORIENT_FIXED: c.angle_target,
        }[c.orientation_mode]
        return abs(wrap_angle(target - theta[i]))
    if c.kind == cn.WALL_ORIENTATION:
        (i,) = p
        target = cn.wall_orientation_target(scene.room, (px[i], py[i]), theta[i], c.angle_offset)
        return abs(wrap_angle(target - theta[i]))
    if c.kind == cn.STACKING:
        bottom, top = p
        Cz = pz[top] - (pz[bottom] + c.height_gap)
        return math.sqrt(Cz * Cz + (px[top] - px[bottom]) ** 2 + (py[top] - py[bottom]) ** 2)
    assert c.kind == cn.GROUP_CURVE
    m, g = p
    curve = next(group.curve for group in scene.groups if group.id == c.group_id)
    ax, ay = closest_point_on_curve(curve.transformed(Vec2(px[g], py[g]), theta[g]), (px[m], py[m]))
    return math.hypot(px[m] - ax, py[m] - ay)


def _bits(corrs):
    return [(c[0], *map(float.hex, c[1:])) for c in corrs]


def _read_only(c, scene) -> set[int]:
    """The participants of constraint ``c`` that its projection must not
    write, read from the constraint's own fields and the scene: those of
    zero inverse mass (a rigid member's is its group's), a pinned focal
    or lane origin, a pile's base, and the participants that only set a
    target (an anchor, a focal, an orientation partner, a group)."""
    p = c.particles
    index = {obj.id: obj.particle_index for obj in scene.objects}
    owner = {index[m]: g.particle_index for g in scene.groups if g.rigid
             for m in g.member_object_ids}
    out = {i for i in p if scene.particles[owner.get(i, i)].fixed}
    stacked = {s.particles[1] for s in scene.constraints if s.kind == cn.STACKING}
    if c.kind in (cn.FOCAL_POINT, cn.TRAFFIC_LANE) and c.pin_focal:
        out.add(p[1])
    if c.kind == cn.STACKING and p[0] not in stacked:
        out.add(p[0])
    if c.kind == cn.FOCAL_SYMMETRY or (c.kind == cn.HEAT_POINT and c.point is None):
        out.add(p[0])
    if c.kind in (cn.PAIRWISE_ORIENTATION, cn.GROUP_CURVE):
        out.add(p[1])
    return out


def _random_state(rng, n):
    return LayoutState(rng.uniform(0, 10, n).tolist(), rng.uniform(0, 10, n).tolist(),
                       rng.uniform(0, 2, n).tolist(), rng.uniform(0, 2 * math.pi, n).tolist())


class TestBoundRecords:
    def test_every_kind_with_a_record_binds(self):
        for kind, spec in cn.SPECS.items():
            assert (spec.bind is None) == (spec.project is None) == (spec.violation is None)
            assert spec.generated or spec.bind is not None, kind

    def test_bound_projection_satisfies_its_own_violation(self):
        # at k=1 each record moves its participants onto its own price's
        # zero, writes nothing while priced at zero, and never writes a
        # participant it only reads
        scene = _every_record_kind_scene()
        ctx = SolveContext(scene)
        recorded = {k for k, spec in cn.SPECS.items() if spec.project is not None}
        assert {c.kind for c in ctx.user_constraints} == recorded
        rng = np.random.default_rng(12)
        n = len(scene.particles)
        satisfied, walls_kept = set(), 0
        for _ in range(60):
            st = _random_state(rng, n)
            for c, b in zip(ctx.user_constraints, ctx.pricing):
                corrs = corrections(b.project, b.record, st, 1.0, None)
                assert not {i for i, *_ in corrs} & _read_only(c, scene), c
                if b.violation(b.record, st) == 0.0:
                    satisfied.add(c.kind)
                    assert corrs == [], c
                moved = LayoutState(st.px, st.py, st.pz, st.theta)
                for i, dx, dy, dz, dtheta in corrs:
                    moved.px[i] += dx
                    moved.py[i] += dy
                    moved.pz[i] += dz
                    moved.theta[i] += dtheta
                if c.kind == cn.WALL_DISTANCE:
                    (i,) = c.particles
                    _, before, _ = model.nearest_wall_point(scene.room, (st.px[i], st.py[i]))
                    _, after, _ = model.nearest_wall_point(scene.room, (moved.px[i], moved.py[i]))
                    if before != after:
                        continue
                    walls_kept += 1
                assert b.violation(b.record, moved) < 1e-9, c
        # the inequalities were met satisfied, and most wall moves kept their wall
        assert satisfied >= {c.kind for c in ctx.user_constraints if c.relation == cn.INEQUALITY}
        assert walls_kept > 60

    def test_bound_violation_prices_what_the_constraint_says(self):
        # bit for bit: kinds that share a record (focal points and visual
        # balance) must still price their own fields
        scene = _every_record_kind_scene()
        ctx = SolveContext(scene)
        rng = np.random.default_rng(13)
        n = len(scene.particles)
        for _ in range(60):
            st = _random_state(rng, n)
            for c, b in zip(ctx.user_constraints, ctx.pricing):
                reference = _reference_violation(c, st, scene)
                assert b.violation(b.record, st).hex() == reference.hex(), c

    def test_every_public_kernel_runs_in_a_solve(self):
        # a public project_* kernel is called by the solver or by a record;
        # helpers that only tests would call have no place here
        def called(source, attribute_of=None):
            calls = set()
            for node in ast.walk(ast.parse(source)):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if attribute_of is None and isinstance(f, ast.Name):
                    calls.add(f.id)
                elif (attribute_of is not None and isinstance(f, ast.Attribute)
                      and isinstance(f.value, ast.Name) and f.value.id == attribute_of):
                    calls.add(f.attr)
            return calls

        by_solver = called(inspect.getsource(solver), attribute_of="cn")
        by_records = set()
        for spec in cn.SPECS.values():
            if spec.project is not None:
                by_records |= called(inspect.getsource(spec.project))
        public = {name for name in vars(cn) if name.startswith("project_")}
        assert {"project_pairwise_distance", "project_collision", "project_boundary"} <= public
        for name in sorted(public):
            assert name in by_solver or name in by_records, name


ARRAY_KINDS = {cn.PAIRWISE_DISTANCE, cn.FOCAL_POINT, cn.TRAFFIC_LANE, cn.PAIRWISE_ORIENTATION,
               cn.GROUP_CURVE}


def _array_kernel_scene(o: float) -> Scene:
    """Every variant of the kinds with an array kernel in an 8 m room at
    (o, o): both relations, pinned and unpinned focals and lane origins,
    the three orientation modes, and a segment group (particle 8) and an
    arc group (particle 9) whose arc sweeps the right half of the unit
    circle, from (0, -1) to (0, 1)."""
    scene = Scene(room=Room([Vec2(o, o), Vec2(o + 8, o), Vec2(o + 8, o + 8), Vec2(o, o + 8)]))
    for i in range(8):
        scene.particles.append(Particle(Vec2(o + 4, o + 4)))
        scene.objects.append(LayoutObject(id=f"o{i}", label="box", particle_index=i,
                                          bbox=BoundingBox(Vec2(0.2, 0.2), 0.5)))
    scene.particles += [Particle(Vec2(o + 4, o + 4)), Particle(Vec2(o + 4, o + 4))]
    scene.groups += [
        Group(id="row", particle_index=8, member_object_ids=("o4", "o5"),
              curve=Curve(Vec2(-2, 0), Vec2(2, 1))),
        Group(id="arc", particle_index=9, member_object_ids=("o6", "o7"),
              curve=Curve(Vec2(0, -1), Vec2(0, 1), center=Vec2(0, 0))),
    ]
    mk = Constraint
    scene.constraints += [
        mk(cn.PAIRWISE_DISTANCE, (0, 1), distance=1.5),
        mk(cn.PAIRWISE_DISTANCE, (1, 2), distance=2.0, relation=cn.INEQUALITY),
        mk(cn.FOCAL_POINT, (0, 3), distance=2.0),
        mk(cn.FOCAL_POINT, (2, 1), distance=3.0, relation=cn.INEQUALITY, pin_focal=False),
        mk(cn.TRAFFIC_LANE, (1, 2), distance=1.0, vector=Vec2(1.0, 0.5)),
        mk(cn.TRAFFIC_LANE, (3, 0), distance=2.5, vector=Vec2(0.0, 2.0), pin_focal=False),
        mk(cn.PAIRWISE_ORIENTATION, (0, 1), orientation_mode=cn.ORIENT_FACE, angle_offset=0.2),
        mk(cn.PAIRWISE_ORIENTATION, (1, 2), orientation_mode=cn.ORIENT_MATCH, angle_offset=-0.4),
        mk(cn.PAIRWISE_ORIENTATION, (3, 2), orientation_mode=cn.ORIENT_FIXED, angle_target=1.1),
    ]
    return scene


def _kernel_and_record_prices(ctx, st):
    """{kind: (its array kernel's prices, its scalar record's)} as hex
    strings, over the context's bound records of each kind."""
    px, py, theta = (np.array(a, dtype=float) for a in (st.px, st.py, st.theta))
    out = {}
    for kind in {b.kind for b in ctx.pricing}:
        spec = cn.SPECS[kind]
        records = [b.record for b in ctx.pricing if b.kind == kind]
        got = spec.violations(records)(st, px, py, theta)
        out[kind] = ([v.hex() for v in got.tolist()],
                     [spec.violation(r, st).hex() for r in records])
    return out


class TestArrayKernels:
    def test_the_wide_kinds_have_kernels(self):
        assert {k for k, spec in cn.SPECS.items() if spec.violations} == ARRAY_KINDS

    @pytest.mark.parametrize("offset", [0.0, 1e4, -1e4])
    def test_kernels_price_random_poses_as_the_records_do(self, offset):
        ctx = SolveContext(_array_kernel_scene(offset))
        assert {b.kind for b in ctx.pricing} == ARRAY_KINDS
        rng = np.random.default_rng(17)
        n = ctx.n
        for _ in range(300):
            st = LayoutState(rng.uniform(offset - 1, offset + 9, n).tolist(),
                             rng.uniform(offset - 1, offset + 9, n).tolist(), [0.0] * n,
                             rng.uniform(0, 2 * math.pi, n).tolist())
            for kind, (got, want) in _kernel_and_record_prices(ctx, st).items():
                assert got == want, kind

    @pytest.mark.parametrize("offset", [0.0, 1e4, -1e4])
    def test_kernels_price_degenerate_poses_as_the_records_do(self, offset):
        o = offset
        ctx = SolveContext(_array_kernel_scene(o))
        for member_7 in ((o + 3, o + 3.2), (o + 3, o + 4.8)):
            poses = [
                # 0 and 1 coincide, so the face target is undefined; both
                # lie on the lane axis from 2 along (1, 0.5)
                (o + 3.5, o + 3.25), (o + 3.5, o + 3.25), (o + 3, o + 3),
                # exactly the lane's clearance from the axis from 0 along y
                (o + 6, o + 4.25),
                # feet clamped at t=0 and t=1 of the segment (o+2, o+4)-(o+6, o+5)
                (o + 1, o + 3.5), (o + 7, o + 5.5),
                # off the arc's span, as far from one end as from the other,
                # then nearer the start or nearer the end
                (o + 3, o + 4), member_7,
                (o + 4, o + 4), (o + 4, o + 4),
            ]
            # the groups unturned, so each curve is its local one moved by (o+4, o+4)
            turns = [0.5] * 8 + [0.0, 0.0]
            st = LayoutState(*zip(*[(x, y, 0.0, th) for (x, y), th in zip(poses, turns)]))
            prices = _kernel_and_record_prices(ctx, st)
            for kind, (got, want) in prices.items():
                assert got == want, kind
            assert prices[cn.PAIRWISE_ORIENTATION][1][0] == (0.0).hex()
            assert prices[cn.TRAFFIC_LANE][1] == [(1.0).hex(), (0.0).hex()]
            # clamped feet and off-span members anchor at an endpoint; one
            # as far from both ends anchors at the start
            ends = [math.hypot(-1.0, -0.5), math.hypot(1.0, 0.5), math.hypot(-1.0, 1.0)]
            assert prices[cn.GROUP_CURVE][1][:3] == [v.hex() for v in ends]
