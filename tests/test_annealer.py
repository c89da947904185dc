import math

import numpy as np
import pytest

from layoutsynth import scenes
from layoutsynth.annealer import (
    AnnealConfig,
    SIGMA_THETA,
    _apply_move,
    _draw_move,
    _sigma_pos,
    accept,
    run_sa_mcmc,
)
from layoutsynth.geometry import Vec2, normalize_angle
from layoutsynth.model import BoundingBox, Group, LayoutObject, Particle, Room, Scene
from layoutsynth.solver import LayoutState, SolveContext, initialize


def one_box_scene(side=100.0):
    scene = Scene(room=Room([Vec2(0, 0), Vec2(side, 0), Vec2(side, side), Vec2(0, side)]))
    scene.particles.append(Particle(Vec2(side / 2, side / 2)))
    scene.objects.append(
        LayoutObject(id="box", label="box", particle_index=0, bbox=BoundingBox(Vec2(0.5, 0.5), 0.5))
    )
    return scene


def propose(state, ctx, sigma_pos, rng):
    """The candidate run_sa_mcmc would price: one drawn move applied to
    a copy of the state."""
    idx, _, new = _draw_move(state, ctx, sigma_pos, SIGMA_THETA, rng)
    candidate = LayoutState(state.px, state.py, state.pz, state.theta)
    _apply_move(candidate, ctx, idx, new)
    return candidate


class TestPropose:
    def test_single_object_always_chosen(self):
        scene = one_box_scene()
        ctx = SolveContext(scene)
        state = initialize(ctx, 0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            candidate = propose(state, ctx, _sigma_pos(ctx), rng)
            changed = (
                candidate.px[0] != state.px[0]
                or candidate.py[0] != state.py[0]
                or candidate.theta[0] != state.theta[0]
            )
            assert changed

    def test_exactly_one_attribute_changes(self):
        scene = scenes.living_room()
        ctx = SolveContext(scene)
        state = initialize(ctx, 1)
        rng = np.random.default_rng(1)
        for _ in range(200):
            candidate = propose(state, ctx, _sigma_pos(ctx), rng)
            pos_changes = sum(
                (candidate.px[i], candidate.py[i]) != (state.px[i], state.py[i])
                for i in range(len(state.px))
            )
            theta_changes = sum(
                candidate.theta[i] != state.theta[i] for i in range(len(state.theta))
            )
            assert pos_changes + theta_changes == 1

    def test_empirical_position_sigma(self):
        scene = one_box_scene(side=1000.0)  # huge room: no boundary rejections
        ctx = SolveContext(scene)
        state = initialize(ctx, 2)
        rng = np.random.default_rng(2)
        deltas = []
        for _ in range(100_000):
            candidate = propose(state, ctx, 0.5, rng)
            if candidate.px[0] != state.px[0] or candidate.py[0] != state.py[0]:
                deltas.append(candidate.px[0] - state.px[0])
        sd = float(np.std(deltas))
        assert sd == pytest.approx(0.5, rel=0.02)

    def test_out_of_room_shift_is_rejected_in_place(self):
        scene = one_box_scene(side=2.0)
        ctx = SolveContext(scene)
        state = LayoutState([0.05], [1.0], [0.0], [0.0])
        rng = np.random.default_rng(3)
        stayed = 0
        for _ in range(200):
            candidate = propose(state, ctx, 50.0, rng)  # almost every shift exits
            if (candidate.px[0], candidate.py[0]) == (state.px[0], state.py[0]):
                stayed += 1
            else:
                assert ctx.room.contains((candidate.px[0], candidate.py[0]))
        assert stayed > 50

    def test_rigid_members_not_directly_movable(self):
        scene = scenes.tp_bedroom()
        ctx = SolveContext(scene)
        movable = set(ctx.free)
        for i in range(ctx.n):
            if ctx.owner[i] >= 0:
                assert i not in movable
        for group in scene.groups:
            assert group.particle_index in movable

    def test_members_never_store_a_full_turn(self):
        # (0.0 - 1e-17) % (2 pi) rounds to exactly 2 pi; every stored
        # orientation lies in [0, 2 pi)
        scene = one_box_scene()
        scene.particles.append(Particle(Vec2(50.0, 50.0)))
        scene.groups.append(Group(id="g", particle_index=1, member_object_ids=("box",),
                                  member_offsets=((0.0, 0.0, -1e-17),)))
        ctx = SolveContext(scene)
        state = initialize(ctx, 0)
        _apply_move(state, ctx, 1, (50.0, 50.0, 0.0, 0.0))
        assert state.theta[0] == 0.0


class TestAccept:
    def test_downhill_always(self):
        rng = np.random.default_rng(4)
        assert accept(5.0, 4.0, 0.1, rng)
        assert accept(5.0, 5.0, 0.1, rng)

    def test_boltzmann_rate_at_delta_equals_temperature(self):
        rng = np.random.default_rng(5)
        hits = sum(accept(1.0, 2.0, 1.0, rng) for _ in range(100_000))
        assert hits / 100_000 == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_cold_limit_rejects(self):
        rng = np.random.default_rng(6)
        assert not any(accept(1.0, 1.5, 1e-9, rng) for _ in range(1000))

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            accept(1.0, 2.0, 0.0, np.random.default_rng(0))


class TestRun:
    def test_pre_satisfied_early_stops_at_window_plus_one(self):
        # an unconstrained single object: energy is identically zero
        scene = one_box_scene()
        _, trace = run_sa_mcmc(scene, AnnealConfig(seed=0))
        # rows: initial + 1501 iterations
        assert len(trace.energies) == 1 + 1501
        assert trace.best_energy == 0.0

    def test_same_seed_identical_trajectory(self):
        scene = scenes.desk()
        layout1, t1 = run_sa_mcmc(scene, AnnealConfig(seed=9, total_iterations=3000))
        layout2, t2 = run_sa_mcmc(scene, AnnealConfig(seed=9, total_iterations=3000))
        assert t1.energies == t2.energies
        assert layout1 == layout2

    def test_best_trace_monotone_nonincreasing(self):
        scene = scenes.living_room()
        _, trace = run_sa_mcmc(scene, AnnealConfig(seed=3, total_iterations=4000))
        best = math.inf
        bests = []
        for e in trace.energies:
            best = min(best, e)
            bests.append(best)
        assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))
        assert trace.best_energy == pytest.approx(bests[-1])

    def test_layout_matches_best_energy(self):
        from layoutsynth.solver import evaluate_energy

        scene = scenes.living_room()
        layout, trace = run_sa_mcmc(scene, AnnealConfig(seed=5, total_iterations=3000))
        ctx = SolveContext(scene)
        st = LayoutState(
            [p[0] for p in layout], [p[1] for p in layout],
            [p[2] for p in layout], [p[3] for p in layout],
        )
        energy, _, _, _ = evaluate_energy(st, ctx)
        assert energy == pytest.approx(trace.best_energy, abs=1e-9)

    def test_rigid_members_follow_their_moved_group(self):
        scene = scenes.tp_bedroom()
        ctx = SolveContext(scene)
        start = initialize(ctx, 0)
        layout, _ = run_sa_mcmc(scene, AnnealConfig(seed=0, total_iterations=300))
        assert len(ctx.members_of) == 3
        for g, rows in ctx.members_of.items():
            gx, gy, _, gth = layout[g]
            assert (gx, gy, gth) != (start.px[g], start.py[g], start.theta[g])
            c, s = math.cos(gth), math.sin(gth)
            for m, (dx, dy, dth) in rows:
                x, y, _, theta = layout[m]
                assert (x, y, theta) == (
                    gx + c * dx - s * dy, gy + s * dx + c * dy, normalize_angle(gth + dth)
                )


@pytest.mark.slow
def test_flat_energy_walk_is_uniform_over_room():
    # detailed balance smoke test: one object, no constraints, fixed
    # temperature; the visited positions should be uniform over the room
    scene = one_box_scene(side=8.0)
    scene.collisions_enabled = False
    ctx = SolveContext(scene)
    state = initialize(ctx, 11)
    rng = np.random.default_rng(11)
    from layoutsynth.annealer import _apply_move, _draw_move

    counts = np.zeros((8, 8))
    sigma = 2.0
    for step_index in range(1_000_000):
        idx, _, new = _draw_move(state, ctx, sigma, 0.3, rng)
        _apply_move(state, ctx, idx, new)  # flat energy: accept all
        # chi-square needs near-independent samples, so thin the chain
        if step_index % 25 == 0:
            counts[min(7, int(state.px[0])), min(7, int(state.py[0]))] += 1
    expected = counts.sum() / 64.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # 63 degrees of freedom; 1e-4 critical value ~ 124
    assert chi2 < 124.0
