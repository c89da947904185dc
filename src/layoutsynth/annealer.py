"""Simulated-annealing baseline over the same scenes and energy.

The state search shifts one attribute of one movable object per step —
position or orientation, chosen 50/50 — and accepts with the Boltzmann
rule under a linear, evenly spaced temperature schedule. It shares the
projection solver's energy function so runs of the two optimizers are
directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import normalize_angle
from .model import Scene
from .solver import (
    EnergyTrace, LayoutState, Pose, SolveContext, check_count, check_seed, evaluate_energy,
    initialize, place_members,
)


# the schedule starts at 2% of the run's initial energy, which puts most
# of it in the productive acceptance regime instead of a random walk that
# freezes the best-so-far early
T_INITIAL_FRACTION = 0.02
T_FINAL = 1e-3
# early stop: the best energy improved by no more than STALL_THRESHOLD of
# itself over the trailing STALL_WINDOW proposals
STALL_WINDOW = 1500
STALL_THRESHOLD = 0.001
# position steps scale off the room diagonal; fine moves keep the search
# improving deep into the schedule instead of stalling at the window
SIGMA_POS_FRACTION = 0.01
SIGMA_THETA = math.radians(15.0)


@dataclass
class AnnealConfig:
    """The settings callers choose: the proposal budget and the seed.
    The temperature schedule, the stall stop and the proposal widths are
    the module constants above."""

    total_iterations: int = 20_000
    seed: int = 0

    def validate(self) -> None:
        check_count("total_iterations", self.total_iterations)
        check_seed(self.seed)


def _draw_move(
    state: LayoutState,
    ctx: SolveContext,
    sigma_pos: float,
    sigma_theta: float,
    rng: np.random.Generator,
) -> tuple[int, Pose, Pose]:
    """One proposal: a free particle (``ctx.free``), its pose and the
    pose proposed for it."""
    idx = ctx.free[int(rng.integers(len(ctx.free)))]
    pose = x, y, z, theta = state.px[idx], state.py[idx], state.pz[idx], state.theta[idx]
    if rng.random() < 0.5:
        x += rng.normal(0.0, sigma_pos)
        y += rng.normal(0.0, sigma_pos)
        if idx in ctx.stack_top:
            z += rng.normal(0.0, 0.5 * sigma_pos)
        # shifts that leave the room are rejected (stay put), which keeps
        # the proposal symmetric on the room's interior
        if not ctx.room.contains((x, y)):
            return idx, pose, pose
        return idx, pose, (x, y, z, theta)
    return idx, pose, (x, y, z, normalize_angle(theta + rng.normal(0.0, sigma_theta)))


def _apply_move(state: LayoutState, ctx: SolveContext, idx: int, pose: Pose) -> None:
    """Write a particle's whole pose and place its rigid members again."""
    state.px[idx], state.py[idx], state.pz[idx], state.theta[idx] = pose
    if idx in ctx.members_of:
        place_members(state, ctx, idx)


def accept(
    energy_current: float,
    energy_candidate: float,
    temperature: float,
    rng: np.random.Generator,
) -> bool:
    """Metropolis acceptance with the Boltzmann rule."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if energy_candidate <= energy_current:
        return True
    return rng.random() < math.exp(-(energy_candidate - energy_current) / temperature)


def _sigma_pos(ctx: SolveContext) -> float:
    min_x, min_y, max_x, max_y = ctx.room.bounds()
    return SIGMA_POS_FRACTION * math.hypot(max_x - min_x, max_y - min_y)


def run_sa_mcmc(
    scene: Scene, config: AnnealConfig | None = None
) -> tuple[list, EnergyTrace]:
    """Anneal a scene and return the best-seen layout and its trace.

    Early-stops when the best energy has improved by no more than the
    stall threshold (0.1%) over the trailing stall window.
    """
    config = config or AnnealConfig()
    config.validate()
    ctx = SolveContext(scene)
    seed = int(config.seed)  # a small numpy integer would overflow the mix
    rng = np.random.default_rng(seed ^ 0xA11EA1)
    state = initialize(ctx, seed)
    if not ctx.free:
        raise ValueError("scene has no movable objects")
    sigma_pos = _sigma_pos(ctx)

    energy, sums, _, _ = evaluate_energy(state, ctx)
    trace = EnergyTrace()
    trace.energies.append(energy)
    trace.violation_sums.append(sums)

    t_initial = max(T_INITIAL_FRACTION * energy if energy > 0.0 else 1.0, T_FINAL)
    temperatures = np.linspace(t_initial, T_FINAL, config.total_iterations)

    # (energy, iteration, poses) of the lowest-energy state seen
    best = (math.inf, 0, state.snapshot())
    best_history: list[float] = []

    for iteration in range(1, config.total_iterations + 1):
        idx, pose, proposed = _draw_move(state, ctx, sigma_pos, SIGMA_THETA, rng)
        _apply_move(state, ctx, idx, proposed)
        candidate_energy, candidate_sums, _, _ = evaluate_energy(state, ctx)
        if accept(energy, candidate_energy, float(temperatures[iteration - 1]), rng):
            energy = candidate_energy
            sums = candidate_sums
        else:
            _apply_move(state, ctx, idx, pose)
        trace.energies.append(energy)
        trace.violation_sums.append(sums)

        if energy < best[0]:
            best = (energy, iteration, state.snapshot())
        best_history.append(best[0])

        if iteration > STALL_WINDOW:
            then = best_history[iteration - 1 - STALL_WINDOW]
            if then - best[0] <= STALL_THRESHOLD * then:
                break

    trace.best_energy, trace.best_iteration, poses = best
    return poses, trace
