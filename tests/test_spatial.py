import numpy as np
import pytest

from layoutsynth.spatial import (
    NaiveIndex,
    NeighbourList,
    SpatialHash,
    candidate_pairs,
    rebuild,
)


def brute_force_overlaps(px, py, radii):
    """O(n^2) oracle, vectorized."""
    x = np.asarray(px)
    y = np.asarray(py)
    r = np.asarray(radii)
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    rsum = r[:, None] + r[None, :]
    hit = dx * dx + dy * dy < rsum * rsum
    ii, jj = np.where(np.triu(hit, k=1))
    return {(int(i), int(j)) for i, j in zip(ii, jj)}


def test_empty_index_is_quiet():
    grid = rebuild([], [], [])
    assert candidate_pairs(grid) == []


def test_distant_particles_produce_no_pairs():
    grid = rebuild([0.0, 500.0], [0.0, 0.0], [1.0, 1.0])
    assert candidate_pairs(grid) == []


def test_single_overlapping_pair_deduplicated():
    grid = rebuild([0.0, 1.0], [0.0, 0.0], [1.0, 1.0])
    assert candidate_pairs(grid) == [(0, 1)]


def test_candidates_cover_all_true_overlaps_random():
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        px = rng.uniform(0, 30, n)
        py = rng.uniform(0, 30, n)
        radii = rng.uniform(0.1, 1.5, n)
        grid = rebuild(px, py, radii)
        cands = set(candidate_pairs(grid))
        assert brute_force_overlaps(px, py, radii) <= cands


def test_clustered_blob_matches_brute_force():
    rng = np.random.default_rng(21)
    px = rng.normal(0, 0.5, 10)
    py = rng.normal(0, 0.5, 10)
    radii = np.full(10, 0.4)
    grid = rebuild(px, py, radii)
    assert brute_force_overlaps(px, py, radii) <= set(candidate_pairs(grid))


def test_determinism_of_candidate_order():
    rng = np.random.default_rng(22)
    px = rng.uniform(0, 10, 100)
    py = rng.uniform(0, 10, 100)
    radii = rng.uniform(0.1, 0.6, 100)
    a = candidate_pairs(rebuild(px, py, radii))
    b = candidate_pairs(rebuild(px, py, radii))
    assert a == b
    assert a == sorted(a)


def test_query_returns_superset_of_neighbors():
    # a probe circle inserted as particle 150 is paired with every
    # particle whose circle reaches it
    rng = np.random.default_rng(23)
    px = rng.uniform(0, 20, 150)
    py = rng.uniform(0, 20, 150)
    radii = rng.uniform(0.1, 0.8, 150)
    for _ in range(20):
        qx, qy, qr = rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.5, 3)
        pairs = set(candidate_pairs(rebuild([*px, qx], [*py, qy], [*radii, qr])))
        for i in range(150):
            if np.hypot(px[i] - qx, py[i] - qy) < qr + radii[i]:
                assert (i, 150) in pairs


def test_insert_covers_all_overlapped_cells():
    grid = SpatialHash(cell_size=1.0)
    grid.insert(0, 0.5, 0.5, 0.75)  # bounding box spans a 3x3 block
    assert sum(0 in bucket for bucket in grid.cells.values()) == 9
    assert grid.cells[(0, 0)] == [0]


def test_naive_index_is_sound_and_exhaustive():
    idx = NaiveIndex([3, 1, 7])
    assert idx.candidate_pairs() == [(1, 3), (1, 7), (3, 7)]


class TestNeighbourList:
    def _list(self, radii):
        cell = 2.0 * float(np.median(radii))
        skin = 0.25 * cell
        return NeighbourList(list(radii), range(len(radii)), cell, skin), skin

    def test_reused_pairs_cover_overlaps_after_moves_under_half_skin(self):
        rng = np.random.default_rng(108)
        for _ in range(200):
            n = int(rng.integers(2, 200))
            px0 = rng.uniform(0, 30, n)
            py0 = rng.uniform(0, 30, n)
            radii = rng.uniform(0.05, 1.5, n)
            nl, skin = self._list(radii)
            nl.refresh(list(px0), list(py0))
            built = nl.built
            for _ in range(3):
                # every particle strays up to a hair under half the skin
                # from its build position, many of them by the full amount
                reach = 0.5 * skin * (1.0 - 1e-6)
                length = np.where(rng.random(n) < 0.5, reach, rng.uniform(0, reach, n))
                angle = rng.uniform(0, 2 * np.pi, n)
                px = px0 + length * np.cos(angle)
                py = py0 + length * np.sin(angle)
                pairs = nl.refresh(list(px), list(py)).candidate_pairs()
                assert nl.built is built, "a move under half the skin rebuilt the list"
                assert pairs == sorted(pairs)
                truth = brute_force_overlaps(px, py, radii)
                missing = truth - set(pairs)
                assert not missing, f"reused list missed {len(missing)} pairs at n={n}"

    def test_move_past_half_skin_rebuilds(self):
        rng = np.random.default_rng(109)
        px = list(rng.uniform(0, 10, 40))
        py = list(rng.uniform(0, 10, 40))
        radii = rng.uniform(0.1, 0.8, 40)
        nl, skin = self._list(radii)
        first = nl.refresh(px, py).built
        px[17] += 0.51 * skin
        nl.refresh(px, py)
        assert nl.built is not first
        assert nl.built[17] == (px[17], py[17])
        grown = [r + 0.5 * skin for r in radii]
        assert nl.candidate_pairs() == candidate_pairs(rebuild(px, py, grown, cell_size=nl.cell_size))


def test_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialHash(0.0)


class TestGenerateCollisionConstraints:
    """The collision contacts ``generate_contacts`` finds through the
    solver's own broad phase."""

    def _scene(self, positions, half=0.5):
        from layoutsynth.geometry import Vec2
        from layoutsynth.model import BoundingBox, LayoutObject, Particle, Room, Scene

        scene = Scene(room=Room([Vec2(-50, -50), Vec2(50, -50), Vec2(50, 50), Vec2(-50, 50)]))
        for i, (x, y) in enumerate(positions):
            scene.particles.append(Particle(Vec2(x, y)))
            scene.objects.append(
                LayoutObject(id=f"o{i}", label="box", particle_index=i,
                             bbox=BoundingBox(Vec2(half, half), half))
            )
        return scene

    def _collisions(self, scene):
        from layoutsynth.solver import LayoutState, SolveContext, build_hash, generate_contacts

        ctx = SolveContext(scene)
        st = LayoutState(
            [p.position.x for p in scene.particles],
            [p.position.y for p in scene.particles],
            [p.z for p in scene.particles],
            [p.orientation for p in scene.particles],
        )
        collisions, activations, ghosts = generate_contacts(st, ctx, build_hash(st, ctx))
        assert activations == [] and ghosts == []
        return collisions

    def test_no_overlaps_empty(self):
        assert self._collisions(self._scene([(0, 0), (10, 0)])) == []

    def test_one_pair_ordered(self):
        assert self._collisions(self._scene([(0, 0), (1, 0)])) == [(0, 1)]

    def test_blob_matches_brute_force(self):
        import math

        rng = np.random.default_rng(30)
        positions = rng.normal(0, 0.8, size=(10, 2))
        pairs = self._collisions(self._scene([tuple(p) for p in positions]))
        assert pairs == sorted(pairs)
        radius = 0.5 * math.sqrt(2.0)
        truth = brute_force_overlaps(positions[:, 0], positions[:, 1], [radius] * 10)
        assert set(pairs) == truth
