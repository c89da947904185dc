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
    """The per-particle Verlet list against an all-pairs oracle of what
    the narrow phase can find: a collision, or a particle within the
    other's zone reach."""

    def _setup(self, rng, n):
        # particle indices with gaps, as a scene's group particles leave
        total = n + int(rng.integers(0, 5))
        indices = sorted(int(i) for i in rng.choice(total, n, replace=False))
        radius = rng.uniform(0.05, 1.5, total)
        reach = np.where(rng.random(total) < 0.4, rng.uniform(0.2, 2.5, total), 0.0)
        owner = [int(g) if rng.random() < 0.3 else -1 for g in rng.integers(0, 5, total)]
        broad = radius[indices] + reach[indices]
        cell = 2.0 * float(np.sort(broad)[len(broad) // 2])
        nl = NeighbourList(list(radius), list(reach), owner, indices, cell)
        return nl, indices, radius, reach, owner, nl.skin

    @staticmethod
    def _interacting(px, py, radius, reach, indices):
        idx = np.asarray(indices)
        x, y, r, e = px[idx], py[idx], radius[idx], reach[idx]
        d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
        span = np.maximum(
            r[:, None] + r[None, :],
            np.maximum(r[:, None] + e[None, :], r[None, :] + e[:, None]),
        )
        ii, jj = np.where(np.triu(d2 <= span * span, k=1))
        return {(int(idx[a]), int(idx[b])) for a, b in zip(ii, jj)}

    def test_pairs_cover_every_interaction_across_refreshes(self):
        rng = np.random.default_rng(108)
        for _ in range(60):
            n = int(rng.integers(2, 201))
            nl, indices, radius, reach, owner, skin = self._setup(rng, n)
            size = len(radius)
            px = rng.uniform(0, 30, size)
            py = rng.uniform(0, 30, size)
            for _ in range(5):
                pairs = nl.refresh(list(px), list(py)).candidate_pairs()
                assert pairs == sorted(set(pairs)), "pairs unsorted or repeated"
                truth = self._interacting(px, py, radius, reach, indices)
                truth = {(i, j) for i, j in truth if owner[i] < 0 or owner[i] != owner[j]}
                missing = truth - set(pairs)
                assert not missing, f"list missed {len(missing)} pairs at n={n}"
                assert all(owner[i] < 0 or owner[i] != owner[j] for i, j in pairs)
                # most particles stray up to a hair under half the skin,
                # the rest up to three skins
                reach_half = 0.5 * skin * (1.0 - 1e-6)
                length = np.where(
                    rng.random(size) < 0.8,
                    rng.uniform(0, reach_half, size),
                    rng.uniform(reach_half, 3.0 * skin, size),
                )
                angle = rng.uniform(0, 2 * np.pi, size)
                px = px + length * np.cos(angle)
                py = py + length * np.sin(angle)

    def test_refresh_changes_only_the_movers_pairs(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            nl, indices, radius, reach, owner, skin = self._setup(rng, 120)
            px = list(rng.uniform(0, 20, len(radius)))
            py = list(rng.uniform(0, 20, len(radius)))
            before = list(nl.refresh(px, py).candidate_pairs())
            # moves under half the skin keep the list as it is
            nudged = [x + 0.49 * skin for x in px]
            assert nl.refresh(nudged, py).candidate_pairs() == before
            mover = int(rng.choice(indices))
            px[mover] += float(rng.uniform(0.51, 4.0)) * skin
            after = nl.refresh(px, py).candidate_pairs()
            assert after == sorted(after)
            changed = set(before) ^ set(after)
            assert all(mover in pair for pair in changed)
            truth = self._interacting(np.asarray(px), np.asarray(py), radius, reach, indices)
            assert {
                (i, j) for i, j in truth
                if mover in (i, j) and (owner[i] < 0 or owner[i] != owner[j])
            } <= set(after)


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
