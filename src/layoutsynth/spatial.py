"""Uniform-grid spatial hash for broad-phase pair generation.

Candidate pairs never miss a truly overlapping pair (cells cover each
circle's full extent) and always come in a deterministic order.
A ``NeighbourList`` (Verlet, Phys. Rev. 159, 1967) keeps, per particle,
only the pairs within collision or zone reach plus a skin of where the
two were last bucketed; each refresh re-buckets only the particles that
have strayed half a skin and recomputes only their pairs.
"""

from __future__ import annotations

import math
from collections import defaultdict


class SpatialHash:
    """Maps integer grid cells to the particles whose bounding circles
    overlap them."""

    def __init__(self, cell_size: float):
        if not cell_size > 0.0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self.cells: dict[tuple[int, int], list[int]] = defaultdict(list)

    def insert(self, index: int, x: float, y: float, r: float) -> None:
        inv = 1.0 / self.cell_size
        y0 = math.floor((y - r) * inv)
        y1 = math.floor((y + r) * inv)
        for cx in range(math.floor((x - r) * inv), math.floor((x + r) * inv) + 1):
            for cy in range(y0, y1 + 1):
                self.cells[(cx, cy)].append(index)

    def candidate_pairs(self) -> list[tuple[int, int]]:
        return candidate_pairs(self)


class NaiveIndex:
    """All-pairs stand-in for the spatial hash, for benchmarking the
    broad phase against the O(n^2) baseline. It answers ``refresh`` as a
    ``NeighbourList`` does, so a solve walks either through one
    interface; its pairs never depend on the positions."""

    def __init__(self, indices):
        self.indices = sorted(indices)

    def refresh(self, px, py) -> "NaiveIndex":
        return self

    def candidate_pairs(self) -> list[tuple[int, int]]:
        idx = self.indices
        return [(idx[a], idx[b]) for a in range(len(idx)) for b in range(a + 1, len(idx))]


class NeighbourList:
    """Per-particle Verlet list: the pairs that can meet while no particle
    strays half a skin from where it was last bucketed.

    A pair is kept when its two particles are in different rigid groups
    (``owner`` -1 is no group) and their centres, each at the position
    where it was last bucketed, lie closer than
    ``max(r_i + r_j, r_i + reach_j, r_j + reach_i)`` plus one skin: the
    reach of a collision and of either particle's accessibility zones.
    A refresh re-buckets only the particles that have strayed half a skin
    and recomputes only the pairs that touch them.

    After a refresh every particle lies within half a skin of its bucket
    position, so two particles that collide or reach a zone now were, at
    their bucketing, less than that reach plus one skin apart. The pairs
    are therefore a sorted superset of the pairs that interact, and a
    narrow phase that walks them in order finds the same contacts in the
    same order as one that walks all pairs.

    The skin is a quarter of the cell size. The solver's cell is at
    least twice the median broad radius, so the skin is at least half
    that radius: settle sweeps and late steps move most objects far less
    than that, so a refresh re-buckets only the few that strayed.
    """

    def __init__(self, radius, reach, owner, indices, cell_size: float):
        self.indices = sorted(indices)
        self.radius = radius
        self.reach = reach
        self.owner = owner
        self.skin = skin = 0.25 * cell_size
        self.inv_cell = 1.0 / cell_size
        size = self.indices[-1] + 1 if self.indices else 0
        # a hair under half the skin absorbs rounding in the displacement
        limit = 0.5 * skin * (1.0 - 1e-9)
        self.limit_sq = limit * limit
        # unbucketed particles sit at infinity: each strays at its first
        # refresh, and none pairs before it has been bucketed
        self.bucket_x = [math.inf] * size
        self.bucket_y = [math.inf] * size
        self.cells: dict[tuple[int, int], set[int]] = defaultdict(set)
        self.cells_of: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        self.pairs: list[tuple[int, int]] = []

    def refresh(self, px, py) -> "NeighbourList":
        """Re-bucket the particles that have strayed half a skin (all of
        them at the first refresh) and recompute the pairs touching them."""
        bucket_x, bucket_y, limit_sq = self.bucket_x, self.bucket_y, self.limit_sq
        movers = []
        for i in self.indices:
            dx = px[i] - bucket_x[i]
            dy = py[i] - bucket_y[i]
            if dx * dx + dy * dy > limit_sq:
                movers.append(i)
        if not movers:
            return self
        moved = set(movers)
        radius, reach, owner, skin = self.radius, self.reach, self.owner, self.skin
        cells, cells_of, inv = self.cells, self.cells_of, self.inv_cell
        for i in movers:
            for key in cells_of[i]:
                cells[key].discard(i)
            x = bucket_x[i] = px[i]
            y = bucket_y[i] = py[i]
            # two particles within reach of each other have overlapping
            # circles grown by their reach and half a skin, so their
            # bounding boxes share a cell
            e = radius[i] + reach[i] + 0.5 * skin
            y0 = math.floor((y - e) * inv)
            y1 = math.floor((y + e) * inv)
            keys = [
                (cx, cy)
                for cx in range(math.floor((x - e) * inv), math.floor((x + e) * inv) + 1)
                for cy in range(y0, y1 + 1)
            ]
            for key in keys:
                cells[key].add(i)
            cells_of[i] = keys

        pairs = [p for p in self.pairs if p[0] not in moved and p[1] not in moved]
        for i in movers:
            xi, yi, ri, ei, oi = bucket_x[i], bucket_y[i], radius[i], reach[i], owner[i]
            for j in set().union(*[cells[key] for key in cells_of[i]]):
                # a pair of two movers is found from its lower index
                if j == i or (j < i and j in moved) or (oi >= 0 and owner[j] == oi):
                    continue
                rj = radius[j]
                span = max(ri + rj, ri + reach[j], rj + ei) + skin
                dx = xi - bucket_x[j]
                dy = yi - bucket_y[j]
                if dx * dx + dy * dy < span * span:
                    pairs.append((i, j) if i < j else (j, i))
        # the kept pairs are one sorted run, so the sort merges the new in
        pairs.sort()
        self.pairs = pairs
        return self

    def candidate_pairs(self) -> list[tuple[int, int]]:
        return self.pairs


def rebuild(px, py, radii, indices=None, cell_size=None) -> SpatialHash:
    """Fresh index over the given particles.

    Each particle covers every cell its circle's bounding box overlaps,
    so two circles whose boxes intersect always share a cell regardless
    of the cell size; the default size of twice the largest radius keeps
    buckets small.
    """
    if indices is None:
        indices = range(len(px))
    indices = list(indices)
    if cell_size is None:
        cell_size = 2.0 * max((radii[i] for i in indices), default=1.0)
    grid = SpatialHash(max(cell_size, 1e-6))
    for i in indices:
        grid.insert(i, px[i], py[i], radii[i])
    return grid


def candidate_pairs(grid: SpatialHash) -> list[tuple[int, int]]:
    """All same-cell index pairs (i < j), deduplicated, sorted."""
    pairs: set[tuple[int, int]] = set()
    for bucket in grid.cells.values():
        n = len(bucket)
        if n < 2:
            continue
        for a in range(n):
            ia = bucket[a]
            for b in range(a + 1, n):
                ib = bucket[b]
                if ia < ib:
                    pairs.add((ia, ib))
                elif ib < ia:
                    pairs.add((ib, ia))
    return sorted(pairs)
