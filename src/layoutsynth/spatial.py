"""Uniform-grid spatial hash for broad-phase pair generation.

Candidate pairs never miss a truly overlapping pair (cells cover each
circle's full extent) and always come in a deterministic order.
A ``NeighbourList`` (Verlet, Phys. Rev. 159, 1967) builds the hash with
inflated extents and reuses its candidate pairs until some particle has
moved far enough to reach a pair the build could not see.
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
    broad phase against the O(n^2) baseline."""

    def __init__(self, indices):
        self.indices = sorted(indices)

    def candidate_pairs(self) -> list[tuple[int, int]]:
        idx = self.indices
        return [(idx[a], idx[b]) for a in range(len(idx)) for b in range(a + 1, len(idx))]


class NeighbourList:
    """Candidate pairs of a hash built with every radius grown by half a
    skin, reused while no particle has strayed half a skin from its build
    position.

    Two circles that overlap now were, at the build, at most their radius
    sum plus one skin apart, so their grown circles met and shared a
    cell. The reused pairs are therefore a sorted superset of the pairs
    a fresh hash would hit, and a narrow phase that walks them in order
    finds the same contacts in the same order.
    """

    def __init__(self, radii, indices, cell_size: float, skin: float):
        self.indices = sorted(indices)
        self.radii = [r + 0.5 * skin for r in radii]
        self.cell_size = cell_size
        # a hair under half the skin absorbs rounding in the displacement
        limit = 0.5 * skin * (1.0 - 1e-9)
        self.limit_sq = limit * limit
        self.built: list[tuple[float, float]] | None = None
        self.pairs: list[tuple[int, int]] = []

    def refresh(self, px, py) -> "NeighbourList":
        """Rebuild the pairs if some particle has moved too far since the
        last build."""
        built = self.built
        if built is not None:
            limit_sq = self.limit_sq
            for i, (bx, by) in zip(self.indices, built):
                dx = px[i] - bx
                dy = py[i] - by
                if dx * dx + dy * dy > limit_sq:
                    break
            else:
                return self
        grid = rebuild(px, py, self.radii, self.indices, self.cell_size)
        self.pairs = grid.candidate_pairs()
        self.built = [(px[i], py[i]) for i in self.indices]
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
