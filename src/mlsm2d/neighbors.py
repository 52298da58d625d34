"""k-nearest-neighbor support search over node positions.

Supports drive every stencil in the solver, so the search has to be exact
and deterministic: neighbors are ordered by distance, with ties broken by
the smaller node index. A kd-tree provides candidates; ties at the cutoff
are resolved by re-ranking an inflated candidate ball.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .nodes import NodeSet

# Slack added to the k-th kd-tree distance when collecting tie candidates.
_TIE_EPS = 1e-9


@dataclass(frozen=True)
class Support:
    """Neighborhood of one center node, nearest first (the center itself)."""

    center: int
    indices: np.ndarray
    distances: np.ndarray

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def p_min(self) -> float:
        """Distance to the nearest support node other than the center."""
        return float(self.distances[1])


@dataclass(frozen=True)
class SupportSet:
    """Stacked supports for every node of a NodeSet."""

    indices: np.ndarray  # (N, n), row i starts with i
    distances: np.ndarray  # (N, n), nondecreasing along rows

    @property
    def n(self) -> int:
        return self.indices.shape[1]

    @property
    def p_min(self) -> np.ndarray:
        return self.distances[:, 1]

    def support(self, i: int) -> Support:
        return Support(i, self.indices[i].copy(), self.distances[i].copy())


class SpatialIndex:
    """kd-tree over a fixed set of node positions."""

    def __init__(self, positions: np.ndarray):
        self.positions = np.ascontiguousarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("positions must be an (N, 2) array")
        self.tree = cKDTree(self.positions)

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


def build_index(nodes: NodeSet | np.ndarray) -> SpatialIndex:
    positions = nodes.positions if isinstance(nodes, NodeSet) else nodes
    return SpatialIndex(positions)


def _exact_distances(index: SpatialIndex, p: np.ndarray, cand: np.ndarray) -> np.ndarray:
    d = index.positions[cand] - p
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def knn(index: SpatialIndex, p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the n nearest points to p, ties by index.

    Returns (indices, distances) with distances nondecreasing. Requires
    n >= 2 so that the near-neighbor distance p_min is defined.
    """
    if n < 2:
        raise ValueError(f"support size must be at least 2, got {n}")
    if n > index.n_points:
        raise ValueError(f"support size {n} exceeds point count {index.n_points}")
    p = np.asarray(p, dtype=float)

    d, _ = index.tree.query(p, k=n)
    cand = np.asarray(index.tree.query_ball_point(p, d[-1] * (1.0 + _TIE_EPS)), dtype=np.intp)
    dc = _exact_distances(index, p, cand)
    order = np.lexsort((cand, dc))[:n]
    return cand[order], dc[order]


def knn_support(index: SpatialIndex, center: int, n: int) -> Support:
    idx, dist = knn(index, index.positions[center], n)
    if idx[0] != center:
        raise ValueError(f"node {center} is not its own nearest neighbor (coincident nodes?)")
    return Support(center, idx, dist)


def build_supports(nodes: NodeSet | np.ndarray, n: int, index: SpatialIndex | None = None) -> SupportSet:
    """Supports of size n for every node, vectorized.

    The bulk path queries n + 1 candidates per node and sorts each row by
    (distance, index); rows where ties might straddle the cutoff, which
    the extra candidate detects, fall back to the exact per-node search.
    """
    index = index or build_index(nodes)
    N = index.n_points
    if n < 2:
        raise ValueError(f"support size must be at least 2, got {n}")
    if n > N:
        raise ValueError(f"support size {n} exceeds point count {N}")

    k = min(N, n + 1)
    _, idx = index.tree.query(index.positions, k=k)
    diff = index.positions[idx] - index.positions[:, None, :]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)

    order = np.lexsort((idx, dist), axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)

    out_idx = np.ascontiguousarray(idx[:, :n])
    out_dist = np.ascontiguousarray(dist[:, :n])

    if k > n:
        # A tie across the cutoff means the kept prefix may be wrong.
        unresolved = np.nonzero(dist[:, n - 1] >= dist[:, n] * (1.0 - _TIE_EPS))[0]
    else:
        unresolved = np.arange(0, 0)
    for i in unresolved:
        ii, dd = knn(index, index.positions[i], n)
        out_idx[i] = ii
        out_dist[i] = dd

    if np.any(out_idx[:, 0] != np.arange(N)):
        raise ValueError("a node is not its own nearest neighbor (coincident nodes?)")
    if np.any(out_dist[:, 1] <= 0.0):
        raise ValueError("zero near-neighbor distance (coincident nodes?)")
    return SupportSet(out_idx, out_dist)
