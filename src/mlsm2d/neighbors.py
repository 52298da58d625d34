"""k-nearest-neighbor support search over node positions.

Supports drive every stencil in the solver, so the search has to be exact
and deterministic: neighbors are ordered by distance, with ties broken by
the smaller node index. One batched kd-tree query gives each point n + 1
candidates, ranked by exact distance and then index; rows whose tie group
may reach past the last candidate (common on lattices) query again with
twice as many, until the cutoff is clear or the whole cloud is in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .nodes import NodeSet

# Relative gap the n-th distance must keep below the last candidate's.
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
    """Stacked supports, one row per center node."""

    indices: np.ndarray  # (M, n), each row starts with its center
    distances: np.ndarray  # (M, n), nondecreasing along rows

    @property
    def n(self) -> int:
        return self.indices.shape[1]

    @property
    def p_min(self) -> np.ndarray:
        return self.distances[:, 1]


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


def knn(index: SpatialIndex, points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the n nearest points, ties by index.

    points is one (2,) point or an (M, 2) array of them; the result has
    shape (n,) or (M, n) to match, distances nondecreasing along each row.
    Requires n >= 2 so that the near-neighbor distance p_min is defined.
    """
    N = index.n_points
    if n < 2:
        raise ValueError(f"support size must be at least 2, got {n}")
    if n > N:
        raise ValueError(f"support size {n} exceeds point count {N}")
    points = np.asarray(points, dtype=float)
    pts = np.atleast_2d(points)
    out_idx = np.empty((len(pts), n), dtype=np.intp)
    out_dist = np.empty((len(pts), n))

    rows = np.arange(len(pts))
    k = min(N, n + 1)
    while rows.size:
        p = pts[rows]
        _, idx = index.tree.query(p, k=k)
        d = index.positions[idx] - p[:, None, :]
        dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        order = np.lexsort((idx, dist), axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        out_idx[rows] = idx[:, :n]
        out_dist[rows] = dist[:, :n]
        # The kept prefix is exact unless its last tie group may reach past
        # the k-th candidate; such rows ask again for twice as many.
        rows = rows[(k < N) & (dist[:, n - 1] >= dist[:, -1] * (1.0 - _TIE_EPS))]
        k = min(N, 2 * k)
    if points.ndim == 1:
        return out_idx[0], out_dist[0]
    return out_idx, out_dist


def knn_support(index: SpatialIndex, center: int, n: int) -> Support:
    idx, dist = knn(index, index.positions[center], n)
    if idx[0] != center:
        raise ValueError(f"node {center} is not its own nearest neighbor (coincident nodes?)")
    return Support(center, idx, dist)


def build_supports(
    nodes: NodeSet | np.ndarray,
    n: int,
    index: SpatialIndex | None = None,
    centers: np.ndarray | None = None,
) -> SupportSet:
    """Supports of size n for the center nodes (default: every node).

    Row r of the result is the support of node centers[r].
    """
    index = index or build_index(nodes)
    centers = np.arange(index.n_points) if centers is None else np.asarray(centers, dtype=np.intp)
    idx, dist = knn(index, index.positions[centers], n)
    if np.any(idx[:, 0] != centers):
        raise ValueError("a node is not its own nearest neighbor (coincident nodes?)")
    if np.any(dist[:, 1] <= 0.0):
        raise ValueError("zero near-neighbor distance (coincident nodes?)")
    return SupportSet(idx, dist)
