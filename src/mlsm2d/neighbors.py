"""k-nearest-neighbor support search over node positions.

Supports drive every stencil in the solver, so the search has to be exact
and deterministic: neighbors are ordered by distance, with ties broken by
the smaller node index. One batched kd-tree query gives each point enough
candidates to hold a square lattice's whole n-th distance shell, ranked by
exact distance and then index; rows whose tie group may still reach past
the last candidate query again with twice as many, until the cutoff is
clear or the whole cloud is in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .nodes import NodeSet

# Relative gap the n-th distance must keep below the last candidate's.
_TIE_EPS = 1e-9


@dataclass(frozen=True)
class SupportSet:
    """Stacked supports, one row per center node."""

    indices: np.ndarray  # (M, n) int32, each row starts with its center
    distances: np.ndarray  # (M, n), nondecreasing along rows


def _lattice_k(n: int) -> int:
    """Candidates that settle the tie check for n neighbors on a square lattice.

    One more than the first count of lattice points in a closed disc that
    is at least n (1, 5, 9, 13, 21, 25, ...), so the last candidate lies
    past the n-th neighbor's distance shell: 10 for n = 9, 22 for n = 15.
    """
    g = np.arange(-math.isqrt(n) - 1, math.isqrt(n) + 2)
    d2 = np.sort((g[:, None] ** 2 + g**2).ravel())
    return int(np.searchsorted(d2, d2[n - 1], side="right")) + 1


def knn(tree: cKDTree, points: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the n nearest points, ties by index.

    points is an (M, 2) array; the result has shape (M, n), indices in
    int32, distances nondecreasing along each row. Requires n >= 2 so that
    the near-neighbor distance p_min is defined.
    """
    N = tree.n
    if n < 2:
        raise ValueError(f"support size must be at least 2, got {n}")
    if n > N:
        raise ValueError(f"support size {n} exceeds point count {N}")
    pts = np.asarray(points, dtype=float)
    out_idx = np.empty((len(pts), n), dtype=np.int32)
    out_dist = np.empty((len(pts), n))

    x, y = tree.data[:, 0], tree.data[:, 1]
    rows = np.arange(len(pts))
    k = min(N, _lattice_k(n))
    while rows.size:
        p = pts[rows]
        _, idx = tree.query(p, k=k, workers=-1)
        # Index order first, so that a stable sort by distance ranks ties by index.
        idx.sort(axis=1)
        dx = x[idx] - p[:, 0, None]
        dy = y[idx] - p[:, 1, None]
        dist = np.sqrt(dx * dx + dy * dy)
        order = np.argsort(dist, axis=1, kind="stable")
        idx = np.take_along_axis(idx, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        out_idx[rows] = idx[:, :n]
        out_dist[rows] = dist[:, :n]
        # The kept prefix is exact unless its last tie group may reach past
        # the k-th candidate; such rows ask again for twice as many.
        rows = rows[(k < N) & (dist[:, n - 1] >= dist[:, -1] * (1.0 - _TIE_EPS))]
        k = min(N, 2 * k)
    return out_idx, out_dist


def build_supports(
    nodes: NodeSet | np.ndarray,
    n: int,
    tree: cKDTree | None = None,
    centers: np.ndarray | None = None,
) -> SupportSet:
    """Supports of size n for the center nodes (default: every node).

    Row r of the result is the support of node centers[r]; tree, if given,
    must be built over the same positions.
    """
    if tree is None:
        tree = cKDTree(nodes.positions if isinstance(nodes, NodeSet) else nodes)
    centers = np.arange(tree.n) if centers is None else np.asarray(centers, dtype=np.intp)
    idx, dist = knn(tree, tree.data[centers], n)
    if np.any(idx[:, 0] != centers):
        raise ValueError("a node is not its own nearest neighbor (coincident nodes?)")
    if np.any(dist[:, 1] <= 0.0):
        raise ValueError("zero near-neighbor distance (coincident nodes?)")
    return SupportSet(idx, dist)
