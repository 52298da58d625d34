"""Node relaxation: local repulsive smoothing of interior nodes.

Each interior node is pushed down the gradient of a Gaussian potential
summed over its nearest neighbors, which drives clustered nodes apart and
evens out local spacing. Boundary nodes never move; interior nodes that
would escape the domain are pulled back just inside along their step.
All nodes move simultaneously per sweep (Jacobi style), so the result does
not depend on node ordering.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .nodes import NodeSet
from .parallel import _split_rows

# Sweeps of a relaxation run.
ITERATIONS = 20
# Move per sweep, dimensionless: the actual step is STEP * p_min^2 times the
# potential gradient, so it shrinks with the local spacing.
STEP = 0.05
# Gaussian width in units of p_min.
SIGMA = 1.0
# Nodes in the potential, excluding the node itself: the complete first
# shell of a grid, so a uniform grid is an exact fixed point (an odd count
# would grab one arbitrary member of the tied 2h shell and drift).
NEIGHBORS = 8
# Fraction of the local spacing kept clear of the boundary when a step is
# clamped.
_ESCAPE_MARGIN = 1e-3


def relax_offset(p: np.ndarray, support_positions: np.ndarray) -> np.ndarray:
    """Displacement of nodes given their neighbor positions (excluding p).

    p is an (M, 2) batch with (M, k, 2) neighbors; the result is (M, 2).
    Computes -step_eff * sum_i grad w(p - p_i) with a Gaussian w of width
    SIGMA * p_min, where p_min is the distance to the closest neighbor and
    step_eff = STEP * p_min^2. The offset points away from the neighbors.
    """
    p = np.asarray(p, dtype=float)
    nbrs = np.asarray(support_positions, dtype=float)
    diff = p[:, None, :] - nbrs
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    if np.any(d2 == 0.0):
        raise ValueError("coincident support node in relaxation")
    p_min2 = d2.min(axis=1)
    c2 = SIGMA * SIGMA * p_min2
    g = np.exp(-d2 / c2[:, None])
    grad = -2.0 / c2[:, None] * (diff * g[..., None]).sum(axis=1)
    return -STEP * p_min2[:, None] * grad


def relax(nodes: NodeSet, iterations: int = ITERATIONS) -> NodeSet:
    """Run Jacobi relaxation sweeps over the interior nodes.

    Returns a new NodeSet; the input is left untouched. Interior nodes that
    would step outside the domain are clamped to sit just inside the
    boundary crossing, by _ESCAPE_MARGIN of their nearest-neighbor distance
    in the input cloud. Each sweep builds one kd-tree, then queries it and
    computes the offsets with the rows split between two threads by
    parallel._split_rows.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    positions = nodes.positions.copy()
    interior = np.nonzero(nodes.interior_mask)[0]
    if interior.size == 0 or iterations == 0:
        return nodes.replace(positions=positions)

    k = min(NEIGHBORS + 1, nodes.n)
    spacing = cKDTree(positions).query(positions[interior], k=2)[0][:, 1]
    for _ in range(iterations):
        tree = cKDTree(positions)
        start = positions[interior]

        def offsets_of(lo, hi):
            _, idx = tree.query(start[lo:hi], k=k)
            # Drop the self column (distance zero, first after sorting).
            return relax_offset(start[lo:hi], positions[idx[:, 1:]])

        offsets = _split_rows(offsets_of, len(start))
        proposed = start + offsets
        sd = nodes.domain.signed_distance(proposed)
        escaped = np.nonzero(sd >= 0.0)[0]
        if escaped.size:
            proposed[escaped] = _clamp_step(nodes.domain, start[escaped], offsets[escaped], spacing[escaped])
        positions[interior] = proposed

    out = nodes.replace(positions=positions)
    out.finalize()
    return out


def _clamp_step(domain, start: np.ndarray, offset: np.ndarray, spacing: np.ndarray) -> np.ndarray:
    """Shorten escaping steps, one per row, to end just inside the boundary."""
    lo = np.zeros(len(start))
    hi = np.ones(len(start))
    # Each start is strictly inside, start + offset is not (so the offset is
    # nonzero): bisect the crossing.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = domain.signed_distance(start + mid[:, None] * offset) < 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    # Row-wise dot products, summed as np.linalg.norm sums a single row.
    step = np.sqrt(offset[:, None, :] @ offset[:, :, None]).ravel()
    back = _ESCAPE_MARGIN * spacing / step
    candidate = start + np.maximum(lo - back, 0.0)[:, None] * offset
    stays = domain.signed_distance(candidate) < 0.0
    return np.where(stays[:, None], candidate, start)
