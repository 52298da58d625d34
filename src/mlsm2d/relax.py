"""Node relaxation: local repulsive smoothing of interior nodes.

Each interior node is pushed down the gradient of a Gaussian potential
summed over its nearest neighbors, which drives clustered nodes apart and
evens out local spacing. Boundary nodes never move; interior nodes that
would escape the domain are pulled back just inside along their step.
All nodes move simultaneously per sweep (Jacobi style), so the result does
not depend on node ordering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .nodes import NodeSet

# Fraction of the local spacing kept clear of the boundary when a step is
# clamped.
_ESCAPE_MARGIN = 1e-3


@dataclass(frozen=True)
class RelaxConfig:
    """Parameters of the relaxation sweep.

    step scales the move per sweep (dimensionless; the actual step is
    step * p_min^2 times the potential gradient, so it shrinks with the
    local spacing). neighbors counts the nodes in the potential, excluding
    the node itself; the default 8 is the complete first shell of a grid,
    so a uniform grid is an exact fixed point (an odd count would grab one
    arbitrary member of the tied 2h shell and drift). sigma is the
    Gaussian width in units of p_min.
    """

    iterations: int = 20
    step: float = 0.05
    neighbors: int = 8
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be nonnegative, got {self.iterations}")
        if self.step < 0:
            raise ValueError(f"step must be nonnegative, got {self.step}")
        if self.neighbors < 2:
            raise ValueError(f"neighbors must be at least 2, got {self.neighbors}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def relax_offset(p: np.ndarray, support_positions: np.ndarray, config: RelaxConfig = RelaxConfig()) -> np.ndarray:
    """Displacement of nodes given their neighbor positions (excluding p).

    p is one (2,) point with (k, 2) neighbors or an (M, 2) batch with
    (M, k, 2) neighbors; the result matches p in shape. Computes
    -step_eff * sum_i grad w(p - p_i) with a Gaussian w of width
    sigma * p_min, where p_min is the distance to the closest neighbor and
    step_eff = step * p_min^2. The offset points away from the neighbors.
    """
    p = np.asarray(p, dtype=float)
    nbrs = np.asarray(support_positions, dtype=float)
    if p.ndim == 1:
        return relax_offset(p[None], np.atleast_2d(nbrs)[None], config)[0]
    diff = p[:, None, :] - nbrs
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    if np.any(d2 == 0.0):
        raise ValueError("coincident support node in relaxation")
    p_min2 = d2.min(axis=1)
    c2 = config.sigma * config.sigma * p_min2
    g = np.exp(-d2 / c2[:, None])
    grad = -2.0 / c2[:, None] * (diff * g[..., None]).sum(axis=1)
    return -config.step * p_min2[:, None] * grad


def relax(nodes: NodeSet, config: RelaxConfig = RelaxConfig()) -> NodeSet:
    """Run Jacobi relaxation sweeps over the interior nodes.

    Returns a new NodeSet; the input is left untouched. Interior nodes that
    would step outside the domain are clamped to sit just inside the
    boundary crossing.
    """
    positions = nodes.positions.copy()
    interior = np.nonzero(nodes.interior_mask)[0]
    if interior.size == 0 or config.iterations == 0:
        out = nodes.replace(positions=positions, spacing=nodes.spacing.copy())
        return out

    k = min(config.neighbors + 1, nodes.n)
    for _ in range(config.iterations):
        tree = cKDTree(positions)
        d, idx = tree.query(positions[interior], k=k)
        # Drop the self column (distance zero, first after sorting).
        offsets = relax_offset(positions[interior], positions[idx[:, 1:]], config)

        proposed = positions[interior] + offsets
        sd = nodes.domain.signed_distance(proposed)
        escaped = np.nonzero(sd >= 0.0)[0]
        for j in escaped:
            i = interior[j]
            proposed[j] = _clamp_step(nodes.domain, positions[i], offsets[j], nodes.spacing[i])
        positions[interior] = proposed

    out = nodes.replace(positions=positions, spacing=nodes.spacing.copy())
    out.finalize()
    return out


def _clamp_step(domain, start: np.ndarray, offset: np.ndarray, spacing: float) -> np.ndarray:
    """Shorten an escaping step to end just inside the boundary."""
    lo, hi = 0.0, 1.0
    # start is strictly inside, start + offset is not: bisect the crossing.
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if domain.signed_distance(start + mid * offset) < 0.0:
            lo = mid
        else:
            hi = mid
    step = np.linalg.norm(offset)
    if step == 0.0:
        return start.copy()
    back = _ESCAPE_MARGIN * spacing / step
    t = max(lo - back, 0.0)
    candidate = start + t * offset
    if domain.signed_distance(candidate) >= 0.0:
        return start.copy()
    return candidate
