"""h-refinement: halve the local spacing inside rectangular regions.

One refinement pass inserts the midpoints between each selected node and
its support neighbors. A candidate closer than its rejection radius to an
existing node is dropped; of the rest, a candidate is accepted iff no
earlier accepted candidate lies in its closed rejection ball. That greedy
walk is decided in rounds over the conflict pairs from one kd-tree pair
query: a candidate is accepted once all its earlier conflicts are
rejected, and rejected as soon as one of them is accepted. Midpoints of
two boundary nodes that land near the boundary curve are projected onto
it and become boundary nodes with the normal of the boundary piece they
land on; everything else stays interior. Multi-level schedules apply
passes outermost region first: a region at level k participates in the
first k passes, so nested regions telescope the spacing down by powers
of two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .neighbors import build_supports
from .nodes import NodeSet, Rect

# Rejection radius of a candidate midpoint, in units of the halved spacing.
PROXIMITY = 0.75
# Support size whose neighbors give a selected node's midpoints.
SUPPORT_N = 9


@dataclass(frozen=True)
class RefineRegion:
    rect: Rect
    level: int = 1

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"refinement level must be at least 1, got {self.level}")


def refine_once(nodes: NodeSet, region: Rect) -> NodeSet:
    """Single halving pass over one rectangular region."""
    return refine_levels(nodes, [RefineRegion(region)])


def refine_levels(nodes: NodeSet, regions: list[RefineRegion]) -> NodeSet:
    """Run the multi-level schedule described by the regions' levels."""
    max_level = max((r.level for r in regions), default=0)
    out = nodes
    for pass_no in range(1, max_level + 1):
        active = [r.rect for r in regions if r.level >= pass_no]
        out = _refine_pass(out, active)
    if out is not nodes:  # some pass added nodes: check the cloud
        out.finalize()
    return out


def _refine_pass(nodes: NodeSet, rects: list[Rect]) -> NodeSet:
    """One halving pass; the result is unchecked until refine_levels finalizes it."""
    pos = nodes.positions

    selected = np.zeros(nodes.n, dtype=bool)
    for rect in rects:
        selected |= rect.contains(pos)
    sel = np.nonzero(selected)[0]
    if sel.size == 0:
        return nodes
    tree = cKDTree(pos)
    supports = build_supports(nodes, min(SUPPORT_N, nodes.n), tree=tree, centers=sel)

    # Candidate midpoints in deterministic order: by node index, then by
    # neighbor rank within the support.
    nbr = supports.indices[:, 1:]
    k = nbr.shape[1]
    mids = 0.5 * (pos[sel, None, :] + pos[nbr])
    p_min = supports.distances[:, 1]
    radius = np.repeat(PROXIMITY * p_min / 2.0, k)
    near_boundary = np.repeat(PROXIMITY * p_min, k)
    src = np.repeat(sel, k)
    dst = nbr.reshape(-1)
    mids = mids.reshape(-1, 2)
    bnd = nodes.boundary_mask
    both_boundary = bnd[src] & bnd[dst]

    # Classify candidates and settle final positions before proximity checks.
    sd = nodes.domain.signed_distance(mids)
    final = mids.copy()
    normals = np.zeros_like(mids)
    keep = np.ones(len(mids), dtype=bool)

    project = both_boundary & (np.abs(sd) <= near_boundary)
    c = np.nonzero(project)[0]
    n_sum = nodes.normals[src[c]] + nodes.normals[dst[c]]
    # Parents with opposite normals face each other across the material, so
    # their midpoint belongs to neither boundary piece: drop the candidate.
    opposite = np.hypot(n_sum[:, 0], n_sum[:, 1]) < 1e-8
    keep[c[opposite]] = False
    c = c[~opposite]
    final[c], normals[c] = nodes.domain.project_to_boundary(mids[c])
    inside = nodes.domain.contains(final)
    keep &= project | inside

    # Reject candidates crowding an existing node, then earlier-accepted ones.
    d_exist, _ = tree.query(final, k=1, workers=-1)
    keep &= d_exist >= radius

    order = np.nonzero(keep)[0]
    new = order[_accept(final[order], radius[order])]
    if new.size == 0:
        return nodes

    positions = np.vstack([pos, final[new]])
    normals_all = np.vstack([nodes.normals, normals[new]])
    return NodeSet(positions, normals_all, nodes.domain)


def _accept(points: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Mask of the candidates the greedy rule of the module docstring accepts."""
    # The margin keeps boundary pairs that the pair query's own rounding
    # might drop; the exact closed-ball test follows.
    pairs = cKDTree(points).query_pairs(radius.max(initial=0.0) * (1.0 + 1e-12), output_type="ndarray")
    early, late = pairs[:, 0], pairs[:, 1]  # early < late
    d = points[early] - points[late]
    conflict = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius[late] ** 2
    early, late = early[conflict], late[conflict]
    accepted = np.zeros(len(points), dtype=bool)
    undecided = np.ones(len(points), dtype=bool)
    while undecided.any():
        blocked = np.zeros(len(points), dtype=bool)
        blocked[late[undecided[early]]] = True
        hit = np.zeros(len(points), dtype=bool)
        hit[late[accepted[early]]] = True
        accepted |= undecided & ~blocked & ~hit
        undecided &= blocked & ~hit
        # A pair whose later candidate is decided has nothing left to decide.
        live = undecided[late]
        early, late = early[live], late[live]
    return accepted
