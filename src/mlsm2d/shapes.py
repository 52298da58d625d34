"""Weighted-least-squares shape functions and derivative stencils.

Given a support of n nodes around a center p0, a basis of m functions and a
Gaussian weight, the local approximant is the WLS fit of nodal values over
the support. Applying a derivative L = d^a/dx^a d^b/dy^b (OPS names it by
its orders (a, b)) to the fit and evaluating at p0 gives a stencil row

    chi_L = (L b)(p0)^T (W B)^+ W,

where B is the n-by-m matrix of basis values at the support nodes and W the
diagonal square-root-weight matrix. Each basis has one rule for its image
L b: monomial-9 is a list of powers x^p y^r, and a Gaussian's image is a
factor in x times a factor in y times the Gaussian. The pseudo-inverse is
computed by SVD with singular values below RCOND * s_max truncated.

All internal algebra runs in local coordinates q = (p - p0) / p_min, where
p_min is the distance from the center to its nearest support node. That
keeps the basis matrix well scaled regardless of the physical spacing; the
chain rule divides a row of orders (a, b) by p_min**(a + b) on the way out.
With n == m the fit is plain interpolation and the weight drops out
entirely, so W is skipped.

Rank deficiency needs care rather than a blanket error: structured supports
can be honestly singular while still defining most stencils. The canonical
example is a grid boundary node with n = 9, whose support (a 3x2 block plus
three collinear ties) annihilates two quartic basis combinations; value and
first-derivative stencils stay unique, only the mixed second derivative
becomes dependent on the arbitrary minimum-norm choice. The pseudo-inverse
therefore truncates and proceeds, and each operator row is flagged as
ambiguous when its operator image has a component in the truncated null
space. Consumers reject ambiguous rows they actually need.

One batched kernel computes every stencil in local units; a row depends
only on q and on u = |p - p0| / (sigma_w * p_min). build_shape_set runs it
once per bit-distinct (q, u) key. ShapeSet keeps those rows per key, in
local units, with each node's key and p_min, and forms a node's physical
row on access, so every row equals a per-node solve while a grid of 1e5
nodes stores a few hundred rows. compute_shapes is build_shape_set on a
single support: the single-support rows are the batched rows, bit for bit.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .neighbors import SupportSet
from .nodes import NodeSet
from .parallel import _split_rows

# Derivative orders (a, b) of each operator d^a/dx^a d^b/dy^b.
OPS = {"val": (0, 0), "dx": (1, 0), "dy": (0, 1), "dxx": (2, 0), "dxy": (1, 1), "dyy": (0, 2)}

# Powers (p, r) of the monomial-9 basis functions x^p y^r.
_MONOMIAL_POWERS = ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2))

# Singular values below RCOND * s_max count as rank loss.
RCOND = 1e-12

# Relative null-space component above which an operator row counts as
# ambiguous (dependent on the minimum-norm completion).
_AMBIG_TOL = 1e-9


class IllConditionedStencilError(RuntimeError):
    """Raised when a support cannot determine a requested stencil."""

    def __init__(self, message: str, node: int | None = None, support: np.ndarray | None = None):
        super().__init__(message)
        self.node = node
        self.support = None if support is None else np.asarray(support)


@dataclass(frozen=True)
class WeightSpec:
    """Gaussian weight w(p) = exp(-(|p - p0| / (sigma * p_min))^2)."""

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"weight sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class BasisSpec:
    """Local approximation basis.

    kind "monomial-9": the tensor monomials x^p y^r, p, r <= 2, in the order
    of _MONOMIAL_POWERS. kind "gaussian-9": Gaussians centered at the first
    9 support nodes with shape parameter sigma (in units of p_min).
    """

    kind: str = "monomial-9"
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("monomial-9", "gaussian-9"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if not self.sigma > 0:
            raise ValueError(f"basis sigma must be positive, got {self.sigma}")
        if self.kind == "monomial-9" and self.sigma != BasisSpec.sigma:
            raise ValueError("basis sigma is read only by gaussian-9")

    @property
    def m(self) -> int:
        return 9


def _monomial_rows(q: np.ndarray, a: int, b: int) -> np.ndarray:
    """Images of the monomial-9 basis under d^a/dx^a d^b/dy^b at points q.

    q is (..., 2) and the result appends an axis of 9: perm(p, a) perm(r, b)
    x^(p-a) y^(r-b) for x^p y^r, multiplied one factor at a time, x's first.
    """
    x, y = q[..., 0], q[..., 1]
    cols = []
    for p, r in _MONOMIAL_POWERS:
        c = math.perm(p, a) * math.perm(r, b)
        factors = (x,) * (p - a) + (y,) * (r - b) if c else ()
        cols.append(math.prod(factors, start=np.full_like(x, c)))
    return np.stack(cols, axis=-1)


def _gaussian_rows(q: np.ndarray, centers: np.ndarray, sigma: float, a: int, b: int) -> np.ndarray:
    """Images of Gaussians centered at `centers` under d^a/dx^a d^b/dy^b.

    q: (..., k, 2) evaluation points, centers: (..., m, 2), result (..., k, m).
    """
    d = q[..., :, None, :] - centers[..., None, :, :]
    dx, dy = d[..., 0], d[..., 1]
    s2 = sigma * sigma
    g = np.exp(-(dx * dx + dy * dy) / s2)
    # The k-th derivative of exp(-t^2 / s2) over itself: 1, -2t / s2 or
    # 4t^2 / s2^2 - 2 / s2; only the factors of nonzero order are formed.
    factors = [-2.0 * t / s2 if k == 1 else 4.0 * t * t / (s2 * s2) - 2.0 / s2
               for t, k in ((dx, a), (dy, b)) if k]
    return math.prod(factors + [g])


def _basis_rows(q: np.ndarray, centers: np.ndarray, basis: BasisSpec, op: str) -> np.ndarray:
    if basis.kind == "monomial-9":
        return _monomial_rows(q, *OPS[op])
    return _gaussian_rows(q, centers, basis.sigma, *OPS[op])


def _stencils(
    q: np.ndarray,
    u: np.ndarray,
    basis: BasisSpec,
    ops: tuple[str, ...],
) -> tuple[dict[str, np.ndarray], np.ndarray, dict[str, np.ndarray]]:
    """Stencil rows of N supports in local units, in one batched SVD pass.

    q is (N, n, 2), the support points in local coordinates, and u (N, n)
    their distances from the center in units of sigma_w * p_min. Rows are
    evaluated at the center; dividing a row by p_min**(a + b), with (a, b)
    its operator's orders, gives the physical row. Returns the rows, ranks
    and ambiguity masks laid out as ShapeSet holds them.
    """
    N, n = u.shape
    m = basis.m

    centers = q[:, :m, :]
    B = _basis_rows(q, centers, basis, "val")

    if n == m:
        A = B
        w_sqrt = None
    else:
        w_sqrt = np.exp(-0.5 * u * u)
        A = w_sqrt[..., None] * B

    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > RCOND * s[:, :1]
    ranks = np.count_nonzero(keep, axis=1)
    s_inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    pinv = (Vt.transpose(0, 2, 1) * s_inv[:, None, :]) @ U.transpose(0, 2, 1)
    # The rows of Vt past each rank span that support's truncated null space.
    past_rank = np.arange(m) >= ranks[:, None]

    origin = np.zeros((N, 1, 2))
    rows: dict[str, np.ndarray] = {}
    ambiguous: dict[str, np.ndarray] = {}
    for op in ops:
        lb = _basis_rows(origin, centers, basis, op)[:, 0, :]
        row = (lb[:, None, :] @ pinv)[:, 0, :]
        rows[op] = row if w_sqrt is None else row * w_sqrt
        null = np.where(past_rank, (Vt @ lb[:, :, None])[:, :, 0], 0.0)
        ambiguous[op] = np.linalg.norm(null, axis=1) > _AMBIG_TOL * np.linalg.norm(lb, axis=1)
    return rows, ranks, ambiguous


def compute_shapes(
    support_positions: np.ndarray,
    center: np.ndarray,
    basis: BasisSpec,
    weight_spec: WeightSpec,
    ops: tuple[str, ...] = tuple(OPS),
) -> dict[str, np.ndarray]:
    """Stencil rows at the center of one support, keyed by operator name.

    support_positions is (n, 2) and holds center. This is build_shape_set on
    the one support, ranked by distance from the center as knn ranks it, so
    the rows are the batched rows bit for bit; their entries follow the
    caller's order. Raises ValueError for a support without its center or an
    operator name that OPS does not hold, and IllConditionedStencilError for
    a requested operator that a rank-deficient support does not determine;
    it names no node (node is None), and its support indexes
    support_positions in the caller's order.
    """
    if unknown := sorted(set(ops) - OPS.keys()):
        raise ValueError(f"unknown operators {unknown}")
    pos = np.asarray(support_positions, dtype=float)
    dx, dy = (pos - center).T
    dist = np.sqrt(dx * dx + dy * dy)
    order = np.argsort(dist, kind="stable")
    if np.any(pos[order[0]] != center):
        raise ValueError("the support does not hold its center")
    shapes = build_shape_set(pos, SupportSet(order[None], dist[None, order]), basis, weight_spec)
    for op in ops:
        if shapes.ambiguous[op][0]:
            raise IllConditionedStencilError(
                f"rank-{int(shapes.ranks[0])} support does not determine the {op} stencil", support=np.arange(len(pos))
            )
    back = np.argsort(order)
    return {op: shapes.rows[op][0, back] for op in ops}


class _Rows(Mapping):
    """Each operator's (N, n) physical rows, formed from the per-key rows on access."""

    def __init__(self, shapes: ShapeSet) -> None:
        self._shapes = shapes

    def __getitem__(self, op: str) -> np.ndarray:
        s = self._shapes
        return s.key_rows[op][s.key] / s.p_min[:, None] ** sum(OPS[op])

    def __iter__(self):
        return iter(self._shapes.key_rows)

    def __len__(self) -> int:
        return len(self._shapes.key_rows)


@dataclass(frozen=True)
class ShapeSet:
    """Stencil rows for every node, aligned with the SupportSet's indices.

    support holds those indices, not the SupportSet's distances. rows[op]
    forms the physical rows of all nodes from key_rows, which
    holds one row per distinct local geometry. ranks holds the truncated
    SVD rank per node; ambiguous[op][i] is True when node i's rank-deficient
    support leaves the op stencil dependent on the minimum-norm completion.
    Such rows are still stored (they matter to nothing when unused) but
    consumers must call require() on the operators they actually read.
    """

    support: np.ndarray  # (N, n) int32 node indices, each row starting with its center
    key_rows: dict[str, np.ndarray]  # op -> (n_keys, n), in local units
    key: np.ndarray  # (N,) int32, each node's row of key_rows
    p_min: np.ndarray  # (N,) each node's local length unit
    basis: BasisSpec
    ranks: np.ndarray  # (N,) int32
    ambiguous: dict[str, np.ndarray]  # op -> (N,) bool

    @property
    def rows(self) -> Mapping[str, np.ndarray]:
        return _Rows(self)

    @property
    def n_keys(self) -> int:
        """Distinct (q, u) keys, i.e. supports the kernel solved."""
        return len(self.key_rows["val"])

    @property
    def n_nodes(self) -> int:
        return self.support.shape[0]

    def require(self, op: str, node_indices: np.ndarray | None = None) -> None:
        """Raise unless op stencils are well determined at the given nodes.

        node_indices=None checks every node.
        """
        mask = self.ambiguous[op]
        if node_indices is not None:
            node_indices = np.asarray(node_indices)
            mask = mask[node_indices]
        if not mask.any():
            return
        bad = int(np.argmax(mask))
        i = bad if node_indices is None else int(node_indices[bad])
        raise IllConditionedStencilError(
            f"rank-{int(self.ranks[i])} support does not determine the {op} "
            f"stencil at node {i}",
            node=i,
            support=self.support[i],
        )

    def apply(self, op: str, values: np.ndarray) -> np.ndarray:
        """Apply the operator stencils to a nodal field, all nodes at once."""
        values = np.asarray(values)
        return np.einsum("ij,ij->i", self.rows[op], values[self.support])


def build_shape_set(
    nodes: NodeSet | np.ndarray,
    supports: SupportSet,
    basis: BasisSpec = BasisSpec(),
    weight_spec: WeightSpec = WeightSpec(),
) -> ShapeSet:
    """Stencils for all nodes, one batched SVD row per distinct local geometry.

    nodes is a NodeSet or an (N, 2) array of positions, and each support's
    center is its first column. The kernel runs on the first node of each
    distinct (q, u) key, the keys split between two threads by
    parallel._split_rows; its ranks and masks are scattered to every node
    of the key, its rows kept once per key. compute_shapes is this call on
    a single support.

    It never raises on rank-deficient supports; it fills the ambiguity
    masks and leaves enforcement to ShapeSet.require, since which operators
    a node must determine depends on how the caller consumes it.
    """
    positions = nodes.positions if isinstance(nodes, NodeSet) else nodes
    idx = supports.indices
    if idx.shape[1] < basis.m:
        raise ValueError(f"support size {idx.shape[1]} is below basis size {basis.m}")
    dist = supports.distances
    p_min = dist[:, 1].copy()
    if np.any(p_min <= 0):
        raise IllConditionedStencilError("degenerate support", node=int(np.argmin(p_min)))

    q = (positions[idx] - positions[idx[:, :1]]) / p_min[:, None, None]
    u = dist / (weight_spec.sigma * p_min[:, None])
    # Bytes, not float equality: -0.0 and 0.0 must stay distinct keys.
    key = np.concatenate([q.reshape(len(q), -1), u], axis=1)
    _, first, inv = np.unique(
        key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    rows, ranks, ambiguous = _split_rows(
        lambda lo, hi: _stencils(q[first[lo:hi]], u[first[lo:hi]], basis, OPS), len(first)
    )
    ambiguous = {op: mask[inv] for op, mask in ambiguous.items()}
    inv = inv.astype(np.int32)
    return ShapeSet(idx, rows, inv, p_min, basis, ranks.astype(np.int32)[inv], ambiguous)
