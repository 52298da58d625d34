"""Plane linear elasticity: material laws, assembly, stress recovery.

The displacement field (u, v) satisfies the homogeneous Navier equation

    (lam + mu) grad(div u) + mu laplace(u) = 0,

discretized by collocation: each interior node contributes two equations
built from its second-derivative stencils, each traction boundary node two
equations matching sigma . n to the prescribed traction, and each essential
boundary node two identity rows pinning the displacement. Unknowns are
ordered [u_0..u_{N-1}, v_0..v_{N-1}]; equation rows use the same layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .io import _table
from .nodes import NodeSet
from .shapes import ShapeSet


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic material under a plane formulation."""

    E: float
    nu: float
    formulation: str = "plane-stress"

    def __post_init__(self) -> None:
        if not self.E > 0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")
        if not -1.0 < self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {self.nu}")
        if self.formulation not in ("plane-stress", "plane-strain"):
            raise ValueError(f"unknown formulation {self.formulation!r}")

    @property
    def mu(self) -> float:
        return self.E / (2.0 * (1.0 + self.nu))

    @property
    def lam(self) -> float:
        """First Lame parameter: plane strain keeps the 3D lam, plane stress takes 2*lam*mu / (lam + 2*mu)."""
        E, nu, mu = self.E, self.nu, self.mu
        lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
        if self.formulation == "plane-stress":
            lam = 2.0 * lam * mu / (lam + 2.0 * mu)
        return lam


@dataclass(frozen=True)
class BoundaryConditions:
    """Per-node boundary data: exactly one condition per boundary node.

    essential is an (N,) bool mask of the boundary nodes with a prescribed
    displacement; the others carry a traction. values[i] holds either vector.
    """

    essential: np.ndarray
    values: np.ndarray

    def validate(self, nodes: NodeSet) -> None:
        if self.essential.shape != (nodes.n,) or self.values.shape != (nodes.n, 2):
            raise ValueError("boundary condition arrays do not match the node count")
        if self.essential.dtype != bool:
            raise ValueError(f"the essential mask must have bool dtype, got {self.essential.dtype}")
        if np.any(self.essential & nodes.interior_mask):
            raise ValueError("boundary condition set on an interior node")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite boundary condition values")


@dataclass
class SparseSystem:
    """Assembled 2N-by-2N collocation system.

    positions, when set, are the node coordinates, which the direct solve
    may use to order the unknowns.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_nodes: int
    positions: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 2 * self.n_nodes

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def nnz_ratio(self) -> float:
        return self.nnz / float(self.dim) ** 2

    def export_matrix(self, path) -> None:
        """Plain-text coordinate dump: `row col value` per line, 0-based."""
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(_table([coo.row, coo.col, coo.data], sep=" ", fmt=("%d", "%d", "%.17g")))


def assemble(
    nodes: NodeSet,
    shapes: ShapeSet,
    material: Material,
    bcs: BoundaryConditions,
) -> SparseSystem:
    """Collocate the Navier operator and boundary conditions into a sparse system.

    Interior rows combine the second-derivative stencils; traction rows
    combine first-derivative stencils contracted with the outward normal;
    essential rows are unit diagonals. All 2n stencil entries per equation
    are kept as structural nonzeros, written in place (u block, then v
    block) into CSR arrays allocated with the rhs up front; solve returns
    the freed heap to the OS before it factors, so the order is free.
    Every support must list distinct nodes: a repeat would be a duplicate.
    """
    bcs.validate(nodes)
    N = nodes.n
    lam, mu = material.lam, material.mu
    idx = shapes.support
    n = idx.shape[1]

    interior = np.nonzero(nodes.interior_mask)[0]
    essential = np.flatnonzero(bcs.essential)
    traction = np.flatnonzero(nodes.boundary_mask & ~bcs.essential)

    # dxy is exempt: structured supports (grid boundaries, refinement
    # interfaces) routinely leave only the mixed term underdetermined, and
    # the minimum-norm row is the standard regularized choice there.
    for op in ("dxx", "dyy"):
        shapes.require(op, interior)
    for op in ("dx", "dy"):
        shapes.require(op, traction)

    rhs = np.zeros(2 * N)
    rhs[traction] = bcs.values[traction, 0]
    rhs[traction + N] = bcs.values[traction, 1]
    rhs[essential] = bcs.values[essential, 0]
    rhs[essential + N] = bcs.values[essential, 1]

    row_nnz = np.tile(np.where(bcs.essential, 1, 2 * n), 2)
    index_dtype = np.int32 if row_nnz.sum() <= np.iinfo(np.int32).max else np.int64
    indptr = np.concatenate([[0], np.cumsum(row_nnz)]).astype(index_dtype)
    indices = np.empty(indptr[-1], dtype=index_dtype)
    data = np.empty(indptr[-1])

    def add_rows(eq_rows, cols, coeffs_u, coeffs_v):
        slots = indptr[eq_rows, None] + np.arange(n)
        indices[slots] = cols
        data[slots] = coeffs_u
        slots += n
        indices[slots] = cols + N
        data[slots] = coeffs_v

    if interior.size:
        dxx = shapes.rows["dxx"][interior]
        dyy = shapes.rows["dyy"][interior]
        dxy = shapes.rows["dxy"][interior]
        cols = idx[interior]
        add_rows(interior, cols, (lam + 2.0 * mu) * dxx + mu * dyy, (lam + mu) * dxy)
        add_rows(interior + N, cols, (lam + mu) * dxy, mu * dxx + (lam + 2.0 * mu) * dyy)

    if traction.size:
        dx = shapes.rows["dx"][traction]
        dy = shapes.rows["dy"][traction]
        n1 = nodes.normals[traction, 0][:, None]
        n2 = nodes.normals[traction, 1][:, None]
        cols = idx[traction]
        add_rows(traction, cols, mu * n2 * dy + (2.0 * mu + lam) * n1 * dx, lam * n1 * dy + mu * n2 * dx)
        add_rows(traction + N, cols, mu * n1 * dy + lam * n2 * dx, mu * n1 * dx + (2.0 * mu + lam) * n2 * dy)

    for offset in (0, N):
        indices[indptr[essential + offset]] = essential + offset
        data[indptr[essential + offset]] = 1.0

    matrix = sp.csr_matrix((data, indices, indptr), shape=(2 * N, 2 * N))
    matrix.sort_indices()
    return SparseSystem(matrix=matrix, rhs=rhs, n_nodes=N, positions=nodes.positions)


@dataclass(frozen=True)
class StressField:
    """Cauchy stress components at every node."""

    sxx: np.ndarray
    syy: np.ndarray
    sxy: np.ndarray

    @property
    def von_mises(self) -> np.ndarray:
        """Plane von Mises stress sqrt(sxx^2 - sxx syy + syy^2 + 3 sxy^2)."""
        sxx, syy, sxy = self.sxx, self.syy, self.sxy
        return np.sqrt(sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy)


def compute_stresses(shapes: ShapeSet, material: Material, u: np.ndarray, v: np.ndarray) -> StressField:
    """Recover nodal stresses from displacement derivatives.

    sigma_xx = (2 mu + lam) du/dx + lam dv/dy
    sigma_yy = lam du/dx + (2 mu + lam) dv/dy
    sigma_xy = mu (du/dy + dv/dx)
    """
    lam, mu = material.lam, material.mu
    shapes.require("dx")
    shapes.require("dy")
    dudx = shapes.apply("dx", u)
    dudy = shapes.apply("dy", u)
    dvdx = shapes.apply("dx", v)
    dvdy = shapes.apply("dy", v)
    sxx = (2.0 * mu + lam) * dudx + lam * dvdy
    syy = lam * dudx + (2.0 * mu + lam) * dvdy
    sxy = mu * (dudy + dvdx)
    return StressField(sxx=sxx, syy=syy, sxy=sxy)
