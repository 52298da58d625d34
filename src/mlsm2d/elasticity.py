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
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .io import _table
from .nodes import NodeSet
from .shapes import ShapeSet

BC_NONE = 0
BC_ESSENTIAL = 1
BC_TRACTION = 2


def lame_parameters(E: float, nu: float, formulation: str = "plane-stress") -> tuple[float, float]:
    """First Lame parameter (adjusted for the 2D formulation) and shear modulus.

    Plane stress replaces lam by 2*lam*mu / (lam + 2*mu); plane strain keeps
    the 3D value.
    """
    if E <= 0:
        raise ValueError(f"Young's modulus must be positive, got {E}")
    if not -1.0 < nu < 0.5:
        raise ValueError(f"Poisson ratio must lie in (-1, 0.5), got {nu}")
    if formulation not in ("plane-stress", "plane-strain"):
        raise ValueError(f"unknown formulation {formulation!r}")
    mu = E / (2.0 * (1.0 + nu))
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    if formulation == "plane-stress":
        lam = 2.0 * lam * mu / (lam + 2.0 * mu)
    return lam, mu


@dataclass(frozen=True)
class Material:
    """Isotropic linear-elastic material under a plane formulation."""

    E: float
    nu: float
    formulation: str = "plane-stress"

    def __post_init__(self) -> None:
        lame_parameters(self.E, self.nu, self.formulation)  # validates

    @cached_property
    def mu(self) -> float:
        return lame_parameters(self.E, self.nu, self.formulation)[1]

    @cached_property
    def lam(self) -> float:
        """Effective first Lame parameter for the chosen formulation."""
        return lame_parameters(self.E, self.nu, self.formulation)[0]


@dataclass
class BoundaryConditions:
    """Per-node boundary data: exactly one condition per boundary node.

    kind[i] is BC_NONE for interior nodes, BC_ESSENTIAL or BC_TRACTION for
    boundary ones. values[i] holds the prescribed displacement or traction
    vector.
    """

    kind: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "BoundaryConditions":
        return cls(np.zeros(n, dtype=np.uint8), np.zeros((n, 2)))

    def set_essential(self, i, u0) -> None:
        self.kind[i] = BC_ESSENTIAL
        self.values[i] = u0

    def set_traction(self, i, t0) -> None:
        self.kind[i] = BC_TRACTION
        self.values[i] = t0

    def validate(self, nodes: NodeSet) -> None:
        if self.kind.shape != (nodes.n,) or self.values.shape != (nodes.n, 2):
            raise ValueError("boundary condition arrays do not match the node count")
        bnd = nodes.boundary_mask
        if np.any(self.kind[~bnd] != BC_NONE):
            raise ValueError("boundary condition set on an interior node")
        if np.any(self.kind[bnd] == BC_NONE):
            missing = np.nonzero(bnd & (self.kind == BC_NONE))[0]
            raise ValueError(f"boundary nodes without a condition: {missing[:10].tolist()}")
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
    are kept as structural nonzeros.
    """
    bcs.validate(nodes)
    N = nodes.n
    lam, mu = material.lam, material.mu
    idx = shapes.support.indices
    n = shapes.support.n

    interior = np.nonzero(nodes.interior_mask)[0]
    essential = np.nonzero(bcs.kind == BC_ESSENTIAL)[0]
    traction = np.nonzero(bcs.kind == BC_TRACTION)[0]

    # dxy is exempt: structured supports (grid boundaries, refinement
    # interfaces) routinely leave only the mixed term underdetermined, and
    # the minimum-norm row is the standard regularized choice there.
    for op in ("dxx", "dyy"):
        shapes.require(op, interior)
    for op in ("dx", "dy"):
        shapes.require(op, traction)

    rows_parts, cols_parts, vals_parts = [], [], []

    def add_block(eq_rows, cols, coeffs):
        rows_parts.append(np.repeat(eq_rows, n))
        cols_parts.append(cols.ravel())
        vals_parts.append(coeffs.ravel())

    if interior.size:
        dxx = shapes.rows["dxx"][interior]
        dyy = shapes.rows["dyy"][interior]
        dxy = shapes.rows["dxy"][interior]
        cols_u = idx[interior]
        cols_v = cols_u + N
        add_block(interior, cols_u, (lam + 2.0 * mu) * dxx + mu * dyy)
        add_block(interior, cols_v, (lam + mu) * dxy)
        add_block(interior + N, cols_u, (lam + mu) * dxy)
        add_block(interior + N, cols_v, mu * dxx + (lam + 2.0 * mu) * dyy)

    if traction.size:
        dx = shapes.rows["dx"][traction]
        dy = shapes.rows["dy"][traction]
        n1 = nodes.normals[traction, 0][:, None]
        n2 = nodes.normals[traction, 1][:, None]
        cols_u = idx[traction]
        cols_v = cols_u + N
        add_block(traction, cols_u, mu * n2 * dy + (2.0 * mu + lam) * n1 * dx)
        add_block(traction, cols_v, lam * n1 * dy + mu * n2 * dx)
        add_block(traction + N, cols_u, mu * n1 * dy + lam * n2 * dx)
        add_block(traction + N, cols_v, mu * n1 * dx + (2.0 * mu + lam) * n2 * dy)

    if essential.size:
        for offset in (0, N):
            rows_parts.append(essential + offset)
            cols_parts.append(essential + offset)
            vals_parts.append(np.ones(essential.size))

    rhs = np.zeros(2 * N)
    rhs[traction] = bcs.values[traction, 0]
    rhs[traction + N] = bcs.values[traction, 1]
    rhs[essential] = bcs.values[essential, 0]
    rhs[essential + N] = bcs.values[essential, 1]

    matrix = sp.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(2 * N, 2 * N),
    ).tocsr()
    return SparseSystem(matrix=matrix, rhs=rhs, n_nodes=N, positions=nodes.positions)


@dataclass(frozen=True)
class StressField:
    """Cauchy stress components at every node."""

    sxx: np.ndarray
    syy: np.ndarray
    sxy: np.ndarray

    @property
    def von_mises(self) -> np.ndarray:
        return von_mises(self.sxx, self.syy, self.sxy)


def von_mises(sxx, syy, sxy) -> np.ndarray:
    """Plane von Mises stress sqrt(sxx^2 - sxx syy + syy^2 + 3 sxy^2)."""
    sxx = np.asarray(sxx, dtype=float)
    syy = np.asarray(syy, dtype=float)
    sxy = np.asarray(sxy, dtype=float)
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
