"""Sparse linear solvers for the assembled collocation systems.

Both methods factor the matrix once and run BiCGSTAB with the factor as
preconditioner, judging convergence on the true residual
|b - A x| <= tol * |b|; restarts from the current iterate act as iterative
refinement. "direct" (the default) is a complete LU in SuperLU's symmetric
mode: minimum-degree ordering on A^T + A with diagonal pivots, on which
BiCGSTAB stops at its first half-step. Collocation matrices are nearly
structurally symmetric (row i couples to the support of node i), so that
ordering needs far less fill than one on A^T A, but only if pivoting keeps
it: the pivot threshold is 0, so a diagonal pivot is always taken unless
it is exactly zero, in which case SuperLU falls back to the largest entry
of the column. Any threshold above 0 lets partial pivoting break the
ordering and multiplies time and fill (1e-2 already does on the 1e5-node
cantilever); a factor spoiled by a tiny pivot is caught by the
true-residual check and mended by the refinement restarts.
"bicgstab-ilut" is a threshold incomplete LU at fixed settings, the
memory-bounded alternative, kept as an oracle for the direct solve.
Callers choose only the method and the tolerance; the iteration budget
is 10 sqrt(dim) + 1000, and an iterate that stops improving short of the
tolerance raises NonConvergenceError as a stall, or as a breakdown if it
is no longer finite.

Collocation rows mix wildly different scales: interior rows carry
E / spacing^2 while essential rows are unit diagonals, which puts the raw
condition number near 1e16 and makes the incomplete factorization report
spurious singularity. Both methods therefore solve the row-equilibrated
system D A x = D b with D = diag(1 / max|row|), which has the same
solution; residuals are reported for the equilibrated system.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elasticity import SparseSystem


class NonConvergenceError(RuntimeError):
    """Iterative solve failed; carries the residual history."""

    def __init__(self, message: str, residuals: list[float] | None = None):
        super().__init__(message)
        self.residuals = residuals or []


# ILUT settings. ILUT is the oracle that the direct solve is checked
# against, so it must factor every benchmark system: at fill 10 it fails as
# "exactly singular" on the Hertz and 1e5-node cantilever systems.
ILUT_FILL_FACTOR = 40.0
ILUT_DROP_TOL = 1e-5


# The solve methods, named once for SolverConfig and the CLI.
METHODS = ("bicgstab-ilut", "direct")


@dataclass(frozen=True)
class SolverConfig:
    method: str = "direct"  # or "bicgstab-ilut"
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual: float
    t_preconditioner: float
    t_iterations: float
    factor_nnz: int = 0  # nonzeros of L + U
    residual_history: list[float] = field(default_factory=list)


def _relative_residual(matrix: sp.csr_matrix, rhs: np.ndarray, x: np.ndarray) -> float:
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return float(np.linalg.norm(matrix @ x))
    return float(np.linalg.norm(rhs - matrix @ x) / b_norm)


def _equilibrate(system: SparseSystem) -> tuple[sp.csr_matrix, np.ndarray]:
    """Row-scale the system to unit max magnitude per row."""
    A = system.matrix.tocsr()
    row_max = np.zeros(A.shape[0])
    if A.nnz:
        nonempty = np.diff(A.indptr) > 0
        row_max[nonempty] = np.maximum.reduceat(np.abs(A.data), A.indptr[:-1][nonempty])
    d = np.where(row_max > 0, 1.0 / np.where(row_max > 0, row_max, 1.0), 1.0)
    return sp.diags(d) @ A, d * system.rhs


def solve(system: SparseSystem, config: SolverConfig = SolverConfig()) -> tuple[tuple[np.ndarray, np.ndarray], SolveReport]:
    """Solve for the displacement vectors (u, v).

    Returns the solution split into its u and v halves together with a
    report of iteration count, achieved relative residual and timings.
    """
    t0 = time.perf_counter()  # the preconditioner phase includes the row scaling
    matrix, rhs = _equilibrate(system)
    report = SolveReport(config.method, 0, np.inf, 0.0, 0.0)
    dim = matrix.shape[0]
    maxiter = int(10.0 * np.sqrt(dim)) + 1000
    try:
        if config.method == "direct":
            factor = spla.splu(
                matrix.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True),
            )
        else:
            factor = spla.spilu(
                matrix.tocsc(),
                fill_factor=ILUT_FILL_FACTOR,
                drop_tol=ILUT_DROP_TOL,
            )
    except RuntimeError as exc:
        name = (
            "complete LU (MMD_AT_PLUS_A, diagonal pivots)"
            if config.method == "direct"
            else "incomplete LU"
        )
        raise NonConvergenceError(f"{name} factorization failed: {exc}") from exc
    report.t_preconditioner = time.perf_counter() - t0
    report.factor_nnz = int(factor.nnz)

    # An explicit dtype spares LinearOperator a probing solve with the factor.
    precond = spla.LinearOperator((dim, dim), matvec=factor.solve, dtype=matrix.dtype)

    def callback(xk: np.ndarray) -> None:
        report.iterations += 1
        report.residual_history.append(_relative_residual(matrix, rhs, xk))

    t0 = time.perf_counter()
    x = np.zeros(dim)
    x0 = None
    best = np.inf
    while report.iterations < maxiter:
        x, _ = spla.bicgstab(
            matrix,
            rhs,
            rtol=config.tolerance,
            atol=0.0,
            maxiter=maxiter - report.iterations,
            M=precond,
            callback=callback,
            x0=x0,
        )
        if not np.all(np.isfinite(x)):
            break
        # Convergence is judged on the true residual, which both drifts
        # from the recursive one tracked inside the iteration and survives
        # Krylov inner-product collapse (a strong preconditioner can break
        # down right before convergence). Either way, restart from the
        # current iterate while it keeps improving.
        res = _relative_residual(matrix, rhs, x)
        if res <= config.tolerance or res >= best:
            break
        best = res
        x0 = x
    report.t_iterations = time.perf_counter() - t0
    report.residual = _relative_residual(matrix, rhs, x)

    if not np.all(np.isfinite(x)):
        raise NonConvergenceError(
            "BiCGSTAB broke down (singular or indefinite system?)",
            residuals=report.residual_history,
        )
    if report.residual > config.tolerance:
        raise NonConvergenceError(
            f"BiCGSTAB stalled at relative residual {report.residual:.3e} "
            f"after {report.iterations} iterations (tolerance {config.tolerance:.1e})",
            residuals=report.residual_history,
        )

    N = system.n_nodes
    return (x[:N], x[N:]), report
