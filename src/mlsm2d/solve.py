"""Sparse linear solvers for the assembled collocation systems.

Both methods factor the matrix once and run BiCGSTAB with the factor as
preconditioner, judging convergence on the true residual
|b - A x| <= tol * |b|; restarts from the current iterate act as iterative
refinement. "direct" (the default) is a complete LU in SuperLU's symmetric
mode with diagonal pivots, on which BiCGSTAB stops at its first half-step.
A system that carries node positions and has at most 9 nodes per support
(18 nonzeros per row) is ordered by geometric nested dissection (George
1973; see dissection_keys), each node's [u, v] pair kept together: on
9-node lattices a straight cut needs a separator one node wide, and at
1e5 nodes the factor has 33M entries against 43M under minimum degree.
Every other system is ordered by minimum degree on A^T + A, which needs
less fill there (hertz: 21M entries against 25-51M under every dissection
tried). Collocation matrices are nearly structurally symmetric (row i
couples to the support of node i), so that ordering needs far less fill
than one on A^T A. Minimum-degree factors are built without relaxed
supernodes (relax=1), which stores fewer entries: drilled 1.92M -> 1.41M,
hertz 20.8M -> 20.1M, the small selftest hertz 0.99M -> 0.92M. Dissection
keeps SuperLU's default, as relax=1 made the 1e5-node cantilever 3%
slower. Both factor in panels of LU_PANEL = 4 columns, not SuperLU's 20,
which shrinks the panel work arrays on the 1e5-node cantilever from 65 to
13 MB at the same factor entries and time (2.02 -> 1.93 s; hertz 2.44 ->
2.43 s; medians of 5). Either order holds only if pivoting keeps it: the
pivot threshold is 0, so a diagonal pivot is always taken unless it is
exactly zero, in which case SuperLU falls back to the largest entry of
the column.
Any threshold above 0 lets partial pivoting break the ordering and
multiplies time and fill (1e-2 already does on the 1e5-node cantilever);
a factor spoiled by a tiny pivot is caught by the true-residual check and
mended by the refinement restarts.
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
solution; residuals are reported for the equilibrated system. One CSC
copy of D A (of D P A P^T under nested dissection) serves the factor,
the BiCGSTAB products and every residual. solve drops the system it was
given once that copy is made, so a caller that keeps no reference to the
system (as the cases do) factors beside no other copy of the matrix.
Right before the factorization, solve returns the heap that assembly,
ordering and scaling freed to the OS (glibc's malloc_trim, where the C
library has it), as the factor would otherwise peak on top of it: 62 MB
at splu entry on the 1e5-node cantilever, whose peak RSS falls 527.6 -> 499 MB.
"""
from __future__ import annotations

import ctypes
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

# Nested dissection orders the direct solve of systems whose supports have
# at most ND_MAX_SUPPORT nodes, and stops splitting at ND_LEAF nodes.
ND_MAX_SUPPORT = 9
ND_LEAF = 16
ND = "nested-dissection"

# Columns per SuperLU panel (see the module docstring).
LU_PANEL = 4

try:  # glibc's malloc_trim (see the module docstring)
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # none in musl or macOS; no CDLL(None) on Windows
    _malloc_trim = None


@dataclass(frozen=True)
class SolverConfig:
    method: str = "direct"  # or "bicgstab-ilut"
    tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.tolerance < 1.0:
            raise ValueError(f"tolerance must be in (0, 1), got {self.tolerance}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual: float
    factor_nnz: int = 0  # nonzeros of L + U
    ordering: str = ""  # ND, or the permc_spec that SuperLU ordered with
    # Seconds per phase run, in run order: "ordering" (graph, nested
    # dissection and permutation; ND only), "preconditioner", "solve".
    phases: dict[str, float] = field(default_factory=dict)
    residual_history: list[float] = field(default_factory=list)


def _relative_residual(matrix: sp.csc_matrix, rhs: np.ndarray, x: np.ndarray) -> float:
    b_norm = np.linalg.norm(rhs)
    if b_norm == 0.0:
        return float(np.linalg.norm(matrix @ x))
    return float(np.linalg.norm(rhs - matrix @ x) / b_norm)


def dissection_keys(positions: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Geometric nested dissection of the graph with edges heads[k] - tails[k].

    Each part of more than ND_LEAF nodes is split at its median node along
    the longer side of its bounding box (x on a tie; equal coordinates in
    node order), and the lower-side endpoints of the edges that cross the
    cut become its separator. Every level splits all parts at once. A
    node's key holds one base-3 digit per level: 0 for the lower child, 1
    for the upper one, 2 for the separator, and 0 once its part is done.
    np.argsort(keys, kind="stable") is therefore the dissection order:
    children before their separator, node index last.
    """
    N = len(positions)
    rank = np.empty((2, N), dtype=np.int64)  # position along x and y, ties by index
    for axis in (0, 1):
        rank[axis, np.argsort(positions[:, axis], kind="stable")] = np.arange(N)
    keys = np.zeros(N, dtype=np.int64)  # 39 levels fit, far beyond any cloud
    members = np.arange(N)  # the nodes of the parts still to split, part by part
    starts = np.array([0])
    while True:
        sizes = np.diff(np.append(starts, members.size))
        big = sizes > ND_LEAF
        if not big.any():
            return keys
        members = members[np.repeat(big, sizes)]
        sizes = sizes[big]
        starts = np.cumsum(sizes) - sizes
        part = np.repeat(np.arange(sizes.size), sizes)
        xy = positions[members]
        extent = np.maximum.reduceat(xy, starts) - np.minimum.reduceat(xy, starts)
        axis = (extent[:, 1] > extent[:, 0]).astype(np.intp)
        members = members[np.argsort(part * N + rank[axis[part], members])]
        upper = np.arange(members.size) - starts[part] >= (sizes // 2)[part]
        side = np.full(N, -1, dtype=np.int8)
        side[members] = upper
        # Kept edges join nodes of one part, as both ends are still live.
        head_side, tail_side = side[heads], side[tails]
        live = (head_side >= 0) & (tail_side >= 0)
        cross = live & (head_side != tail_side)
        separator = np.zeros(N, dtype=bool)
        separator[np.where(head_side[cross] == 0, heads[cross], tails[cross])] = True
        # A crossing edge has a separator end, so only same-side edges live on.
        same = live & ~cross
        heads, tails = heads[same], tails[same]
        keys *= 3
        keys[members] += np.where(separator[members], 2, upper)
        kept = ~separator[members]
        members, child = members[kept], (2 * part + upper)[kept]
        starts = np.flatnonzero(np.diff(child, prepend=-1))


def _node_graph(system: SparseSystem) -> tuple[np.ndarray, np.ndarray]:
    """Edges i -> j, i != j, wherever row u_i holds column u_j: j is in the support of i."""
    A = system.matrix.tocsr()
    N = system.n_nodes
    cols = A.indices[: A.indptr[N]]
    rows = np.repeat(np.arange(N, dtype=cols.dtype), np.diff(A.indptr[: N + 1]))
    edge = (cols < N) & (cols != rows)
    return rows[edge], cols[edge]


def _dissection_order(system: SparseSystem) -> np.ndarray | None:
    """Unknown order [u_k, v_k] by nested dissection, or None where minimum degree is kept."""
    row_nnz = np.diff(system.matrix.tocsr().indptr)
    if system.positions is None or row_nnz.max(initial=0) > 2 * ND_MAX_SUPPORT:
        return None
    order = np.argsort(dissection_keys(system.positions, *_node_graph(system)), kind="stable")
    return np.stack([order, order + system.n_nodes], axis=1).ravel()


def _equilibrate(system: SparseSystem) -> tuple[sp.csc_matrix, np.ndarray]:
    """D A in CSC and D b, D scaling each row to unit max magnitude.

    The CSC copy comes first and is scaled in place, and the row maxima
    are read off the CSR without a temporary as large as the matrix.
    """
    A = system.matrix.tocsr()
    C = A.tocsc()
    row_max = np.zeros(A.shape[0])
    if A.nnz:
        nonempty = np.diff(A.indptr) > 0
        starts = A.indptr[:-1][nonempty]
        row_max[nonempty] = np.maximum(np.maximum.reduceat(A.data, starts), -np.minimum.reduceat(A.data, starts))
    d = np.where(row_max > 0, 1.0 / np.where(row_max > 0, row_max, 1.0), 1.0)
    C.data *= d[C.indices]
    C.eliminate_zeros()  # as the product D A would
    return C, d * system.rhs


def solve(system: SparseSystem, config: SolverConfig = SolverConfig()) -> tuple[tuple[np.ndarray, np.ndarray], SolveReport]:
    """Solve for the displacement vectors (u, v).

    Returns the solution split into its u and v halves together with a
    report of iteration count, achieved relative residual and phase times.
    """
    N = system.n_nodes
    report = SolveReport(config.method, 0, np.inf)
    t0 = time.perf_counter()
    perm = _dissection_order(system) if config.method == "direct" else None
    if perm is not None:  # P A P^T x' = P b, where P puts unknown perm[k] at k
        system = SparseSystem(system.matrix.tocsr()[perm][:, perm], system.rhs[perm], N)
        report.phases["ordering"] = time.perf_counter() - t0
    t0 = time.perf_counter()  # the preconditioner phase includes the row scaling
    matrix, rhs = _equilibrate(system)
    del system  # neither the given nor a permuted system outlives its scaled copy
    if _malloc_trim is not None:
        _malloc_trim(0)
    dim = matrix.shape[0]
    maxiter = int(10.0 * np.sqrt(dim)) + 1000
    try:
        if config.method == "direct":
            report.ordering = "MMD_AT_PLUS_A" if perm is None else ND
            factor = spla.splu(
                matrix,
                permc_spec="MMD_AT_PLUS_A" if perm is None else "NATURAL",
                diag_pivot_thresh=0.0,
                relax=1 if perm is None else None,  # None keeps SuperLU's default
                panel_size=LU_PANEL,
                options=dict(SymmetricMode=True),
            )
        else:
            report.ordering = "COLAMD"
            factor = spla.spilu(matrix, fill_factor=ILUT_FILL_FACTOR, drop_tol=ILUT_DROP_TOL)
    except RuntimeError as exc:
        name = (
            f"complete LU ({report.ordering}, diagonal pivots)"
            if config.method == "direct"
            else "incomplete LU"
        )
        raise NonConvergenceError(f"{name} factorization failed: {exc}") from exc
    report.phases["preconditioner"] = time.perf_counter() - t0
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
    report.phases["solve"] = time.perf_counter() - t0
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

    if perm is not None:
        x[perm] = x.copy()  # unknown perm[k] was solved for at k
    return (x[:N], x[N:]), report
