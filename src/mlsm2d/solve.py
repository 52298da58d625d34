"""Sparse linear solvers for the assembled collocation systems.

Both methods factor the matrix and run BiCGSTAB with the factor as
preconditioner, judging convergence on the true residual
|b - A x| <= tol * |b|; restarts from the current iterate act as iterative
refinement. "bicgstab-ilut" is a threshold incomplete LU at fixed
settings, the memory-bounded alternative kept as an oracle. "direct" (the
default) is a complete LU in SuperLU's symmetric mode with diagonal
pivots, made in float32 first (mixed-precision refinement: Buttari et
al., ACM TOMS 34(4), 2008; Higham 2002, ch. 12) from the data rounded to
float32 on the float64 matrix's own index arrays, with the same ordering
and options; every product and residual stays float64. BiCGSTAB iterates
toward tol / 100 and succeeds once the true residual is at most tol.
Float32 entries take 8 bytes, not 12, which cuts the peak RSS of the
1e5-node cantilever and hertz by about a fifth and speeds up the
factorization, but the solve takes 3-7 iterations of two triangular
solves each. The float64 factor is made instead when the float32
factorization fails, BiCGSTAB breaks down or stops above tol, or the
attempt falls behind: the residual after k iterations must be at most
SINGLE_GAIN^-k. Converging systems fall 100x or more every two iterations
and are below 6e-3 after one; systems that the float32 factor cannot
precondition stay above 1e-3 (above 1e-1 after one iteration on the
drilled stall clouds), and ran 41-59 s unbounded. An abandoned attempt
thus costs its factorization and about one iteration, and one that keeps
pace is below tol / 100 within log10(100 / tol) iterations. The float32
factor is freed first, and the float64 solve runs from x = 0 as if no
attempt had been made, with the same bits, message and exit code. On its
factor BiCGSTAB may stop at the first half-step; on the 1e5-node
cantilever that residual lands within a factor of 2 of 1e-10, so
rounding decides whether it does.

Systems with node positions and at most 9 nodes per support are ordered
by geometric nested dissection (George 1973; see dissection_keys), each
node's [u, v] pair kept together: at 1e5 nodes the factor has 33M entries
against 43M under minimum degree. Every other system is ordered by
minimum degree on A^T + A, as collocation matrices are nearly
structurally symmetric (hertz: 21M entries against 25-51M under every
dissection tried), without relaxed supernodes (relax=1, fewer entries;
dissection keeps the default, as relax=1 made it 3% slower). Panels of
LU_PANEL = 4 columns, not SuperLU's 20, shrink the work arrays of the 1e5-
node cantilever from 65 to 13 MB. The pivot threshold is 0, so a diagonal
pivot is taken unless it is exactly zero: any threshold above 0 lets
partial pivoting break the ordering, and a tiny pivot is caught by the
true-residual check and mended by restarts. Callers choose the method,
the tolerance and the timer; the iteration budget is 1000 + 10 sqrt(dim),
and an iterate that stops improving short of the tolerance raises
NonConvergenceError as a stall, or as a breakdown if it is not finite.

Collocation rows mix wildly different scales (E / spacing^2 in interior
rows, unit diagonals in essential rows), which puts the raw condition
number near 1e16 and makes the incomplete factorization report spurious
singularity. Both methods therefore solve the row-equilibrated system
D A x = D b with D = diag(1 / max|row|); residuals are reported for it.
In D A every off-diagonal entry at most ROUNDING = 2^-44 (256 ulps of the
row's unit maximum) is set to +0.0: the SVD round-off of stencil weights
that are exactly zero (1.81M of cantilever-1e5's 3.63M entries are at most
1.15e-14, the rest at least 8.2e-3). Nested dissection, ordered from the
assembled pattern, then drops them (factor 33.33M -> 32.67M entries, peak
RSS -25 MB). Minimum degree and ILUT, which order by the stored pattern,
keep them as explicit zeros: dropped, hertz's 0.35M gave 22.24M factor
entries against 20.13M and an abandoned float32 rung (1.7 -> 3.6 s). A
diagonal entry is never zeroed, and exact zeros leave every pattern.
One CSC copy of D A (of D P A P^T under nested dissection) serves the
factors, the BiCGSTAB products and every residual, and solve drops the
system it was given once that copy is made. Before the first
factorization, solve returns the heap that assembly, ordering and scaling
freed to the OS (glibc's malloc_trim), as the factor would otherwise peak
on top of it (62 MB on the 1e5-node cantilever). It then pins glibc's
mmap threshold, which those frees had raised, to MMAP_THRESHOLD (mallopt),
so each block that SuperLU frees is unmapped at once instead of staying
in a grown heap (hertz's heap grew by 15 MB in splu). Both calls are
skipped where the C library lacks them. While the float32 LU is made,
the float64 values are freed (and the heap trimmed again): _split holds
them exactly as the float32 data that SuperLU factors plus int32
remainders, 8 bytes per entry instead of 12, and _join rebuilds them bit
for bit. A matrix with a value that float32 cannot hold that way (-0.0,
non-finite, subnormal or flushed to zero) keeps a float32 copy instead.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .elasticity import SparseSystem
from .timing import PhaseTimer


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

SPLIT_CHUNK = 1 << 13  # entries per chunk of _split and _join: 64 KiB float64 temporaries, below MMAP_THRESHOLD

SINGLE_GAIN = 10.0  # least residual fall per float32 iteration (see the module docstring)

ROUNDING = 2.0**-44  # off-diagonal entries of a unit-max row at most this are stencil round-off, set to +0.0

M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 128 * 1024  # glibc's mallopt parameter and solve's pin


def _libc(name: str, argtypes: list, restype: type):
    """The C library's function of that name through ctypes, or None where it has none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):  # none in musl or macOS; no CDLL(None) on Windows
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


_malloc_trim = _libc("malloc_trim", [ctypes.c_size_t], ctypes.c_int)
_mallopt = _libc("mallopt", [ctypes.c_int, ctypes.c_int], ctypes.c_int)


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
    residual_history: list[float] = field(default_factory=list)
    precision: str = ""  # the factor's data type in the solve that was returned: "float32" or "float64"


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


def _dissectable(system: SparseSystem) -> bool:
    """Whether nested dissection orders the direct solve: positions known, at most ND_MAX_SUPPORT nodes per support."""
    return system.positions is not None and np.diff(system.matrix.tocsr().indptr).max(initial=0) <= 2 * ND_MAX_SUPPORT


def _dissection_order(system: SparseSystem) -> np.ndarray:
    """Unknown order [u_k, v_k] by nested dissection."""
    order = np.argsort(dissection_keys(system.positions, *_node_graph(system)), kind="stable")
    order = order.astype(system.matrix.tocsr().indices.dtype)  # int32 unless the matrix's entries need int64
    return np.stack([order, order + system.n_nodes], axis=1).ravel()


def _equilibrate(system: SparseSystem) -> tuple[sp.csc_matrix, np.ndarray]:
    """D A in CSC and D b, D scaling each row to unit max magnitude.

    The CSC copy comes first and is scaled in place, and the row maxima
    are read off the CSR without a temporary as large as the matrix. Exact
    zeros leave the pattern; off-diagonal entries at most ROUNDING stay in
    it as +0.0.
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
    column = np.repeat(np.arange(C.shape[1], dtype=C.indices.dtype), np.diff(C.indptr))
    np.putmask(C.data, (np.abs(C.data) <= ROUNDING) & (C.indices != column), 0.0)
    return C, d * system.rhs


@np.errstate(invalid="ignore", over="ignore")  # the values that fail the check below
def _split(data: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """data's float32 rounding hi, and a fresh float64 buffer holding int32 remainders lo in its upper half.

    data == hi + ldexp(lo, frexp(hi).exponent - 54) bit for bit, as the error
    of a float32 rounding is a multiple of 2^(e - 54) below 2^(e - 25). The
    buffer is None unless every hi is finite and every value's bits return.
    """
    hi, buffer = data.astype(np.float32), np.empty(data.size)
    lo = buffer.view(np.int32)[data.size :]
    for start in range(0, data.size, SPLIT_CHUNK):
        part = slice(start, start + SPLIT_CHUNK)
        h, d, e = hi[part], data[part], np.frexp(hi[part])[1]
        lo[part] = np.ldexp(d - h, 54 - e)
        if not (np.isfinite(h).all() and np.array_equal((h + np.ldexp(lo[part], e - 54)).view(np.int64), d.view(np.int64))):
            return hi, None
    return hi, buffer


def _join(hi: np.ndarray, buffer: np.ndarray) -> None:
    """Rebuilds _split's values into its buffer: in ascending chunks, value i overwrites only remainders already read."""
    lo = buffer.view(np.int32)[buffer.size :]
    for start in range(0, buffer.size, SPLIT_CHUNK):
        part = slice(start, start + SPLIT_CHUNK)
        buffer[part] = hi[part] + np.ldexp(lo[part], np.frexp(hi[part])[1] - 54)


def _factor(matrix: sp.csc_matrix, ordering: str, dtype: type) -> spla.SuperLU:
    """ILUT under COLAMD, else a complete LU in symmetric mode with diagonal pivots, of the data in dtype.

    A float32 LU factors float32 data on the matrix's own index arrays. While
    it runs, matrix.data is _split's buffer where the split is exact, rebuilt
    before this returns or raises; elsewhere the float32 data is a copy.
    """
    if ordering == "COLAMD":
        return spla.spilu(matrix, fill_factor=ILUT_FILL_FACTOR, drop_tol=ILUT_DROP_TOL)
    single, buffer = (None, None) if dtype is np.float64 else _split(matrix.data)
    if buffer is not None:
        matrix.data = buffer  # frees the float64 values
        if _malloc_trim is not None:
            _malloc_trim(0)
    try:
        return spla.splu(  # relax=None keeps SuperLU's default
            matrix if single is None else sp.csc_matrix((single, matrix.indices, matrix.indptr), matrix.shape),
            permc_spec="NATURAL" if ordering == ND else ordering, diag_pivot_thresh=0.0,
            relax=None if ordering == ND else 1, panel_size=LU_PANEL, options=dict(SymmetricMode=True),
        )
    finally:
        if buffer is not None:
            _join(single, buffer)


class _Abandoned(Exception):
    """A float32 attempt fell behind SINGLE_GAIN per iteration."""


def _iterate(matrix: sp.csc_matrix, rhs: np.ndarray, factor, dtype, target: float, report: SolveReport) -> np.ndarray | None:
    """BiCGSTAB from x = 0 on the factor, restarted while the true residual improves; None if abandoned."""
    maxiter = int(10.0 * np.sqrt(matrix.shape[0])) + 1000
    # An explicit dtype spares LinearOperator a probing solve with the factor.
    apply = factor.solve if dtype is np.float64 else lambda r: factor.solve(r.astype(dtype)).astype(np.float64)
    precond = spla.LinearOperator(matrix.shape, matvec=apply, dtype=np.float64)

    def callback(xk: np.ndarray) -> None:
        report.iterations += 1
        report.residual_history.append(_relative_residual(matrix, rhs, xk))
        if dtype is np.float32 and not report.residual_history[-1] <= SINGLE_GAIN**-report.iterations:
            raise _Abandoned

    x, x0, best = np.zeros(matrix.shape[0]), None, np.inf
    try:
        while report.iterations < maxiter:
            x, _ = spla.bicgstab(
                matrix, rhs, rtol=target, atol=0.0, maxiter=maxiter - report.iterations, M=precond, callback=callback, x0=x0
            )
            if not np.all(np.isfinite(x)):
                break
            # Judged on the true residual, which drifts from the recursive one
            # and survives Krylov inner-product collapse (a strong preconditioner
            # can break down right before convergence); restart while it improves.
            res = _relative_residual(matrix, rhs, x)
            if res <= target or res >= best:
                break
            best = res
            x0 = x
    except _Abandoned:
        return None
    report.residual = _relative_residual(matrix, rhs, x)
    return x


def solve(
    system: SparseSystem, config: SolverConfig = SolverConfig(), timer: PhaseTimer | None = None
) -> tuple[tuple[np.ndarray, np.ndarray], SolveReport]:
    """Solve for the displacement vectors (u, v).

    Returns the solution split into its u and v halves together with a
    report of iteration count and achieved relative residual, and times
    "ordering" (ND only), "preconditioner" and "solve" on timer or a fresh one.
    """
    timer = PhaseTimer() if timer is None else timer
    N = system.n_nodes
    report = SolveReport(config.method, 0, np.inf)
    direct = config.method == "direct"
    report.ordering = (ND if _dissectable(system) else "MMD_AT_PLUS_A") if direct else "COLAMD"
    if report.ordering == ND:
        with timer.phase("ordering"):  # P A P^T x' = P b, where P puts unknown perm[k] at k
            perm = _dissection_order(system)
            system = SparseSystem(system.matrix.tocsr()[perm][:, perm], system.rhs[perm], N)
    with timer.phase("preconditioner"):
        matrix, rhs = _equilibrate(system)
        if report.ordering == ND and matrix.nnz > np.count_nonzero(matrix.data):
            matrix.eliminate_zeros()  # keeps views of the full arrays when more than half the entries stay
            matrix.indices, matrix.data = matrix.indices.copy(), matrix.data.copy()
        del system  # neither the given nor a permuted system outlives its scaled copy
        if _malloc_trim is not None:
            _malloc_trim(0)
        if _mallopt is not None:
            _mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    rungs = [(np.float32, config.tolerance / 100)] if direct else []  # (factor dtype, BiCGSTAB target)
    for dtype, target in rungs + [(np.float64, config.tolerance)]:
        report.precision, report.iterations, report.residual_history = np.dtype(dtype).name, 0, []
        try:
            with timer.phase("preconditioner"):
                factor = _factor(matrix, report.ordering, dtype)
        except RuntimeError as exc:
            if dtype is np.float64:
                name = f"complete LU ({report.ordering}, diagonal pivots)" if direct else "incomplete LU"
                raise NonConvergenceError(f"{name} factorization failed: {exc}") from exc
            continue
        report.factor_nnz = int(factor.nnz)
        with timer.phase("solve"):
            x = _iterate(matrix, rhs, factor, dtype, target, report)
        del factor  # a float32 factor is freed before the float64 one is made
        if x is not None and report.residual <= config.tolerance:
            break

    if not np.all(np.isfinite(x)):
        raise NonConvergenceError("BiCGSTAB broke down (singular or indefinite system?)", report.residual_history)
    if report.residual > config.tolerance:
        raise NonConvergenceError(f"BiCGSTAB stalled at relative residual {report.residual:.3e} after {report.iterations}"
                                  f" iterations (tolerance {config.tolerance:.1e})", report.residual_history)

    if report.ordering == ND:
        x[perm] = x.copy()  # unknown perm[k] was solved for at k
    return (x[:N], x[N:]), report
