"""The pipeline, result container and error norms shared by the benchmark cases."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..elasticity import BoundaryConditions, Material, SparseSystem, StressField, assemble, compute_stresses
from ..neighbors import build_supports
from ..nodes import NodeSet
from ..shapes import BasisSpec, WeightSpec, build_shape_set
from ..solve import SolveReport, SolverConfig, solve
from ..timing import PhaseTimer, TimingReport


def error_einf(values, refs, scale: float | None = None) -> float:
    """Normalized max-norm error of a field given as a tuple of components.

    The largest componentwise deviation over all nodes, divided by the
    largest componentwise magnitude of the reference field, unless an
    explicit scale (e.g. a peak pressure) is given.
    """
    num = max(np.max(np.abs(np.asarray(c) - np.asarray(r))) for c, r in zip(values, refs, strict=True))
    if scale is None:
        scale = max(np.max(np.abs(r)) for r in refs)
    if scale == 0.0:
        raise ValueError("reference field is identically zero")
    return float(num / scale)


@dataclass
class CaseResult:
    """Everything a benchmark run produces."""

    nodes: NodeSet
    u: np.ndarray
    v: np.ndarray
    stress: StressField
    errors: dict[str, float]
    solve_report: SolveReport
    timings: TimingReport
    extras: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return self.nodes.n


def solve_on_cloud(
    timer: PhaseTimer,
    nodes: NodeSet,
    material: Material,
    make_bcs: Callable[[NodeSet], BoundaryConditions],
    measure: Callable[[NodeSet, np.ndarray, np.ndarray, StressField], tuple[dict, dict]],
    *,
    basis: BasisSpec,
    support_n: int,
    weight: WeightSpec,
    solver: SolverConfig,
) -> CaseResult:
    """Supports, shapes, assembly, solve and stress recovery on a finished cloud, each timed on timer.

    make_bcs(nodes) runs inside the assembly phase; measure(nodes, u, v,
    stress) runs inside the postprocess phase and returns the case's errors
    and extras. extras["assemble"]() assembles the system again.
    """
    with timer.phase("supports"):
        supports = build_supports(nodes, support_n)
    with timer.phase("shapes"):
        shapes = build_shape_set(nodes, supports, basis, weight)
    del supports  # the shapes keep the indices; the distances are dead

    def assembled() -> SparseSystem:
        return assemble(nodes, shapes, material, make_bcs(nodes))

    # Timed by decorating and unnamed here, so solve frees it before factoring.
    (u, v), report = solve(timer.phase("assembly")(assembled)(), solver, timer)
    with timer.phase("postprocess"):
        stress = compute_stresses(shapes, material, u, v)
        errors, extras = measure(nodes, u, v, stress)
    return CaseResult(
        nodes=nodes,
        u=u,
        v=v,
        stress=stress,
        errors=errors,
        solve_report=report,
        timings=timer.report(),
        extras={**extras, "assemble": assembled},
    )
