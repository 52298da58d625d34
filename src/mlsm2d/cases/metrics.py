"""The pipeline, result container and error norms shared by the benchmark cases."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..elasticity import BoundaryConditions, Material, StressField, assemble, compute_stresses
from ..neighbors import build_supports
from ..nodes import NodeSet
from ..shapes import BasisSpec, WeightSpec, build_shape_set
from ..solve import SolveReport, SolverConfig, solve
from ..timing import PhaseTimer, TimingReport


def error_einf_displacement(u, v, u_ref, v_ref) -> float:
    """Normalized max-norm displacement error.

    Largest componentwise deviation over all nodes, divided by the largest
    componentwise magnitude of the reference field.
    """
    num = max(np.max(np.abs(np.asarray(u) - np.asarray(u_ref))), np.max(np.abs(np.asarray(v) - np.asarray(v_ref))))
    den = max(np.max(np.abs(u_ref)), np.max(np.abs(v_ref)))
    if den == 0.0:
        raise ValueError("reference displacement field is identically zero")
    return float(num / den)


def error_einf_stress(stress: StressField, sxx_ref, syy_ref, sxy_ref, scale: float | None = None) -> float:
    """Normalized max-norm stress error over all three components.

    The denominator is the largest componentwise magnitude of the reference
    stress, unless an explicit scale (e.g. a peak pressure) is given.
    """
    num = max(
        np.max(np.abs(stress.sxx - np.asarray(sxx_ref))),
        np.max(np.abs(stress.syy - np.asarray(syy_ref))),
        np.max(np.abs(stress.sxy - np.asarray(sxy_ref))),
    )
    if scale is None:
        scale = max(np.max(np.abs(sxx_ref)), np.max(np.abs(syy_ref)), np.max(np.abs(sxy_ref)))
    if scale == 0.0:
        raise ValueError("reference stress field is identically zero")
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
    """Supports, shapes, assembly, solve and stress recovery on a finished cloud.

    make_bcs(nodes) runs inside the assembly phase; measure(nodes, u, v,
    stress) runs inside the postprocess phase and returns the case's errors
    and extras. The assembled system is added to the extras.
    """
    with timer.phase("supports"):
        supports = build_supports(nodes, support_n)
    with timer.phase("shapes"):
        shapes = build_shape_set(nodes, supports, basis, weight)
    with timer.phase("assembly"):
        system = assemble(nodes, shapes, material, make_bcs(nodes))
    (u, v), report = solve(system, solver)
    timer.add("preconditioner", report.t_preconditioner)
    timer.add("solve", report.t_iterations)
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
        extras={**extras, "system": system},
    )
