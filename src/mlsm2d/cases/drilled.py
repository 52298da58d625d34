"""Cantilever with drilled holes: an irregular-domain engineering demo.

The cantilever's RECT and MATERIAL (module `beam`) with the three fixed
HOLES drilled through it, clamped on the right and pushed down on the left
by a uniform traction of resultant P. No closed-form solution exists; the
case reports the tip deflection for comparison against the solid-beam
reference and the location of the von Mises maximum, which should sit on a
hole boundary where the stress concentrates. Node positioning (optional
refinement around the holes plus relaxation) exercises the irregular-cloud
pipeline end to end; it is `hole_refined_cloud`, which builds the cloud of
any drilled rectangle without solving.
"""
from __future__ import annotations

import numpy as np

from .. import refine
from ..elasticity import BoundaryConditions
from ..nodes import Circle, NodeSet, Rect, build_drilled_domain
from ..relax import ITERATIONS, relax
from ..shapes import BasisSpec, WeightSpec
from ..solve import SolverConfig
from ..timing import PhaseTimer
from .beam import D, MATERIAL, P, RECT
from .metrics import CaseResult, solve_on_cloud

HOLES = (Circle(8.0, 0.5, 1.5), Circle(15.0, -0.6, 1.0), Circle(22.0, 0.4, 1.25))


def drilled_bcs(nodes: NodeSet) -> BoundaryConditions:
    """Clamp the right edge (its nodes marked essential), push down uniformly on the left, free elsewhere."""
    rect = nodes.domain.rect
    x = nodes.positions[:, 0]
    values = np.zeros((nodes.n, 2))
    values[nodes.boundary_mask & (x == rect.x_lo), 1] = -P / D
    return BoundaryConditions(essential=nodes.boundary_mask & (x == rect.x_hi), values=values)


def drilled_measure(nodes: NodeSet, u, v, stress) -> tuple[dict, dict]:
    """Deflection of the node nearest the loaded end's midpoint, and the von Mises peak."""
    tip = int(np.argmin(np.hypot(nodes.positions[:, 0] - 0.0, nodes.positions[:, 1])))
    vm = stress.von_mises
    peak = int(np.argmax(vm))
    extras = {"tip_node": tip, "peak_vm_node": peak, "peak_vm": float(vm[peak])}
    return {"tip_deflection": float(v[tip])}, extras


def _hole_box(hole: Circle, rect: Rect, margin: float) -> Rect:
    """The square of half-side 1.6 radii around a hole, snapped to rect.

    A region edge running parallel to a nearby outer boundary leaves the
    coarse boundary row starved next to refined interior nodes, so each
    side that comes within margin of the rectangle is extended to it.
    """
    span = 1.6 * hole.radius
    x_lo, x_hi, y_lo, y_hi = hole.cx - span, hole.cx + span, hole.cy - span, hole.cy + span
    return Rect(
        rect.x_lo if x_lo - rect.x_lo < margin else x_lo,
        rect.x_hi if rect.x_hi - x_hi < margin else x_hi,
        rect.y_lo if y_lo - rect.y_lo < margin else y_lo,
        rect.y_hi if rect.y_hi - y_hi < margin else y_hi,
    )


def hole_refined_cloud(
    timer: PhaseTimer,
    rect: Rect,
    holes: tuple[Circle, ...],
    spacing: float,
    refine_levels: int,
    relax_iterations: int = ITERATIONS,
) -> NodeSet:
    """Node positioning on a drilled rectangle: domain, hole refinement, relaxation.

    The box of each hole (`_hole_box`, two spacings of margin) is refined
    refine_levels times, then the cloud is relaxed for relax_iterations
    sweeps; either step is skipped at exactly 0, and a negative setting
    raises ValueError. The steps are timed as the domain, refinement and
    relaxation phases of timer.
    """
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be nonnegative, got {refine_levels}")
    with timer.phase("domain"):
        nodes = build_drilled_domain(rect, holes, spacing)
    if refine_levels != 0:
        with timer.phase("refinement"):
            regions = [refine.RefineRegion(_hole_box(h, rect, 2.0 * spacing), refine_levels) for h in holes]
            nodes = refine.refine_levels(nodes, regions)
    if relax_iterations != 0:
        with timer.phase("relaxation"):
            nodes = relax(nodes, relax_iterations)
    return nodes


def drilled_cantilever_case(
    spacing: float = 0.25,
    *,
    basis: BasisSpec = BasisSpec(),
    support_n: int = 15,
    weight: WeightSpec = WeightSpec(),
    solver: SolverConfig = SolverConfig(),
    refine_levels: int = 1,
    relax_iterations: int = ITERATIONS,
) -> CaseResult:
    """Solve the drilled cantilever, refining and relaxing around the holes.

    Refinement alone leaves an abrupt density interface around each hole
    that costs several orders of magnitude in conditioning, so the default
    pipeline always relaxes after refining to grade the spacing. The base
    spacing must keep at least two interior rows in every ligament between
    a hole and the outer boundary; 0.25 does for the default geometry.
    support_n = 15 keeps hole-ring and interface supports full rank.
    """
    timer = PhaseTimer()
    nodes = hole_refined_cloud(timer, RECT, HOLES, spacing, refine_levels, relax_iterations)
    return solve_on_cloud(
        timer,
        nodes,
        MATERIAL,
        drilled_bcs,
        drilled_measure,
        basis=basis,
        support_n=support_n,
        weight=weight,
        solver=solver,
    )
