"""Cantilever with drilled holes: an irregular-domain engineering demo.

No closed-form solution exists; the case reports the tip deflection for
comparison against the solid-beam reference and the location of the von
Mises maximum, which should sit on a hole boundary where the stress
concentrates. Node positioning (optional refinement around the holes plus
relaxation) exercises the irregular-cloud pipeline end to end.
"""
from __future__ import annotations

import numpy as np

from dataclasses import dataclass

from ..elasticity import BoundaryConditions, Material
from ..nodes import Circle, NodeSet, Rect, build_drilled_domain
from ..refine import RefineConfig, RefineRegion, refine_levels
from ..relax import RelaxConfig, relax
from ..shapes import BasisSpec, WeightSpec
from ..solve import SolverConfig
from ..timing import PhaseTimer
from .metrics import CaseResult, solve_on_cloud


@dataclass(frozen=True)
class DrilledBeamParams:
    length: float = 30.0
    height: float = 5.0
    E: float = 72.1e9
    nu: float = 0.33
    load: float = 1000.0
    holes: tuple[Circle, ...] = (
        Circle(8.0, 0.5, 1.5),
        Circle(15.0, -0.6, 1.0),
        Circle(22.0, 0.4, 1.25),
    )

    @property
    def rect(self) -> Rect:
        return Rect(0.0, self.length, -self.height / 2.0, self.height / 2.0)


def drilled_bcs(nodes: NodeSet, params: DrilledBeamParams) -> BoundaryConditions:
    """Clamp the right edge, push down uniformly on the left, free elsewhere."""
    bcs = BoundaryConditions.empty(nodes.n)
    rect = nodes.domain.rect
    bnd = np.nonzero(nodes.boundary_mask)[0]
    x = nodes.positions[bnd, 0]
    t_left = -params.load / params.height
    for k, i in enumerate(bnd):
        if x[k] == rect.x_hi:
            bcs.set_essential(i, (0.0, 0.0))
        elif x[k] == rect.x_lo:
            bcs.set_traction(i, (0.0, t_left))
        else:
            bcs.set_traction(i, (0.0, 0.0))
    return bcs


def _snap_to_rect(box: Rect, rect: Rect, margin: float) -> Rect:
    x_lo = rect.x_lo if box.x_lo - rect.x_lo < margin else box.x_lo
    x_hi = rect.x_hi if rect.x_hi - box.x_hi < margin else box.x_hi
    y_lo = rect.y_lo if box.y_lo - rect.y_lo < margin else box.y_lo
    y_hi = rect.y_hi if rect.y_hi - box.y_hi < margin else box.y_hi
    return Rect(x_lo, x_hi, y_lo, y_hi)


def drilled_cantilever_case(
    spacing: float = 0.25,
    *,
    params: DrilledBeamParams = DrilledBeamParams(),
    basis: BasisSpec = BasisSpec(),
    support_n: int = 15,
    weight: WeightSpec = WeightSpec(),
    solver: SolverConfig = SolverConfig(tolerance=1e-8),
    refine_level: int = 1,
    refine_config: RefineConfig = RefineConfig(),
    relax_config: RelaxConfig | None = RelaxConfig(),
) -> CaseResult:
    """Solve the drilled cantilever, refining and relaxing around the holes.

    Refinement alone leaves an abrupt density interface around each hole
    that costs several orders of magnitude in conditioning, so the default
    pipeline always relaxes after refining to grade the spacing. The base
    spacing must keep at least two interior rows in every ligament between
    a hole and the outer boundary; 0.25 does for the default geometry.
    support_n = 15 keeps hole-ring and interface supports full rank, and
    the 1e-8 tolerance reflects the attainable accuracy of the iteration
    on these clouds (the hole rings push the conditioning past what 1e-10
    allows in double precision).
    """
    timer = PhaseTimer()
    with timer.phase("domain"):
        nodes = build_drilled_domain(params.rect, params.holes, spacing)
    if refine_level > 0:
        with timer.phase("refinement"):
            # A region edge running parallel to a nearby outer boundary leaves
            # the coarse boundary row starved next to refined interior nodes,
            # so boxes that come within two spacings of the rectangle are
            # extended to include it.
            regions = [
                RefineRegion(
                    _snap_to_rect(
                        Rect(
                            h.cx - 1.6 * h.radius,
                            h.cx + 1.6 * h.radius,
                            h.cy - 1.6 * h.radius,
                            h.cy + 1.6 * h.radius,
                        ),
                        params.rect,
                        2.0 * spacing,
                    ),
                    refine_level,
                )
                for h in params.holes
            ]
            nodes = refine_levels(nodes, regions, refine_config)
    if relax_config is not None:
        with timer.phase("relaxation"):
            nodes = relax(nodes, relax_config)

    def measure(nodes, u, v, stress):
        tip = int(np.argmin(np.hypot(nodes.positions[:, 0] - 0.0, nodes.positions[:, 1])))
        vm = stress.von_mises
        peak = int(np.argmax(vm))
        extras = {"tip_node": tip, "peak_vm_node": peak, "peak_vm": float(vm[peak])}
        return {"tip_deflection": float(v[tip])}, extras

    return solve_on_cloud(
        timer,
        nodes,
        Material(params.E, params.nu, "plane-stress"),
        lambda nodes: drilled_bcs(nodes, params),
        measure,
        basis=basis,
        support_n=support_n,
        weight=weight,
        solver=solver,
    )
