"""Hertzian line contact on an elastic half-plane, McEwen reference stresses.

A rigid-ish cylinder pressed onto a half-plane with line load P produces the
classical elliptic pressure distribution

    p(x) = p0 sqrt(1 - x^2 / b^2),   |x| <= b,

with contact half-width b = 2 sqrt(P R / (pi E*)) and peak pressure
p0 = sqrt(P E* / (pi R)), where 1/R = 1/R1 + 1/R2 and
1/E* = (1 - nu1^2)/E1 + (1 - nu2^2)/E2. The paper's problem is fixed: a
cylinder of radius R = 1 on a flat (R2 = inf) of the same material
(E = 72.1e9, nu = 0.33) under P = 543, so E*, b and p0 are the module
constants E_STAR, HALF_WIDTH and PEAK_PRESSURE. The benchmark models the
half-plane as a large square [-H, H] x [-H, 0]: the top edge carries the
pressure as a traction, the remaining edges are held fixed. H is the one
setting, `hertz_cloud`'s half_size (1000 b by default). Stresses are
compared against the McEwen closed-form subsurface field, which is
evaluated with the auxiliary quantities

    m^2, n^2 = (sqrt((b^2 - x^2 + y^2)^2 + 4 x^2 y^2) +- (b^2 - x^2 + y^2)) / 2,

m >= 0 and n carrying the sign of x. The lone singular point of the
formulas, (x, y) = (+-b, 0), is the contact edge where all components
vanish; it is returned as zero.

The pressure peak concentrates everything interesting within a few b of the
origin while the domain is three orders of magnitude larger, so the case
leans on nested h-refinement toward the contact, optionally with secondary
refinement toward the pressure edges at x = +-b: `refinement_schedule` turns
a count of primary and of secondary levels into the nested regions.
"""
from __future__ import annotations

import math

import numpy as np

from .. import refine
from ..elasticity import BoundaryConditions, Material
from ..nodes import NodeSet, Rect, build_rectangle_grid
from ..shapes import BasisSpec, WeightSpec
from ..solve import SolverConfig
from ..timing import PhaseTimer
from .metrics import CaseResult, error_einf, solve_on_cloud

# Nested refinement factors toward the contact, in units of b, largest first.
PRIMARY_FACTORS = (500.0, 200.0, 100.0, 50.0, 20.0, 10.0, 5.0, 4.0, 3.0, 2.0)
# Additional refinement toward the pressure edges x = +-b, in units of b.
SECONDARY_FACTORS = (0.4, 0.3)

P = 543.0
E = 72.1e9
NU = 0.33
R = 1.0
# Written as the two-body sums above, which fix the bits of every Hertz output.
E_STAR = 1.0 / ((1.0 - NU**2) / E + (1.0 - NU**2) / E)
HALF_WIDTH = 2.0 * math.sqrt(P * R / (math.pi * E_STAR))
PEAK_PRESSURE = math.sqrt(P * E_STAR / (math.pi * R))
MATERIAL = Material(E, NU, "plane-stress")


def hertz_pressure(x, half_width: float, peak: float) -> np.ndarray:
    """Elliptic contact pressure, zero outside |x| <= half_width."""
    x = np.asarray(x, dtype=float)
    t = 1.0 - (x / half_width) ** 2
    return peak * np.sqrt(np.maximum(t, 0.0))


def hertz_stress(x, y, half_width: float, peak: float):
    """McEwen stresses (sxx, syy, sxy) at points of the half-plane y <= 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    b = half_width
    a = b * b - x * x + y * y
    xy = x * y
    s = np.hypot(a, 2.0 * xy)
    with np.errstate(invalid="ignore", divide="ignore"):
        m2 = np.where(a >= 0.0, 0.5 * (s + a), 2.0 * xy * xy / (s - a))
        n2 = np.where(a >= 0.0, 2.0 * xy * xy / (s + a), 0.5 * (s - a))
        m = np.sqrt(m2)
        n = np.sign(x) * np.sqrt(n2)
        denom = m2 + n2
        ratio = (y * y + n2) / denom
        sxx = -(peak / b) * (m * (1.0 + ratio) + 2.0 * y)
        syy = -(peak / b) * m * (1.0 - ratio)
        sxy = (peak / b) * n * ((m2 - y * y) / denom)
    singular = denom == 0.0
    return tuple(np.where(singular, 0.0, s) for s in (sxx, syy, sxy))


def refinement_schedule(
    half_width: float,
    refine_levels: int = len(PRIMARY_FACTORS),
    secondary_levels: int = len(SECONDARY_FACTORS),
) -> list[refine.RefineRegion]:
    """Nested refinement regions toward the contact and its edges.

    Primary rectangles [-f b, f b] x [-f b, 0] over the refine_levels
    leading PRIMARY_FACTORS shrink toward the origin; each factor deepens
    the refinement level by one. Secondary rectangles of the same shape
    over the secondary_levels leading SECONDARY_FACTORS center on x = +-b
    and continue the level count, refining the pressure-edge neighborhoods
    further. A count outside [0, number of factors] raises ValueError.
    """
    if not (0 <= refine_levels <= len(PRIMARY_FACTORS) and 0 <= secondary_levels <= len(SECONDARY_FACTORS)):
        raise ValueError(
            f"refine_levels must be in [0, {len(PRIMARY_FACTORS)}] and secondary_levels in"
            f" [0, {len(SECONDARY_FACTORS)}], got {refine_levels} and {secondary_levels}"
        )
    b = half_width
    regions: list[refine.RefineRegion] = []
    level = 0
    for f in PRIMARY_FACTORS[:refine_levels]:
        level += 1
        regions.append(refine.RefineRegion(Rect(-f * b, f * b, -f * b, 0.0), level))
    for f in SECONDARY_FACTORS[:secondary_levels]:
        level += 1
        for c in (-b, b):
            regions.append(refine.RefineRegion(Rect(c - f * b, c + f * b, -f * b, 0.0), level))
    return regions


def hertz_bcs(nodes) -> BoundaryConditions:
    """Contact pressure as traction on the top edge's inner nodes, all other boundary nodes essential at zero."""
    rect = nodes.domain.rect
    bnd = np.flatnonzero(nodes.boundary_mask)
    x = nodes.positions[bnd, 0]
    y = nodes.positions[bnd, 1]
    on_top = (y == rect.y_hi) & (x > rect.x_lo) & (x < rect.x_hi)
    essential = np.zeros(nodes.n, dtype=bool)
    essential[bnd] = ~on_top
    values = np.zeros((nodes.n, 2))
    values[bnd[on_top], 1] = -hertz_pressure(x[on_top], HALF_WIDTH, PEAK_PRESSURE)
    return BoundaryConditions(essential, values)


def hertz_measure(nodes: NodeSet, u, v, stress) -> tuple[dict, dict]:
    x, y = nodes.positions[:, 0], nodes.positions[:, 1]
    sxx, syy, sxy = hertz_stress(x, y, HALF_WIDTH, PEAK_PRESSURE)
    errors = {
        "e_inf_sigma": error_einf((stress.sxx, stress.syy, stress.sxy), (sxx, syy, sxy), scale=PEAK_PRESSURE)
    }
    return errors, {}


def hertz_cloud(
    timer: PhaseTimer, *, half_size: float | None = None, nx: int = 69,
    refine_levels: int = len(PRIMARY_FACTORS), secondary_levels: int = len(SECONDARY_FACTORS),
) -> NodeSet:
    """The contact cloud, timed as the domain and refinement phases of timer.

    A coarse nx-point grid on [-H, H] x [-H, 0] (H = half_size, or 1000
    contact half-widths) refined by `refinement_schedule`: about 3e4 nodes.
    H must be finite and exceed HALF_WIDTH.
    """
    if nx < 3:
        raise ValueError(f"nx must be at least 3, got {nx}")
    H = 1000.0 * HALF_WIDTH if half_size is None else half_size
    if not HALF_WIDTH < H < math.inf:
        bound = "be finite" if H == math.inf else f"exceed the contact half-width {HALF_WIDTH}"
        raise ValueError(f"domain half-size {H} must {bound}")
    with timer.phase("domain"):
        nodes = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / (nx - 1))
    with timer.phase("refinement"):
        regions = refinement_schedule(HALF_WIDTH, refine_levels, secondary_levels)
        return refine.refine_levels(nodes, regions)


def hertz_case(
    *,
    half_size: float | None = None,
    nx: int = 69,
    refine_levels: int = len(PRIMARY_FACTORS),
    secondary_levels: int = len(SECONDARY_FACTORS),
    basis: BasisSpec = BasisSpec(),
    support_n: int = 15,
    weight: WeightSpec = WeightSpec(),
    solver: SolverConfig = SolverConfig(),
) -> CaseResult:
    """Solve the contact benchmark on `hertz_cloud`; 15-node supports keep the refinement interfaces full rank."""
    timer = PhaseTimer()
    nodes = hertz_cloud(
        timer, half_size=half_size, nx=nx, refine_levels=refine_levels, secondary_levels=secondary_levels
    )
    return solve_on_cloud(
        timer,
        nodes,
        MATERIAL,
        hertz_bcs,
        hertz_measure,
        basis=basis,
        support_n=support_n,
        weight=weight,
        solver=solver,
    )
