"""Hertzian line contact on an elastic half-plane, McEwen reference stresses.

A rigid-ish cylinder pressed onto a half-plane with line load P produces the
classical elliptic pressure distribution

    p(x) = p0 sqrt(1 - x^2 / b^2),   |x| <= b,

with contact half-width b = 2 sqrt(P R / (pi E*)) and peak pressure
p0 = sqrt(P E* / (pi R)), where 1/R = 1/R1 + 1/R2 and
1/E* = (1 - nu1^2)/E1 + (1 - nu2^2)/E2. The benchmark models the half-plane
as a large square [-H, H] x [-H, 0]: the top edge carries the pressure as a
traction, the remaining edges are held fixed. Stresses are compared against
the McEwen closed-form subsurface field, which is evaluated with the
auxiliary quantities

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
from dataclasses import dataclass
from functools import partial

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


@dataclass(frozen=True)
class HertzParams:
    load: float = 543.0
    E1: float = 72.1e9
    E2: float = 72.1e9
    nu1: float = 0.33
    nu2: float = 0.33
    R1: float = 1.0
    R2: float = math.inf
    half_size: float | None = None  # None: 1000 contact half-widths

    def __post_init__(self) -> None:
        if not self.load > 0:
            raise ValueError(f"load must be positive, got {self.load}")
        Material(self.E1, self.nu1)
        Material(self.E2, self.nu2)
        if not (self.R1 > 0 and self.R2 > 0):
            raise ValueError("radii must be positive")


@dataclass(frozen=True)
class HertzGeometry:
    radius: float
    e_star: float
    half_width: float
    peak_pressure: float


def hertz_geometry(params: HertzParams = HertzParams()) -> HertzGeometry:
    """Effective radius and modulus, contact half-width and peak pressure."""
    inv_r = 1.0 / params.R1 + (0.0 if math.isinf(params.R2) else 1.0 / params.R2)
    radius = 1.0 / inv_r
    inv_e = (1.0 - params.nu1**2) / params.E1 + (1.0 - params.nu2**2) / params.E2
    e_star = 1.0 / inv_e
    half_width = 2.0 * math.sqrt(params.load * radius / (math.pi * e_star))
    peak = math.sqrt(params.load * e_star / (math.pi * radius))
    return HertzGeometry(radius, e_star, half_width, peak)


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


def hertz_bcs(nodes, pressure_fn) -> BoundaryConditions:
    """Pressure traction on the top edge, zero displacement elsewhere.

    pressure_fn maps an array of top-edge x coordinates to their pressures.
    """
    bcs = BoundaryConditions.empty(nodes.n)
    rect = nodes.domain.rect
    bnd = np.nonzero(nodes.boundary_mask)[0]
    x = nodes.positions[bnd, 0]
    y = nodes.positions[bnd, 1]
    on_top = (y == rect.y_hi) & (x > rect.x_lo) & (x < rect.x_hi)
    traction = np.zeros((on_top.sum(), 2))
    traction[:, 1] = -pressure_fn(x[on_top])
    bcs.set_traction(bnd[on_top], traction)
    bcs.set_essential(bnd[~on_top], (0.0, 0.0))
    return bcs


def hertz_measure(geom: HertzGeometry, nodes: NodeSet, u, v, stress) -> tuple[dict, dict]:
    x, y = nodes.positions[:, 0], nodes.positions[:, 1]
    sxx, syy, sxy = hertz_stress(x, y, geom.half_width, geom.peak_pressure)
    errors = {
        "e_inf_sigma": error_einf(
            (stress.sxx, stress.syy, stress.sxy), (sxx, syy, sxy), scale=geom.peak_pressure
        )
    }
    return errors, {}


def hertz_cloud(
    timer: PhaseTimer, params: HertzParams = HertzParams(), *, nx: int = 69,
    refine_levels: int = len(PRIMARY_FACTORS), secondary_levels: int = len(SECONDARY_FACTORS),
) -> NodeSet:
    """The contact cloud, timed as the domain and refinement phases of timer.

    A coarse nx-point grid on [-H, H] x [-H, 0] (H = params.half_size, or 1000
    contact half-widths) refined by `refinement_schedule`: about 3e4 nodes.
    """
    if nx < 3:
        raise ValueError(f"nx must be at least 3, got {nx}")
    geom = hertz_geometry(params)
    H = params.half_size if params.half_size is not None else 1000.0 * geom.half_width
    if not H > geom.half_width:
        raise ValueError(f"domain half-size {H} must exceed the contact half-width {geom.half_width}")
    with timer.phase("domain"):
        nodes = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / (nx - 1))
    with timer.phase("refinement"):
        regions = refinement_schedule(geom.half_width, refine_levels, secondary_levels)
        return refine.refine_levels(nodes, regions)


def hertz_case(
    params: HertzParams = HertzParams(),
    *,
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
    nodes = hertz_cloud(timer, params, nx=nx, refine_levels=refine_levels, secondary_levels=secondary_levels)
    geom = hertz_geometry(params)
    return solve_on_cloud(
        timer,
        nodes,
        Material(params.E1, params.nu1, "plane-stress"),
        lambda nodes: hertz_bcs(nodes, lambda xx: hertz_pressure(xx, geom.half_width, geom.peak_pressure)),
        partial(hertz_measure, geom),
        basis=basis,
        support_n=support_n,
        weight=weight,
        solver=solver,
    )
