"""Cantilever beam benchmark with the classical Timoshenko reference solution.

The paper's fixed verification problem, held in module constants: the beam
RECT = [0, L] x [-D/2, D/2] of MATERIAL (E, NU, plane stress), a parabolic
shear load of resultant P at the free left end, and the right end held at
the analytic displacement. The closed-form fields used both for boundary
data and for error measurement are the standard thick-beam solution:

    I = D^3 / 12
    sigma_xx = P x y / I
    sigma_yy = 0
    sigma_xy = (P / 2I) (D^2/4 - y^2)

    u = P y (3 D^2 (1+nu) - 4 (3 L^2 + (nu+2) y^2 - 3 x^2)) / (24 E I)
    v = -P (3 D^2 (1+nu) (L-x) + 4 (L-x)^2 (2L+x) + 12 nu x y^2) / (24 E I)
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from ..elasticity import BoundaryConditions, Material
from ..nodes import NodeSet, Rect, build_rectangle_grid
from ..shapes import BasisSpec, WeightSpec
from ..solve import SolverConfig
from ..timing import PhaseTimer
from .metrics import CaseResult, error_einf, solve_on_cloud

L = 30.0
D = 5.0
E = 72.1e9
NU = 0.33
P = 1000.0
I = D**3 / 12.0
RECT = Rect(0.0, L, -D / 2.0, D / 2.0)
MATERIAL = Material(E, NU, "plane-stress")


def timoshenko_stress(x, y):
    """Reference stresses (sxx, syy, sxy); vectorized over x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sxx = P * x * y / I
    syy = np.zeros_like(sxx)
    sxy = P / (2.0 * I) * (D**2 / 4.0 - y * y)
    return sxx, syy, sxy


def timoshenko_displacement(x, y):
    """Reference displacements (u, v); vectorized over x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = P / (24.0 * E * I)
    u = c * y * (3.0 * D * D * (1.0 + NU) - 4.0 * (3.0 * L * L + (NU + 2.0) * y * y - 3.0 * x * x))
    v = -c * (
        3.0 * D * D * (1.0 + NU) * (L - x)
        + 4.0 * (L - x) ** 2 * (2.0 * L + x)
        + 12.0 * NU * x * y * y
    )
    return u, v


def cantilever_bcs(nodes: NodeSet, all_essential: bool = False) -> BoundaryConditions:
    """Analytic displacement on the right edge, analytic traction elsewhere.

    Marks the right edge essential, or all boundary nodes with all_essential;
    traction vectors are the reference stress contracted with each node's
    outward normal, so corners and any boundary layout are handled uniformly.
    """
    bnd = np.flatnonzero(nodes.boundary_mask)
    x = nodes.positions[bnd, 0]
    y = nodes.positions[bnd, 1]
    pinned = (x == RECT.x_hi) | all_essential
    essential = np.zeros(nodes.n, dtype=bool)
    essential[bnd] = pinned

    sxx, syy, sxy = timoshenko_stress(x, y)
    n1 = nodes.normals[bnd, 0]
    n2 = nodes.normals[bnd, 1]
    values = np.zeros((nodes.n, 2))
    values[bnd, 0] = sxx * n1 + sxy * n2
    values[bnd, 1] = sxy * n1 + syy * n2
    values[bnd[pinned]] = np.column_stack(timoshenko_displacement(x[pinned], y[pinned]))
    return BoundaryConditions(essential, values)


def cantilever_measure(nodes: NodeSet, u, v, stress) -> tuple[dict, dict]:
    x, y = nodes.positions[:, 0], nodes.positions[:, 1]
    u_ref, v_ref = timoshenko_displacement(x, y)
    sxx, syy, sxy = timoshenko_stress(x, y)
    errors = {
        "e_inf_u": error_einf((u, v), (u_ref, v_ref)),
        "e_inf_sigma": error_einf((stress.sxx, stress.syy, stress.sxy), (sxx, syy, sxy)),
    }
    return errors, {}


def check_perturbation(sigma: float) -> None:
    """Raise ValueError unless sigma is a perturbation scale perturb_nodes takes."""
    if not sigma >= 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")


def perturb_nodes(nodes: NodeSet, sigma: float, seed: int = 0) -> NodeSet:
    """Shift each interior node by sigma times a draw from Uniform([0, d]^2).

    d is the node's distance to its closest neighbor, so the perturbation
    scales with the local spacing. Boundary nodes stay put.
    """
    check_perturbation(sigma)
    rng = np.random.default_rng(seed)
    positions = nodes.positions.copy()
    interior = np.nonzero(nodes.interior_mask)[0]
    d, _ = cKDTree(positions).query(positions[interior], k=2)
    shift = sigma * rng.uniform(0.0, 1.0, size=(interior.size, 2)) * d[:, 1:]
    positions[interior] += shift
    out = nodes.replace(positions=positions)
    out.finalize()
    return out


def grid_spacing_for(n_target: int) -> float:
    """Spacing that puts roughly n_target nodes on the beam rectangle."""
    if n_target < 4:
        raise ValueError(f"need at least 4 nodes, got {n_target}")
    return math.sqrt(L * D / n_target)


def cantilever_case(
    spacing: float | None = None,
    *,
    nx: int | None = None,
    n_target: int | None = None,
    basis: BasisSpec = BasisSpec(),
    support_n: int = 9,
    weight: WeightSpec = WeightSpec(),
    solver: SolverConfig = SolverConfig(),
    all_essential: bool = False,
    perturb_sigma: float = 0.0,
    seed: int = 0,
) -> CaseResult:
    """Solve the cantilever on a regular (optionally perturbed) grid.

    The grid has nx nodes along the beam (60 if none is given), or the size
    that spacing or n_target sets; at most one of the three may be given.
    """
    if sum(value is not None for value in (nx, spacing, n_target)) > 1:
        raise ValueError("give at most one of nx, spacing or n_target")
    if n_target is not None:
        spacing = grid_spacing_for(n_target)
    elif spacing is None:
        nx = 60 if nx is None else nx
        if nx < 2:
            raise ValueError(f"nx must be at least 2, got {nx}")
        spacing = L / (nx - 1)

    timer = PhaseTimer()
    with timer.phase("domain"):
        nodes = build_rectangle_grid(RECT, spacing)
        if perturb_sigma != 0.0:
            nodes = perturb_nodes(nodes, perturb_sigma, seed)

    return solve_on_cloud(
        timer,
        nodes,
        MATERIAL,
        lambda nodes: cantilever_bcs(nodes, all_essential),
        cantilever_measure,
        basis=basis,
        support_n=support_n,
        weight=weight,
        solver=solver,
    )
