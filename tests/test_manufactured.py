"""Exact manufactured-solution check of the collocated Navier operator.

The smooth field

    u = sin(a x + 0.3) cos(b y),   v = cos(a x) sin(b y + 0.2),
    a = 2 pi / 10,                  b = 2 pi / 5,

is not a solution of the homogeneous Navier equation, so after `assemble`
the interior rows of the rhs are overwritten with its analytic Navier
operator (a body force). Every boundary node is essential and takes the
field's values. The normalized max errors of displacement and stress
must then fall at second order as the spacing halves, on every kind of
cloud the package builds (ROADMAP item 1).
"""

import numpy as np
import pytest

from mlsm2d.cases.beam import BeamParams, perturb_nodes
from mlsm2d.cases.drilled import DrilledBeamParams, hole_refined_cloud
from mlsm2d.cases.metrics import error_einf
from mlsm2d.elasticity import BoundaryConditions, Material, assemble, compute_stresses
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import build_rectangle_grid
from mlsm2d.shapes import build_shape_set
from mlsm2d.solve import solve
from mlsm2d.timing import PhaseTimer

A = 2.0 * np.pi / 10.0
B = 2.0 * np.pi / 5.0
SPACINGS = (0.25, 0.125)


def field(x, y):
    """Displacement, first derivatives and Navier-operator terms of the field."""
    su, cu = np.sin(A * x + 0.3), np.cos(A * x + 0.3)
    sv, cv = np.sin(A * x), np.cos(A * x)
    u = su * np.cos(B * y)
    v = cv * np.sin(B * y + 0.2)
    grads = {
        "ux": A * cu * np.cos(B * y),
        "uy": -B * su * np.sin(B * y),
        "vx": -A * sv * np.sin(B * y + 0.2),
        "vy": B * cv * np.cos(B * y + 0.2),
        "uxy": -A * B * cu * np.sin(B * y),
        "vxy": -A * B * sv * np.cos(B * y + 0.2),
    }
    return u, v, grads


def navier(material, x, y):
    """(lam + 2 mu) u_xx + mu u_yy + (lam + mu) v_xy and its y twin."""
    lam, mu = material.lam, material.mu
    u, v, g = field(x, y)
    fx = -(lam + 2.0 * mu) * A * A * u - mu * B * B * u + (lam + mu) * g["vxy"]
    fy = (lam + mu) * g["uxy"] - mu * A * A * v - (lam + 2.0 * mu) * B * B * v
    return fx, fy


def exact_stress(material, x, y):
    lam, mu = material.lam, material.mu
    _, _, g = field(x, y)
    sxx = (2.0 * mu + lam) * g["ux"] + lam * g["vy"]
    syy = lam * g["ux"] + (2.0 * mu + lam) * g["vy"]
    sxy = mu * (g["uy"] + g["vx"])
    return sxx, syy, sxy


def manufactured_errors(nodes, support_n, material):
    """(e_u, e_sigma) of the collocated solution of the manufactured field."""
    x, y = nodes.positions.T
    u_ref, v_ref, _ = field(x, y)
    bcs = BoundaryConditions.empty(nodes.n)
    bnd = np.nonzero(nodes.boundary_mask)[0]
    bcs.set_essential(bnd, np.column_stack([u_ref, v_ref])[bnd])
    shapes = build_shape_set(nodes, build_supports(nodes, support_n))
    system = assemble(nodes, shapes, material, bcs)
    interior = np.nonzero(nodes.interior_mask)[0]
    fx, fy = navier(material, x[interior], y[interior])
    system.rhs[interior] = fx
    system.rhs[interior + nodes.n] = fy
    (u, v), _ = solve(system)
    stress = compute_stresses(shapes, material, u, v)
    e_u = error_einf((u, v), (u_ref, v_ref))
    e_sigma = error_einf((stress.sxx, stress.syy, stress.sxy), exact_stress(material, x, y))
    return e_u, e_sigma


def orders(make_cloud, support_n, material):
    """Observed orders of e_u and e_sigma from h = 0.25 to h = 0.125."""
    (eu0, es0), (eu1, es1) = (manufactured_errors(make_cloud(h), support_n, material) for h in SPACINGS)
    return np.log2(eu0 / eu1), np.log2(es0 / es1)


BEAM = BeamParams()
DRILLED = DrilledBeamParams()


def grid(h):
    return build_rectangle_grid(BEAM.rect, h)


def perturbed_grid(h):
    return perturb_nodes(grid(h), 0.1, seed=3)


def drilled_cloud(refine_levels):
    return lambda h: hole_refined_cloud(PhaseTimer(), DRILLED.rect, DRILLED.holes, h, refine_levels)


def test_field_derivatives_match_finite_differences():
    x, y, d = np.array([0.7, 13.1]), np.array([-1.9, 0.4]), 1e-5
    g = field(x, y)[2]
    dx = [(a - b) / (2 * d) for a, b in zip(field(x + d, y)[:2], field(x - d, y)[:2])]
    dy = [(a - b) / (2 * d) for a, b in zip(field(x, y + d)[:2], field(x, y - d)[:2])]
    dxy = [(field(x, y + d)[2][k] - field(x, y - d)[2][k]) / (2 * d) for k in ("ux", "vx")]
    np.testing.assert_allclose(
        [*dx, *dy, *dxy], [g["ux"], g["vx"], g["uy"], g["vy"], g["uxy"], g["vxy"]], rtol=1e-7, atol=1e-9
    )


@pytest.mark.parametrize(
    "make_cloud, support_n, min_order",
    [
        pytest.param(grid, 9, 1.8, id="grid-n9"),
        pytest.param(perturbed_grid, 13, 1.8, id="perturbed-grid-n13"),
        pytest.param(drilled_cloud(0), 15, 1.7, id="drilled-level0-n15"),
        pytest.param(
            drilled_cloud(1),
            15,
            1.7,
            id="drilled-default-n15",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP item 2: on the default drilled positioning (refinement level 1,"
                " 20 sweeps) monomial-9 at n = 15 reads e_u / e_sigma 0.70 / 1.17 at h = 0.25"
                " and 0.60 / 2.22 at h = 0.125; the complete quadratic basis converges there",
            ),
        ),
    ],
)
def test_second_order_convergence(make_cloud, support_n, min_order):
    material = Material(BEAM.E, BEAM.nu)
    order_u, order_sigma = orders(make_cloud, support_n, material)
    assert order_u >= min_order and order_sigma >= min_order, (order_u, order_sigma)
