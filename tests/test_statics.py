"""Statics: the section resultants of the beam cases (ROADMAP item 19).

Cut a beam at x = c. The part left of the cut carries only the end load P,
so over the material part of the cut statics fix three resultants, whatever
the holes or the cloud:

    N = int sxx dy = 0,    V = int sxy dy = P,    M = int y sxx dy = P c.

The check needs no reference field, so it applies to the drilled beam too.
The stresses are sampled on each cut by an unweighted least-squares
complete quadratic over the 15 nearest nodes (compute_shapes fits only at
a node of its support) and integrated by the trapezoid rule over the
samples in the material. A run's violation is the largest of |N| / P,
|V / P - 1| and |M / (P c) - 1| over the cuts.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mlsm2d.cases.beam import P, cantilever_case, timoshenko_stress
from mlsm2d.cases.drilled import HOLES, drilled_cantilever_case

# Interior cuts; each misses the drilled beam's holes.
CUTS = np.array([5.0, 10.0, 20.0, 25.0])
SAMPLES = 4001  # points per cut

# The cantilever at n_target 1e4 measured a worst violation of 7.6e-3
# (V at x = 10); the bound leaves a factor 2.6.
BOUND = 2e-2
# The sampler reproduces quadratics, so the Timoshenko field integrates
# exactly up to the trapezoid rule on y^2 (1.3e-7 relative at 4,001 points).
EXACT_BOUND = 1e-6


def sample(positions, fields, points, k=15):
    """Each field at each point, from one batched least-squares quadratic fit."""
    _, idx = cKDTree(positions).query(points, k=k)
    d = positions[idx] - points[:, None, :]
    scale = np.abs(d).max(axis=(1, 2))[:, None]
    x, y = d[..., 0] / scale, d[..., 1] / scale
    B = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=-1)
    # Row 0 of the pseudo-inverse maps the nodal values to the fit's value at the point.
    weights = np.linalg.pinv(B)[:, 0, :]
    return [np.einsum("ij,ij->i", weights, f[idx]) for f in fields]


def violation(nodes, sxx, sxy, load):
    """The worst relative violation of N, V and M over CUTS."""
    rect = nodes.domain.rect
    y = np.linspace(rect.y_lo, rect.y_hi, SAMPLES)
    points = np.column_stack([np.repeat(CUTS, SAMPLES), np.tile(y, len(CUTS))])
    material = nodes.domain.signed_distance(points) <= 0.0
    fields = sample(nodes.positions, (sxx, sxy), points)
    sxx, sxy = (np.where(material, f, 0.0).reshape(len(CUTS), SAMPLES) for f in fields)
    N = np.trapezoid(sxx, y, axis=1)
    V = np.trapezoid(sxy, y, axis=1)
    M = np.trapezoid(y * sxx, y, axis=1)
    return max(np.max(np.abs(N)) / load, np.max(np.abs(V / load - 1.0)), np.max(np.abs(M / (load * CUTS) - 1.0)))


@pytest.fixture(scope="module")
def cantilever():
    return cantilever_case(n_target=10_000)


@pytest.fixture(scope="module")
def drilled():
    return drilled_cantilever_case()


def test_cuts_miss_the_holes():
    for hole in HOLES:
        assert np.all(np.abs(CUTS - hole.cx) > hole.radius)


@pytest.mark.parametrize("case", ["cantilever", "drilled"])
def test_the_exact_field_meets_statics_on_the_cloud(case, request):
    # the sampler and the quadrature alone: the Timoshenko stresses at the
    # case's nodes, with no solve in them
    nodes = request.getfixturevalue(case).nodes
    sxx, _, sxy = timoshenko_stress(*nodes.positions.T)
    assert violation(nodes, sxx, sxy, P) <= EXACT_BOUND


def test_cantilever_meets_statics(cantilever):
    stress = cantilever.stress
    assert violation(cantilever.nodes, stress.sxx, stress.sxy, P) <= BOUND


@pytest.mark.xfail(
    strict=True,
    reason="the drilled default violates statics by 0.81 (V = 0.19 P at x = 25);"
    " its traction boundaries need ghost nodes, ROADMAP item 21",
)
def test_drilled_default_meets_statics(drilled):
    stress = drilled.stress
    assert violation(drilled.nodes, stress.sxx, stress.sxy, P) <= BOUND
