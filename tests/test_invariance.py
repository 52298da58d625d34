"""Answers that do not depend on node numbering or handedness (ROADMAP item 16).

Each cloud comes from a library builder. It is solved as built and under two
fixed random permutations of its nodes; mapped back to the built numbering,
the solutions must agree to 1e-8 of max|u| and of max|sigma|. The check
needs no exact solution, so the drilled beam, which has none, takes it too.
The Hertz cloud is its own mirror image under x -> -x, and so must its
as-built solution be: u odd in x, v even, sxx and syy even, sxy odd.
"""
from functools import cache, partial

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mlsm2d.cases import beam, hertz
from mlsm2d.cases.beam import cantilever_bcs, cantilever_measure
from mlsm2d.cases.drilled import HOLES, drilled_bcs, drilled_measure, hole_refined_cloud
from mlsm2d.cases.hertz import hertz_bcs, hertz_cloud, hertz_measure
from mlsm2d.cases.metrics import solve_on_cloud
from mlsm2d.nodes import build_rectangle_grid
from mlsm2d.shapes import BasisSpec, WeightSpec
from mlsm2d.solve import SolverConfig
from mlsm2d.timing import PhaseTimer

TOLERANCE = 1e-8
PERMUTATION_SEEDS = (1, 2)


def cantilever_problem(spacing=beam.L / 59, support_n=9):
    """A grid on the beam, by default the CLI's: 60 nodes along it, 9-node supports."""
    nodes = build_rectangle_grid(beam.RECT, spacing)
    return nodes, beam.MATERIAL, cantilever_bcs, cantilever_measure, support_n


def drilled_problem():
    """The drilled case's default cloud: spacing 0.25, one refinement level, relaxed."""
    nodes = hole_refined_cloud(PhaseTimer(), beam.RECT, HOLES, 0.25, 1)
    return nodes, beam.MATERIAL, drilled_bcs, drilled_measure, 15


def hertz_problem():
    """The default Hertz schedule cut to 8 primary levels, 15-node supports."""
    nodes = hertz_cloud(PhaseTimer(), refine_levels=8)
    return nodes, hertz.MATERIAL, hertz_bcs, hertz_measure, 15


def solved(nodes, material, bcs, measure, support_n):
    return solve_on_cloud(
        PhaseTimer(),
        nodes,
        material,
        bcs,
        measure,
        basis=BasisSpec(),
        support_n=support_n,
        weight=WeightSpec(),
        solver=SolverConfig(),
    )


def fields(result):
    return np.stack([result.u, result.v]), np.stack([result.stress.sxx, result.stress.syy, result.stress.sxy])


@cache
def as_built(problem):
    """A problem's cloud, its setup and its fields solved on the cloud as built, once per module run."""
    nodes, *setup = problem()
    return nodes, setup, fields(solved(nodes, *setup))


def one_sided(moved):
    return pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 15: knn breaks distance ties by node index, so a support that"
        f" cuts a distance shell keeps the lower-numbered part of it; renumbering moved {moved}",
    )


@pytest.mark.parametrize(
    "problem",
    [
        cantilever_problem,
        pytest.param(
            partial(cantilever_problem, 0.25, 9), marks=one_sided("u by 0.046-0.059 and sigma by 0.066-0.083")
        ),
        pytest.param(
            partial(cantilever_problem, 0.25, 15), marks=one_sided("u by 0.018 and sigma by 0.046-0.047")
        ),
        pytest.param(drilled_problem, marks=one_sided("u by 0.0078-0.0086 and sigma by 0.0085")),
        pytest.param(hertz_problem, marks=one_sided("u by 0.12-0.14 and sigma by 0.15-0.30")),
    ],
    ids=["cantilever", "grid-h0.25-n9", "grid-h0.25-n15", "drilled", "hertz-L8"],
)
def test_renumbered_cloud_gives_the_same_solution(problem):
    nodes, setup, (u, sigma) = as_built(problem)
    for seed in PERMUTATION_SEEDS:
        order = np.random.default_rng(seed).permutation(nodes.n)
        renumbered = nodes.replace(positions=nodes.positions[order], normals=nodes.normals[order])
        u_new, sigma_new = fields(solved(renumbered, *setup))
        # node i of the renumbered cloud is node order[i] of the built one
        u_back, sigma_back = np.empty_like(u), np.empty_like(sigma)
        u_back[:, order], sigma_back[:, order] = u_new, sigma_new
        assert np.max(np.abs(u_back - u)) <= TOLERANCE * np.max(np.abs(u))
        assert np.max(np.abs(sigma_back - sigma)) <= TOLERANCE * np.max(np.abs(sigma))


def mirror_image(nodes):
    """The distance from each node's image under x -> -x to the nearest node, and that node."""
    return cKDTree(nodes.positions).query(nodes.positions * [-1.0, 1.0])


def test_hertz_cloud_is_its_own_mirror_image():
    nodes, _, _ = as_built(hertz_problem)
    distance, image = mirror_image(nodes)
    assert np.max(distance) <= 1e-12 * nodes.domain.rect.diagonal
    np.testing.assert_array_equal(np.sort(image), np.arange(nodes.n))
    assert np.max(np.abs(nodes.normals[image] - nodes.normals * [-1.0, 1.0])) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 15: knn breaks distance ties by node index, so mirror-image supports keep"
    " different parts of a cut distance shell; |u(x) + u(-x)| reaches 1.37 of max|u|, |v(x) - v(-x)|"
    " 0.094 of max|v|, and the stress parts up to 0.015 of max|sigma|",
)
def test_hertz_solution_is_mirror_symmetric():
    nodes, _, (u, sigma) = as_built(hertz_problem)
    _, image = mirror_image(nodes)
    stress_scale = np.max(np.abs(sigma))
    checks = [(u[0], -1, np.max(np.abs(u[0]))), (u[1], 1, np.max(np.abs(u[1])))]
    checks += [(component, parity, stress_scale) for component, parity in zip(sigma, (1, 1, -1))]
    for field, parity, scale in checks:
        assert np.max(np.abs(field - parity * field[image])) <= TOLERANCE * scale
