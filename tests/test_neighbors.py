"""Nearest-neighbor queries against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from mlsm2d.cases.beam import perturb_nodes
from mlsm2d.cases.drilled import DrilledBeamParams, hole_refined_cloud
from mlsm2d.cases.hertz import hertz_geometry, refinement_schedule
from mlsm2d.neighbors import _lattice_k, build_supports, knn
from mlsm2d.nodes import Rect, build_rectangle_grid
from mlsm2d.refine import RefineRegion, refine_levels
from mlsm2d.timing import PhaseTimer


def brute_force_knn(positions, p, n):
    """n nearest by (distance, index), with the distance formula knn uses."""
    d = positions - p
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    order = np.lexsort((np.arange(len(dist)), dist))[:n]
    return order, dist[order]


def assert_supports_match_brute_force(positions, n):
    sup = build_supports(positions, n)
    for i, p in enumerate(positions):
        idx, dist = brute_force_knn(positions, p, n)
        np.testing.assert_array_equal(sup.indices[i], idx)
        np.testing.assert_array_equal(sup.distances[i], dist)


@st.composite
def clouds(draw):
    n_points = draw(st.integers(min_value=5, max_value=40))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False, width=32),
                st.floats(-10, 10, allow_nan=False, width=32),
            ),
            min_size=n_points,
            max_size=n_points,
            unique=True,
        )
    )
    return np.asarray(coords, dtype=float)


@st.composite
def lattices(draw):
    """Shuffled integer lattices, scaled, some sites dropped: tie-heavy."""
    nx = draw(st.integers(min_value=3, max_value=25))
    ny = draw(st.integers(min_value=3, max_value=25))
    scale = draw(st.sampled_from([1.0, 0.1, 0.25, 7.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sites = np.array([(i, j) for i in range(nx) for j in range(ny)], dtype=float) * scale
    keep = rng.random(len(sites)) >= draw(st.sampled_from([0.0, 0.1, 0.3]))
    return rng.permutation(sites[keep])


@given(clouds(), st.integers(min_value=2, max_value=5), st.randoms())
@settings(max_examples=60, deadline=None)
def test_knn_matches_brute_force(cloud, n, rnd):
    tree = cKDTree(cloud)
    p = np.array([rnd.uniform(-10, 10), rnd.uniform(-10, 10)])
    indices, distances = knn(tree, p[None], min(n, len(cloud)))
    indices, distances = indices[0], distances[0]
    expected, d_exp = brute_force_knn(cloud, p, min(n, len(cloud)))
    np.testing.assert_array_equal(indices, expected)
    np.testing.assert_array_equal(distances, d_exp)


@given(lattices(), st.sampled_from([2, 9, 15]))
@settings(max_examples=25, deadline=None)
def test_supports_on_lattices_match_brute_force(positions, n):
    if len(positions) >= n:
        assert_supports_match_brute_force(positions, n)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([0.05, 0.1, 0.3]), st.sampled_from([2, 9, 15]))
@settings(max_examples=10, deadline=None)
def test_supports_on_perturbed_grids_match_brute_force(seed, sigma, n):
    nodes = perturb_nodes(build_rectangle_grid(Rect(0, 2, 0, 1), 0.1), sigma, seed)
    assert_supports_match_brute_force(nodes.positions, n)


@pytest.mark.parametrize("n", [2, 9, 15])
def test_supports_on_a_refined_cloud_match_brute_force(n):
    nodes = refine_levels(
        build_rectangle_grid(Rect(0, 2, 0, 1), 0.25),
        [RefineRegion(Rect(0.25, 1.75, 0.0, 0.75), 1), RefineRegion(Rect(0.75, 1.25, 0.0, 0.5), 3)],
    )
    assert_supports_match_brute_force(nodes.positions, n)


def default_hertz_cloud():
    """hertz_case's default cloud: the 69-point base grid and the full schedule."""
    geom = hertz_geometry()
    H = 1000.0 * geom.half_width
    nodes = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / 68)
    return refine_levels(nodes, refinement_schedule(geom.half_width))


@pytest.fixture(scope="module", params=["grid", "drilled", "hertz"])
def case_cloud(request):
    if request.param == "grid":
        return build_rectangle_grid(Rect(0, 4, 0, 2), 0.1)
    if request.param == "drilled":
        params = DrilledBeamParams()
        return hole_refined_cloud(PhaseTimer(), params.rect, params.holes, 0.25, 1)
    return default_hertz_cloud()


@pytest.mark.parametrize("n, n_wide", [(9, 13), (15, 21)])
def test_smaller_supports_are_prefixes_of_wider_ones(case_cloud, n, n_wide):
    # ROADMAP item 8's indicator takes the n-support as a prefix of the n'-support
    narrow = build_supports(case_cloud, n)
    wide = build_supports(case_cloud, n_wide)
    np.testing.assert_array_equal(narrow.indices, wide.indices[:, :n])
    np.testing.assert_array_equal(narrow.distances, wide.distances[:, :n])


def test_first_query_holds_the_lattice_shell():
    # shells of the square lattice hold 1, 5, 9, 13, 21, 25, ... points
    ns = (2, 5, 6, 9, 10, 13, 14, 15, 21, 22)
    assert [_lattice_k(n) for n in ns] == [6, 6, 10, 10, 14, 14, 22, 22, 22, 26]


@pytest.mark.parametrize("n", [9, 13, 15])
def test_interior_of_a_grid_needs_one_query(n):
    # only rows near an edge, whose shells are cut, may ask again
    nodes = build_rectangle_grid(Rect(0, 4, 0, 4), 0.1)
    interior = np.nonzero(np.all(np.abs(nodes.positions - 2.0) < 1.5, axis=1))[0]
    queried = []

    class Counting(cKDTree):
        def query(self, x, *args, **kwargs):
            queried.append(len(x))
            return super().query(x, *args, **kwargs)

    knn(Counting(nodes.positions), nodes.positions[interior], n)
    assert queried == [len(interior)]


@given(lattices(), st.sampled_from([2, 9, 15]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_batched_knn_equals_per_point_calls(positions, n, seed):
    if len(positions) < n:
        return
    rng = np.random.default_rng(seed)
    # lattice sites, midpoints of site pairs, and arbitrary points
    a, b = rng.integers(len(positions), size=(2, 10))
    points = np.vstack([
        positions[a],
        0.5 * (positions[a] + positions[b]),
        rng.uniform(positions.min(axis=0), positions.max(axis=0), size=(10, 2)),
    ])
    tree = cKDTree(positions)
    indices, distances = knn(tree, points, n)
    assert indices.shape == distances.shape == (len(points), n)
    for p, idx, dist in zip(points, indices, distances):
        one_idx, one_dist = knn(tree, p[None], n)
        np.testing.assert_array_equal(idx, one_idx[0])
        np.testing.assert_array_equal(dist, one_dist[0])


@given(lattices(), st.sampled_from([2, 9, 15]), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_center_rows_equal_full_cloud_rows(positions, n, seed):
    if len(positions) < n:
        return
    centers = np.random.default_rng(seed).permutation(len(positions))[: len(positions) // 3]
    full = build_supports(positions, n)
    part = build_supports(positions, n, centers=centers)
    np.testing.assert_array_equal(part.indices, full.indices[centers])
    np.testing.assert_array_equal(part.distances, full.distances[centers])


def test_ties_break_by_node_index():
    # four equidistant neighbors around the center of a 3x3 grid
    nodes = build_rectangle_grid(Rect(0, 1, 0, 1), 0.5)
    center = int(np.nonzero((nodes.positions == [0.5, 0.5]).all(axis=1))[0][0])
    sup = build_supports(nodes, 5, centers=[center])
    assert sup.indices[0, 0] == center
    side = sup.indices[0, 1:]
    np.testing.assert_array_equal(sup.distances[0, 1:], 0.5)
    np.testing.assert_array_equal(side, np.sort(side))
    # a support that cuts the tie keeps its smallest indices
    cut = build_supports(nodes, 3, centers=[center])
    np.testing.assert_array_equal(cut.indices[0], [center, side[0], side[1]])
    # repeat queries return the identical ordering
    again = build_supports(nodes, 5, centers=[center])
    np.testing.assert_array_equal(again.indices, sup.indices)
    np.testing.assert_array_equal(again.distances, sup.distances)


def test_support_set_shape_and_self_first():
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
    sup = build_supports(nodes, 9)
    assert sup.indices.shape == (nodes.n, 9)
    assert np.array_equal(sup.indices[:, 0], np.arange(nodes.n))
    assert np.all(sup.distances[:, 0] == 0.0)
    assert np.all(np.diff(sup.distances, axis=1) >= 0)
    assert np.allclose(sup.distances[:, 1], 0.25)  # p_min is the grid spacing


def test_support_larger_than_cloud_rejected():
    nodes = build_rectangle_grid(Rect(0, 1, 0, 1), 0.5)
    with pytest.raises(ValueError):
        build_supports(nodes, nodes.n + 1)


def test_interior_support_of_uniform_grid_is_the_3x3_block():
    nodes = build_rectangle_grid(Rect(0, 1, 0, 1), 0.25)
    sup = build_supports(nodes, 9)
    center = int(np.nonzero((nodes.positions == [0.5, 0.5]).all(axis=1))[0][0])
    block = nodes.positions[sup.indices[center]]
    assert np.all(np.abs(block - [0.5, 0.5]) <= 0.25 + 1e-12)
