"""Repulsive node relaxation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsm2d.cases.beam import perturb_nodes
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Circle, Rect, build_drilled_domain, build_rectangle_grid
from mlsm2d.relax import RelaxConfig, relax, relax_offset


def nn_distances(nodes):
    return build_supports(nodes, 2).distances[:, 1]


class TestRelaxConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": -1},
            {"step": -0.1},
            {"neighbors": 1},
            {"sigma": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RelaxConfig(**kwargs)

    def test_defaults(self):
        config = RelaxConfig()
        assert config.iterations == 20
        assert config.neighbors == 8


class TestRelaxOffset:
    def test_symmetric_cross_cancels(self):
        h = 0.3
        nbrs = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
        np.testing.assert_allclose(relax_offset(np.zeros(2), nbrs), 0.0, atol=1e-15)

    def test_single_neighbor_pushes_away(self):
        offset = relax_offset(np.zeros(2), np.array([[0.5, 0.0]]))
        assert offset[0] < 0.0
        assert offset[1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_step_is_zero(self):
        nbrs = np.array([[0.5, 0.1], [-0.2, 0.4]])
        offset = relax_offset(np.zeros(2), nbrs, RelaxConfig(step=0.0))
        np.testing.assert_allclose(offset, 0.0)

    def test_coincident_neighbor_rejected(self):
        with pytest.raises(ValueError):
            relax_offset(np.zeros(2), np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-1, 1, size=(6, 2))
        nbrs = points[:, None, :] + rng.uniform(-0.5, 0.5, size=(6, 8, 2))
        batch = relax_offset(points, nbrs)
        assert batch.shape == (6, 2)
        for p, nb, offset in zip(points, nbrs, batch):
            np.testing.assert_array_equal(offset, relax_offset(p, nb))


class TestRelax:
    def test_zero_iterations_is_identity(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        out = relax(nodes, RelaxConfig(iterations=0))
        np.testing.assert_array_equal(out.positions, nodes.positions)

    def test_coincident_nodes_stop_a_sweep(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        interior = np.nonzero(nodes.interior_mask)[0]
        positions = nodes.positions.copy()
        positions[interior[1]] = positions[interior[0]]
        with pytest.raises(ValueError, match="coincident"):
            relax(nodes.replace(positions=positions), RelaxConfig(iterations=1))

    def test_uniform_grid_is_a_fixed_point(self):
        h = 0.1
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
        out = relax(nodes, RelaxConfig(iterations=10))
        assert np.abs(out.positions - nodes.positions).max() <= 1e-9 * h

    def test_boundary_nodes_never_move(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.2)
        nodes = perturb_nodes(nodes, 0.3, seed=4)
        out = relax(nodes)
        np.testing.assert_array_equal(
            out.positions[nodes.boundary_mask], nodes.positions[nodes.boundary_mask]
        )
        assert out.n == nodes.n

    def test_perturbed_grid_spacing_spread_decreases(self):
        nodes = build_rectangle_grid(Rect(0, 4, 0, 2), 0.2)
        nodes = perturb_nodes(nodes, 0.3, seed=1)
        out = relax(nodes, RelaxConfig(iterations=50))
        assert nn_distances(out).std() < nn_distances(nodes).std()

    def test_nodes_stay_inside_domain(self):
        domain_nodes = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2, 1, 0.5)], 0.2)
        jittered = perturb_nodes(domain_nodes, 0.4, seed=9)
        out = relax(jittered, RelaxConfig(iterations=30, step=0.2))
        interior = out.positions[out.interior_mask]
        assert np.all(out.domain.signed_distance(interior) < 0.0)

    def test_input_left_untouched(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.2)
        jittered = perturb_nodes(nodes, 0.3, seed=2)
        before = jittered.positions.copy()
        relax(jittered)
        np.testing.assert_array_equal(jittered.positions, before)


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=0.4))
@settings(max_examples=15, deadline=None)
def test_relax_preserves_count_and_boundary(seed, sigma):
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
    jittered = perturb_nodes(nodes, sigma, seed=seed)
    out = relax(jittered, RelaxConfig(iterations=5))
    assert out.n == jittered.n
    np.testing.assert_array_equal(
        out.positions[jittered.boundary_mask], jittered.positions[jittered.boundary_mask]
    )
    assert np.all(out.domain.signed_distance(out.positions[out.interior_mask]) < 0.0)
