"""Repulsive node relaxation."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsm2d.cases.beam import perturb_nodes
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Circle, Rect, build_drilled_domain, build_rectangle_grid
from mlsm2d.relax import ITERATIONS, NEIGHBORS, relax, relax_offset

# The package re-exports the relax function under the module's name.
relax_module = importlib.import_module("mlsm2d.relax")


def nn_distances(nodes):
    return build_supports(nodes, 2).distances[:, 1]


class TestRelaxSettings:
    def test_negative_iterations_rejected(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        with pytest.raises(ValueError):
            relax(nodes, -1)

    def test_defaults(self):
        assert ITERATIONS == 20
        assert NEIGHBORS == 8


class TestRelaxOffset:
    def test_symmetric_cross_cancels(self):
        h = 0.3
        nbrs = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
        np.testing.assert_allclose(relax_offset(np.zeros((1, 2)), nbrs[None]), 0.0, atol=1e-15)

    def test_single_neighbor_pushes_away(self):
        offset = relax_offset(np.zeros((1, 2)), np.array([[[0.5, 0.0]]]))[0]
        assert offset[0] < 0.0
        assert offset[1] == pytest.approx(0.0, abs=1e-15)

    def test_coincident_neighbor_rejected(self):
        with pytest.raises(ValueError):
            relax_offset(np.zeros((1, 2)), np.array([[[0.0, 0.0], [1.0, 0.0]]]))

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(-1, 1, size=(6, 2))
        nbrs = points[:, None, :] + rng.uniform(-0.5, 0.5, size=(6, 8, 2))
        batch = relax_offset(points, nbrs)
        assert batch.shape == (6, 2)
        for p, nb, offset in zip(points, nbrs, batch):
            np.testing.assert_array_equal(offset, relax_offset(p[None], nb[None])[0])


class TestRelax:
    def test_zero_iterations_is_identity(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        out = relax(nodes, 0)
        np.testing.assert_array_equal(out.positions, nodes.positions)

    def test_coincident_nodes_stop_a_sweep(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        interior = np.nonzero(nodes.interior_mask)[0]
        positions = nodes.positions.copy()
        positions[interior[1]] = positions[interior[0]]
        with pytest.raises(ValueError, match="coincident"):
            relax(nodes.replace(positions=positions), 1)

    def test_uniform_grid_is_a_fixed_point(self):
        h = 0.1
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
        out = relax(nodes, 10)
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
        out = relax(nodes, 50)
        assert nn_distances(out).std() < nn_distances(nodes).std()

    def test_nodes_stay_inside_domain(self):
        domain_nodes = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2, 1, 0.5)], 0.2)
        jittered = perturb_nodes(domain_nodes, 0.4, seed=9)
        out = relax(jittered, 30)
        interior = out.positions[out.interior_mask]
        assert np.all(out.domain.signed_distance(interior) < 0.0)

    @pytest.mark.parametrize("finalized", [True, False], ids=["finalized", "replaced"])
    def test_escaping_step_is_clamped_inside(self, monkeypatch, finalized):
        # (0.125, 0.001) sits 0.04 below (0.125, 0.041), which pushes it
        # through the bottom edge in one sweep; the clamp stops it a margin
        # of 1e-3 of its spacing inside. The spacing is the relaxed cloud's
        # own, whether or not it was finalized.
        grid = build_rectangle_grid(Rect(0, 1, 0, 1), 0.25)
        extra = np.array([[0.125, 0.001], [0.125, 0.041]])
        nodes = grid.replace(
            positions=np.vstack([grid.positions, extra]),
            normals=np.vstack([grid.normals, np.zeros((2, 2))]),
        )
        if finalized:
            nodes.finalize()
        clamped, spacings = [], []
        clamp = relax_module._clamp_step

        def spy(domain, start, offset, spacing):
            out = clamp(domain, start, offset, spacing)
            clamped.append(out)
            spacings.append(spacing)
            return out

        monkeypatch.setattr(relax_module, "_clamp_step", spy)
        out = relax(nodes, 1)
        assert len(clamped) == 1 and clamped[0].shape == (1, 2)
        assert spacings[0] == pytest.approx([0.04], rel=1e-12)
        np.testing.assert_array_equal(out.positions[-2], clamped[0][0])
        assert out.positions[-2, 0] == pytest.approx(0.125, abs=1e-12)
        assert out.positions[-2, 1] == pytest.approx(1e-3 * 0.04, rel=1e-6)

    def test_batched_clamp_matches_the_scalar_bisection(self):
        domain = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2, 1, 0.5)], 0.2).domain
        margin = relax_module._ESCAPE_MARGIN

        def scalar(start, offset, spacing):
            # One row at a time: bisect the crossing, back off a margin of
            # the spacing, and stay put if that still lands outside.
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if domain.signed_distance(start + mid * offset) < 0.0:
                    lo = mid
                else:
                    hi = mid
            step = np.linalg.norm(offset)
            back = margin * spacing / step
            candidate = start + max(lo - back, 0.0) * offset
            if domain.signed_distance(candidate) >= 0.0:
                return start.copy()
            return candidate

        rng = np.random.default_rng(17)
        start = rng.uniform([0.0, 0.0], [4.0, 2.0], size=(4000, 2))
        offset = rng.normal(scale=0.3, size=(4000, 2))
        spacing = rng.uniform(0.01, 0.5, 4000)
        spacing[:50] = 1e3  # backing off past the start keeps the start
        escaping = (domain.signed_distance(start) < 0.0) & (
            domain.signed_distance(start + offset) >= 0.0
        )
        start, offset, spacing = start[escaping], offset[escaping], spacing[escaping]
        assert len(start) > 500
        batched = relax_module._clamp_step(domain, start, offset, spacing)
        expected = np.array([scalar(*row) for row in zip(start, offset, spacing)])
        assert batched.tobytes() == expected.tobytes()

    def test_default_sweep_count_is_iterations(self):
        nodes = perturb_nodes(build_rectangle_grid(Rect(0, 2, 0, 1), 0.2), 0.3, seed=6)
        assert relax(nodes).positions.tobytes() == relax(nodes, ITERATIONS).positions.tobytes()
        assert relax(nodes).positions.tobytes() != relax(nodes, ITERATIONS - 1).positions.tobytes()

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
    out = relax(jittered, 5)
    assert out.n == jittered.n
    np.testing.assert_array_equal(
        out.positions[jittered.boundary_mask], jittered.positions[jittered.boundary_mask]
    )
    assert np.all(out.domain.signed_distance(out.positions[out.interior_mask]) < 0.0)
