"""Level-based midpoint refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from mlsm2d import refine
from mlsm2d.cases.beam import RECT
from mlsm2d.cases.drilled import HOLES, _hole_box
from mlsm2d.cases.hertz import HALF_WIDTH, refinement_schedule
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Circle, Rect, build_drilled_domain, build_rectangle_grid
from mlsm2d.refine import PROXIMITY, RefineRegion, _accept, refine_levels, refine_once
from mlsm2d.relax import relax


def min_spacing_inside(nodes, rect):
    inside = np.array([rect.contains(p) for p in nodes.positions])
    d = build_supports(nodes, 2).distances[:, 1]
    return d[inside].min()


class TestConfigTypes:
    def test_region_level_must_be_positive(self):
        with pytest.raises(ValueError):
            RefineRegion(Rect(0, 1, 0, 1), level=0)


class TestRefineOnce:
    def test_region_missing_all_nodes_is_identity(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        out = refine_once(nodes, Rect(5, 6, 5, 6))
        assert out.n == nodes.n
        np.testing.assert_array_equal(out.positions, nodes.positions)

    def test_existing_nodes_are_kept_in_place(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        out = refine_once(nodes, Rect(0.4, 1.6, 0.2, 0.8))
        assert out.n > nodes.n
        np.testing.assert_array_equal(out.positions[: nodes.n], nodes.positions)
        np.testing.assert_array_equal(out.normals[: nodes.n], nodes.normals)

    def test_midpoints_halve_the_spacing(self):
        h = 0.25
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
        region = Rect(0.5, 1.5, 0.25, 0.75)
        out = refine_once(nodes, region)
        assert 0.9 * h / 2 <= min_spacing_inside(out, region) <= 1.1 * h / 2

    def test_shared_midpoints_are_deduplicated(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        region = Rect(0.4, 1.6, 0.2, 0.8)
        out = refine_once(nodes, region)
        d = build_supports(out, 2).distances[:, 1]
        assert d.min() > 0.25 * 0.75 / 4

    def test_boundary_midpoints_land_on_the_hole_ring(self):
        hole = Circle(2.0, 1.0, 0.5)
        nodes = build_drilled_domain(Rect(0, 4, 0, 2), [hole], 0.25)
        ring_before = np.sum(
            np.isclose(np.hypot(*(nodes.positions - hole.center).T), hole.radius, atol=1e-9)
        )
        out = refine_once(nodes, Rect(1.2, 2.8, 0.2, 1.8))
        r = np.hypot(*(out.positions - hole.center).T)
        ring_after = np.sum(np.isclose(r, hole.radius, atol=1e-9))
        assert ring_after > ring_before
        new_boundary = out.boundary_mask[nodes.n :]
        new_pos = out.positions[nodes.n :][new_boundary]
        sd = np.abs(out.domain.signed_distance(new_pos))
        np.testing.assert_allclose(sd, 0.0, atol=1e-9)

    def test_midpoints_between_opposite_normals_are_dropped(self):
        # Across the 0.1-wide ligament above the hole, a ring node and the
        # top-edge node facing it have opposite normals; their midpoint has
        # no normal to interpolate and must not join the top edge.
        nodes = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2.0, 1.6, 0.3)], 0.25)
        out = refine_once(nodes, Rect(1.0, 3.0, 0.5, 2.0))
        new_top = out.positions[nodes.n :, 1] == 2.0
        assert new_top.sum() == 9
        np.testing.assert_array_equal(out.normals[nodes.n :][new_top], [[0.0, 1.0]] * 9)

    def test_projected_midpoints_take_the_normal_of_their_boundary_piece(self):
        # A ring node next to the ligament pairs with a top-edge node whose
        # normal is not opposite to its own; the midpoint lands on the ring
        # at (1.732, 1.734) and (2.268, 1.734), where the ring's normal is
        # (+-0.894, -0.447), not the parents' average (+-0.707, 0.707).
        hole = Circle(2.0, 1.6, 0.3)
        nodes = build_drilled_domain(Rect(0, 4, 0, 2), [hole], 0.25)
        out = refine_once(nodes, Rect(1.0, 3.0, 0.5, 2.0))
        pos = out.positions[nodes.n :][out.boundary_mask[nodes.n :]]
        normals = out.normals[nodes.n :][out.boundary_mask[nodes.n :]]
        on_ring = np.isclose(np.hypot(*(pos - hole.center).T), hole.radius, atol=1e-9)
        np.testing.assert_allclose(normals[on_ring], (hole.center - pos[on_ring]) / hole.radius, atol=1e-12)
        on_top = pos[:, 1] == 2.0
        np.testing.assert_array_equal(normals[on_top], [[0.0, 1.0]] * int(on_top.sum()))
        assert np.all(on_ring | on_top)
        shoulders = np.isclose(pos[:, 1], 1.734, atol=1e-3)
        np.testing.assert_allclose(pos[shoulders], [[1.732, 1.734], [2.268, 1.734]], atol=1e-3)
        np.testing.assert_allclose(normals[shoulders], [[0.894, -0.447], [-0.894, -0.447]], atol=1e-3)

    def test_no_nodes_created_inside_the_hole(self):
        hole = Circle(2.0, 1.0, 0.5)
        nodes = build_drilled_domain(Rect(0, 4, 0, 2), [hole], 0.25)
        out = refine_once(nodes, Rect(1.2, 2.8, 0.2, 1.8))
        r = np.hypot(*(out.positions - hole.center).T)
        assert np.all(r >= hole.radius - 1e-9)


class TestRefineLevels:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_min_spacing_halves_per_level(self, k):
        h = 0.25
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
        region = Rect(0.5, 1.5, 0.25, 0.75)
        out = refine_levels(nodes, [RefineRegion(region, level=k)])
        target = h / 2**k
        assert 0.9 * target <= min_spacing_inside(out, region) <= 1.1 * target

    def test_level_one_equals_refine_once(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        region = Rect(0.5, 1.5, 0.25, 0.75)
        a = refine_levels(nodes, [RefineRegion(region, level=1)])
        b = refine_once(nodes, region)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_schedule_equals_chained_single_passes(self):
        nodes = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2.0, 1.0, 0.5)], 0.25)
        outer = Rect(0.5, 3.5, 0.0, 2.0)
        inner = Rect(1.2, 2.8, 0.2, 1.8)
        out = refine_levels(nodes, [RefineRegion(outer, level=2), RefineRegion(inner, level=3)])
        chained = nodes
        for rect in (outer, outer, inner):
            chained = refine_once(chained, rect)
        assert out.n > nodes.n
        np.testing.assert_array_equal(out.positions, chained.positions)
        np.testing.assert_array_equal(out.normals, chained.normals)

    def test_nested_regions_refine_deepest_last(self):
        h = 0.25
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
        outer = Rect(0.25, 1.75, 0.25, 0.75)
        inner = Rect(0.75, 1.25, 0.4, 0.6)
        out = refine_levels(
            nodes,
            [RefineRegion(outer, level=1), RefineRegion(inner, level=2)],
        )
        assert min_spacing_inside(out, inner) < min_spacing_inside(
            out, Rect(0.3, 0.6, 0.3, 0.7)
        )

    def test_node_count_is_nondecreasing_across_levels(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        region = Rect(0.5, 1.5, 0.25, 0.75)
        counts = [nodes.n]
        for k in (1, 2, 3):
            out = refine_levels(nodes, [RefineRegion(region, level=k)])
            counts.append(out.n)
        assert all(b > a for a, b in zip(counts, counts[1:]))


def test_spacing_grades_monotonically_away_from_a_refined_hole():
    # four levels around a hole plus relaxation must leave the local spacing
    # nondecreasing with distance from the hole, bin by bin
    hole = Circle(5.0, 5.0, 1.0)
    nodes = build_drilled_domain(Rect(0, 10, 0, 10), [hole], 0.5)
    regions = [
        RefineRegion(Rect(5 - w, 5 + w, 5 - w, 5 + w), level=lvl)
        for lvl, w in ((1, 3.2), (2, 2.4), (3, 1.8), (4, 1.4))
    ]
    out = relax(refine_levels(nodes, regions))
    d = build_supports(out, 2).distances[:, 1]
    r = np.hypot(*(out.positions - hole.center).T)
    edges = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0])
    means = []
    for lo, hi in zip(edges, edges[1:]):
        mask = (r >= lo) & (r < hi)
        assert mask.any()
        means.append(d[mask].mean())
    assert all(b >= a for a, b in zip(means, means[1:]))


@given(st.floats(min_value=0.3, max_value=0.9))
@settings(max_examples=10, deadline=None)
def test_refinement_respects_the_proximity_floor(x_lo):
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
    region = Rect(x_lo, x_lo + 0.7, 0.2, 0.8)
    out = refine_once(nodes, region)
    assert out.n >= nodes.n
    d = build_supports(out, 2).distances[:, 1]
    assert d.min() >= PROXIMITY * 0.125 / 2 * 0.99


def accept_by_ball_queries(points, radius):
    """The reference acceptance: one ball query per candidate, walked in order."""
    accepted = np.zeros(len(points), dtype=bool)
    if len(points) == 0:
        return accepted
    neighbor_lists = cKDTree(points).query_ball_point(points, r=radius)
    for local, nbrs in enumerate(neighbor_lists):
        accepted[local] = not any(accepted[other] for other in nbrs if other < local)
    return accepted


class TestAccept:
    def check(self, points, radius):
        points = np.asarray(points, dtype=float)
        radius = np.broadcast_to(np.asarray(radius, dtype=float), len(points)).copy()
        got = _accept(points, radius)
        np.testing.assert_array_equal(got, accept_by_ball_queries(points, radius))
        return got

    @pytest.mark.parametrize("seed", range(5))
    def test_random_candidates_with_their_own_radii(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0.0, 1.0, size=(600, 2))
        got = self.check(points, rng.uniform(0.01, 0.08, size=600))
        assert 0 < got.sum() < 600

    @pytest.mark.parametrize("h", [0.125, 0.1, 1.0 / 3.0])
    def test_lattice_spacing_equal_to_the_radius(self, h):
        # Lattice neighbors sit on the closed ball's surface; whether they
        # conflict depends on the last bit of the computed distance.
        ix, iy = np.meshgrid(np.arange(12), np.arange(9), indexing="ij")
        points = np.column_stack([ix.ravel() * h, iy.ravel() * h + 0.3])
        self.check(points, h)
        self.check(0.5 * (points[:-1] + points[1:]), h / 2.0)

    def test_coincident_candidates(self):
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        got = self.check(points, 0.1)
        np.testing.assert_array_equal(got, [True, False, True, False, False, False])
        self.check(points, 0.0)

    def test_chain_needing_many_rounds(self):
        # Each candidate conflicts with its neighbors only: the first one is
        # accepted, which rejects the second, which frees the third, ...
        points = np.column_stack([np.arange(9.0), np.zeros(9)])
        got = self.check(points, 1.5)
        np.testing.assert_array_equal(got, np.arange(9) % 2 == 0)

    def test_no_candidates(self):
        assert self.check(np.zeros((0, 2)), 1.0).shape == (0,)

    def refined_twice(self, monkeypatch, nodes, regions):
        fast = refine_levels(nodes, regions)
        monkeypatch.setattr(refine, "_accept", accept_by_ball_queries)
        slow = refine_levels(nodes, regions)
        assert fast.n > nodes.n
        np.testing.assert_array_equal(fast.positions, slow.positions)
        np.testing.assert_array_equal(fast.normals, slow.normals)

    def test_hertz_default_schedule_matches_the_reference(self, monkeypatch):
        b = HALF_WIDTH
        H = 1000.0 * b
        nodes = build_rectangle_grid(Rect(-H, H, -H, 0.0), 2.0 * H / 68)
        self.refined_twice(monkeypatch, nodes, refinement_schedule(b))

    @pytest.mark.parametrize("level", [1, 3])
    def test_drilled_hole_boxes_match_the_reference(self, monkeypatch, level):
        spacing = 0.25
        nodes = build_drilled_domain(RECT, HOLES, spacing)
        regions = [RefineRegion(_hole_box(h, RECT, 2.0 * spacing), level) for h in HOLES]
        self.refined_twice(monkeypatch, nodes, regions)
