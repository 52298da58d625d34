"""Point-cloud construction and domain geometry."""

import dataclasses
import math

import numpy as np
import pytest

from mlsm2d.nodes import (
    Circle,
    DomainShape,
    NodeSet,
    Rect,
    build_drilled_domain,
    build_rectangle_grid,
)

UNIT_SQUARE = Rect(0.0, 1.0, 0.0, 1.0)


class TestRect:
    def test_dimensions(self):
        r = Rect(-1.0, 3.0, 0.0, 2.0)
        assert r.width == 4.0
        assert r.height == 2.0
        assert r.diagonal == pytest.approx(math.hypot(4.0, 2.0))

    @pytest.mark.parametrize("x_lo,x_hi,y_lo,y_hi", [(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0)])
    def test_degenerate_rejected(self, x_lo, x_hi, y_lo, y_hi):
        with pytest.raises(ValueError):
            Rect(x_lo, x_hi, y_lo, y_hi)

    def test_contains_is_inclusive(self):
        inside = UNIT_SQUARE.contains(np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [1.5, 0.5]]))
        assert inside.tolist() == [True, True, True, False]


class TestDomainShape:
    def test_signed_distance_signs(self):
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        pts = np.array([
            [0.1, 0.5],   # in material
            [0.5, 0.5],   # hole center
            [0.5, 0.7],   # on the hole circle
            [2.0, 0.5],   # outside the rectangle
            [0.0, 0.5],   # on the outer boundary
        ])
        sd = domain.signed_distance(pts)
        assert sd[0] < 0
        assert sd[1] > 0
        assert sd[2] == pytest.approx(0.0, abs=1e-12)
        assert sd[3] > 0
        assert sd[4] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -0.2, np.nan])
    def test_circle_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="^circle radius must be positive"):
            Circle(0.5, 0.5, radius)

    def test_contains(self):
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        assert not domain.contains(np.array([[0.5, 0.5]]))[0]
        assert DomainShape(UNIT_SQUARE).contains(np.array([[0.5, 0.5]]))[0]

    def test_projection_lands_on_boundary(self):
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        p, normal = domain.project_to_boundary(np.array([[0.5, 0.66]]))
        assert p.shape == normal.shape == (1, 2)
        assert abs(domain.signed_distance(p)[0]) < 1e-9
        # the hole's outward normal points from the material into the hole
        np.testing.assert_allclose(normal, [[0.0, -1.0]], atol=1e-15)

    def test_projection_of_no_points_is_empty(self):
        # A refinement pass with no boundary candidates projects nothing.
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        p, normal = domain.project_to_boundary(np.zeros((0, 2)))
        assert p.shape == normal.shape == (0, 2)

    def test_batched_projection_matches_the_scalar_formula(self):
        domain = DomainShape(Rect(-1.0, 3.0, 0.0, 2.0), (Circle(0.5, 1.0, 0.4), Circle(2.0, 0.9, 0.3)))

        def scalar(p):
            # One point at a time: the nearest of the four clamped edge
            # points and the radial points on each hole, first on ties,
            # with the outward normal of its edge or hole.
            r = domain.rect
            candidates = [
                np.array([r.x_lo, min(max(p[1], r.y_lo), r.y_hi)]),
                np.array([r.x_hi, min(max(p[1], r.y_lo), r.y_hi)]),
                np.array([min(max(p[0], r.x_lo), r.x_hi), r.y_lo]),
                np.array([min(max(p[0], r.x_lo), r.x_hi), r.y_hi]),
            ]
            normals = [np.array(n) for n in ([-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0])]
            for hole in domain.holes:
                d = p - hole.center
                nrm = np.hypot(d[0], d[1])
                if nrm == 0.0:
                    candidates.append(hole.center + np.array([hole.radius, 0.0]))
                    normals.append(np.array([-1.0, -0.0]))
                else:
                    candidates.append(hole.center + d * (hole.radius / nrm))
                    normals.append(-(d / nrm))
            dists = [np.hypot(*(c - p)) for c in candidates]
            best = int(np.argmin(dists))
            return candidates[best], normals[best]

        rng = np.random.default_rng(21)
        corners = np.array([[-1.0, 0.0], [-1.0, 2.0], [3.0, 0.0], [3.0, 2.0]])
        along = rng.uniform(0.0, 1.0, 100)
        across = rng.normal(scale=1e-2, size=100)
        theta = rng.uniform(0.0, 2.0 * np.pi, 50)
        points = np.vstack([
            corners[rng.integers(0, 4, 200)] + rng.normal(scale=1e-3, size=(200, 2)),
            np.column_stack([-1.0 + 4.0 * along, rng.choice([0.0, 2.0], 100) + across]),  # near the long edges
            np.column_stack([rng.choice([-1.0, 3.0], 100) + across, 2.0 * along]),  # near the short edges
            rng.uniform([-3.0, -2.0], [5.0, 4.0], size=(200, 2)),  # many outside the domain
            [0.5, 1.0] + rng.uniform(0.3, 0.5, (50, 1)) * np.column_stack([np.cos(theta), np.sin(theta)]),
            [[0.5, 1.0], [2.0, 0.9]],  # the hole centers
            [[-0.0, -0.0], [-1.0, -0.0], [-0.5, 0.5]],  # signed zeros; ties between two edges
        ])
        batched, batched_normals = domain.project_to_boundary(points)
        assert batched.shape == batched_normals.shape == points.shape
        expected, expected_normals = (np.array(a) for a in zip(*(scalar(p) for p in points)))
        assert batched.tobytes() == expected.tobytes()
        assert batched_normals.tobytes() == expected_normals.tobytes()


class TestRectangleGrid:
    def test_three_by_three(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        assert nodes.n == 9
        assert np.count_nonzero(nodes.boundary_mask) == 8
        assert np.count_nonzero(nodes.interior_mask) == 1

    def test_spacing_snaps_to_side_divisor(self):
        nodes = build_rectangle_grid(Rect(0.0, 1.0, 0.0, 0.5), 0.3)
        xs = np.unique(nodes.positions[:, 0])
        assert np.allclose(np.diff(xs), xs[1] - xs[0])

    def test_normals(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        for i in range(nodes.n):
            x, y = nodes.positions[i]
            nrm = nodes.normals[i]
            if 0.0 < x < 1.0 and 0.0 < y < 1.0:
                assert np.all(nrm == 0.0)
                continue
            assert np.hypot(*nrm) == pytest.approx(1.0)
            if x == 0.0 and 0.0 < y < 1.0:
                assert np.allclose(nrm, [-1.0, 0.0])
        corner = np.nonzero((nodes.positions == [1.0, 1.0]).all(axis=1))[0][0]
        assert np.allclose(nodes.normals[corner], [1 / math.sqrt(2)] * 2)

    @pytest.mark.parametrize("h", [0.0, -0.5, 2.0, np.nan])
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ValueError, match="^spacing "):
            build_rectangle_grid(UNIT_SQUARE, h)


class TestDrilledDomain:
    def test_no_holes_matches_plain_grid(self):
        plain = build_rectangle_grid(UNIT_SQUARE, 0.25)
        drilled = build_drilled_domain(UNIT_SQUARE, (), 0.25)
        assert np.array_equal(plain.positions, drilled.positions)
        assert np.array_equal(plain.normals, drilled.normals)

    def test_ring_count_and_normals(self):
        # circumference sampling at the ambient spacing: ceil(2 pi r / h)
        r, h = 1.0, 0.25
        nodes = build_drilled_domain(Rect(-2.0, 2.0, -2.0, 2.0), (Circle(0.0, 0.0, r),), h)
        on_ring = np.abs(np.hypot(*nodes.positions.T) - r) < 1e-12
        assert on_ring.sum() == math.ceil(2.0 * math.pi * r / h) == 26
        ring = nodes.positions[on_ring]
        nrm = nodes.normals[on_ring]
        assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0)
        # normals point from the ring toward the hole center
        assert np.allclose(nrm, -ring / r, atol=1e-12)
        assert np.all(nodes.boundary_mask[on_ring])

    def test_grid_nodes_near_circle_are_culled(self):
        r, h = 1.0, 0.25
        nodes = build_drilled_domain(Rect(-2.0, 2.0, -2.0, 2.0), (Circle(0.0, 0.0, r),), h)
        on_ring = np.abs(np.hypot(*nodes.positions.T) - r) < 1e-12
        d = np.abs(np.hypot(*nodes.positions[~on_ring].T) - r)
        assert d.min() >= h / 2.0

    def test_hole_touching_outer_boundary_rejected(self):
        with pytest.raises(ValueError):
            build_drilled_domain(UNIT_SQUARE, (Circle(0.5, 0.9, 0.2),), 0.1)

    def test_overlapping_holes_rejected(self):
        holes = (Circle(0.4, 0.5, 0.15), Circle(0.6, 0.5, 0.15))
        with pytest.raises(ValueError):
            build_drilled_domain(UNIT_SQUARE, holes, 0.05)

    def test_the_grid_and_then_the_drilled_cloud_are_finalized(self, monkeypatch):
        # the grid is build_rectangle_grid's, checked before the holes are cut
        finalized = []
        original = NodeSet.finalize

        def counted(self):
            finalized.append(self.n)
            original(self)

        monkeypatch.setattr(NodeSet, "finalize", counted)
        nodes = build_drilled_domain(Rect(-2.0, 2.0, -2.0, 2.0), (Circle(0.0, 0.0, 1.0),), 0.25)
        assert finalized == [17 * 17, nodes.n]


class TestNodeSet:
    def test_finalize_catches_unnormalized_boundary_normal(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        normals = nodes.normals.copy()
        normals[0] *= 2.0
        with pytest.raises(ValueError, match="unit length"):
            nodes.replace(normals=normals).finalize()

    def test_finalize_catches_nan_boundary_normal(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        normals = nodes.normals.copy()
        normals[0, 0] = np.nan
        with pytest.raises(ValueError, match="unit length"):
            nodes.replace(normals=normals).finalize()

    @pytest.mark.parametrize("normal", [(1.0, 0.0), (np.nan, 0.0)])
    def test_finalize_catches_normal_on_interior_point(self, normal):
        # A nonzero (or NaN) normal makes the center node a boundary node.
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        normals = nodes.normals.copy()
        normals[4] = normal
        with pytest.raises(ValueError, match="off the boundary curve"):
            nodes.replace(normals=normals).finalize()

    def test_finalize_catches_zero_normal_on_boundary_point(self):
        # A zero normal makes the left-edge node (0, 0.5) an interior node.
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        normals = nodes.normals.copy()
        normals[1] = 0.0
        with pytest.raises(ValueError, match="not strictly inside"):
            nodes.replace(normals=normals).finalize()

    def test_masks_read_the_normals(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        nonzero = np.any(nodes.normals != 0.0, axis=1)
        np.testing.assert_array_equal(nodes.boundary_mask, nonzero)
        np.testing.assert_array_equal(nodes.interior_mask, ~nonzero)

    @pytest.mark.parametrize("gap", [0.0, 0.5e-12])
    def test_coincident_nodes_rejected(self, gap):
        # two interior nodes within 1e-12 of the diagonal are one node
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.25)
        positions = nodes.positions.copy()
        positions[7] = positions[6] + (gap * UNIT_SQUARE.diagonal, 0.0)
        with pytest.raises(ValueError, match="coincident"):
            nodes.replace(positions=positions).finalize()

    def test_close_but_distinct_nodes_pass(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.25)
        positions = nodes.positions.copy()
        positions[7] = positions[6] + (2e-12 * UNIT_SQUARE.diagonal, 0.0)
        nodes.replace(positions=positions).finalize()

    def test_fields_cannot_be_assigned(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            nodes.positions = nodes.positions + 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_finalize_names_non_finite_positions(self, value):
        # The package's own message, not the k-d tree's "data must be finite".
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.25)
        positions = nodes.positions.copy()
        positions[6, 1] = value
        with pytest.raises(ValueError, match="^non-finite node positions$"):
            nodes.replace(positions=positions).finalize()

    def test_csv_round_trip_layout(self, tmp_path):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        path = tmp_path / "nodes.csv"
        nodes.to_csv(path)
        header, *rows = path.read_text().splitlines()
        assert header.split(",")[:3] == ["x", "y", "kind"]
        assert len(rows) == nodes.n
