"""Point-cloud construction and domain geometry."""

import math

import numpy as np
import pytest

from mlsm2d.nodes import (
    BOUNDARY,
    INTERIOR,
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

    def test_contains(self):
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        assert not domain.contains(np.array([[0.5, 0.5]]))[0]
        assert DomainShape(UNIT_SQUARE).contains(np.array([[0.5, 0.5]]))[0]

    def test_projection_lands_on_boundary(self):
        domain = DomainShape(UNIT_SQUARE, (Circle(0.5, 0.5, 0.2),))
        p = domain.project_to_boundary(np.array([0.5, 0.66]))
        assert abs(domain.signed_distance(p[None, :])[0]) < 1e-9


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
            if nodes.kinds[i] == INTERIOR:
                assert np.all(nrm == 0.0)
                continue
            assert np.hypot(*nrm) == pytest.approx(1.0)
            if x == 0.0 and 0.0 < y < 1.0:
                assert np.allclose(nrm, [-1.0, 0.0])
        corner = np.nonzero((nodes.positions == [1.0, 1.0]).all(axis=1))[0][0]
        assert np.allclose(nodes.normals[corner], [1 / math.sqrt(2)] * 2)

    @pytest.mark.parametrize("h", [0.0, -0.5, 2.0])
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ValueError):
            build_rectangle_grid(UNIT_SQUARE, h)


class TestDrilledDomain:
    def test_no_holes_matches_plain_grid(self):
        plain = build_rectangle_grid(UNIT_SQUARE, 0.25)
        drilled = build_drilled_domain(UNIT_SQUARE, (), 0.25)
        assert np.array_equal(plain.positions, drilled.positions)
        assert np.array_equal(plain.kinds, drilled.kinds)

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
        assert np.all(nodes.kinds[on_ring] == BOUNDARY)

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


class TestNodeSet:
    def test_finalize_catches_unnormalized_boundary_normal(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        normals = nodes.normals.copy()
        normals[0] *= 2.0
        with pytest.raises(ValueError, match="unit length"):
            nodes.replace(normals=normals).finalize()

    def test_coincident_nodes_rejected(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.25)
        positions = nodes.positions.copy()
        positions[7] = positions[6]  # two interior nodes
        with pytest.raises(ValueError, match="coincident"):
            nodes.replace(positions=positions).finalize()

    def test_finalize_sets_nearest_neighbor_spacing(self):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        assert np.allclose(nodes.spacing, 0.5)
        positions = nodes.positions.copy()
        positions[4] += 0.1  # the center node, toward the top-right corner
        moved = nodes.replace(positions=positions)
        moved.finalize()
        d = np.hypot(*(positions[:, None, :] - positions[None, :, :]).T)
        np.fill_diagonal(d, np.inf)
        np.testing.assert_allclose(moved.spacing, d.min(axis=0), rtol=1e-14)

    def test_csv_round_trip_layout(self, tmp_path):
        nodes = build_rectangle_grid(UNIT_SQUARE, 0.5)
        path = tmp_path / "nodes.csv"
        nodes.to_csv(path)
        header, *rows = path.read_text().splitlines()
        assert header.split(",")[:3] == ["x", "y", "kind"]
        assert len(rows) == nodes.n
