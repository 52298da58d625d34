"""Material model, boundary conditions, and system assembly."""

import numpy as np
import pytest

from mlsm2d.elasticity import (
    BoundaryConditions,
    Material,
    StressField,
    assemble,
    compute_stresses,
    lame_parameters,
    von_mises,
)
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Rect, build_rectangle_grid
from mlsm2d.shapes import BasisSpec, IllConditionedStencilError, WeightSpec, build_shape_set
from mlsm2d.solve import SolverConfig, solve


def small_problem(h=0.25, n=9):
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
    shapes = build_shape_set(nodes, build_supports(nodes, n))
    return nodes, shapes


class TestLameParameters:
    def test_plane_strain(self):
        E, nu = 210e9, 0.3
        lam, mu = lame_parameters(E, nu, "plane-strain")
        assert mu == pytest.approx(E / (2 * (1 + nu)))
        assert lam == pytest.approx(E * nu / ((1 + nu) * (1 - 2 * nu)))

    def test_plane_stress_modifies_lambda(self):
        E, nu = 72.1e9, 0.33
        lam_base, mu = lame_parameters(E, nu, "plane-strain")
        lam, _ = lame_parameters(E, nu, "plane-stress")
        assert lam == pytest.approx(2 * lam_base * mu / (lam_base + 2 * mu))

    def test_material_dataclass(self):
        mat = Material(E=72.1e9, nu=0.33)
        assert mat.formulation == "plane-stress"
        assert mat.mu == pytest.approx(72.1e9 / (2 * 1.33))

    @pytest.mark.parametrize("nu", [-1.5, 0.5, 0.7])
    def test_invalid_poisson_rejected(self, nu):
        with pytest.raises(ValueError):
            lame_parameters(1.0, nu)


class TestBoundaryConditions:
    def test_every_boundary_node_needs_a_condition(self):
        nodes, _ = small_problem()
        bcs = BoundaryConditions.empty(nodes.n)
        with pytest.raises(ValueError):
            bcs.validate(nodes)

    def test_condition_on_interior_node_rejected(self):
        nodes, _ = small_problem()
        bcs = BoundaryConditions.empty(nodes.n)
        interior = int(np.nonzero(nodes.interior_mask)[0][0])
        bcs.set_essential(interior, (0.0, 0.0))
        with pytest.raises(ValueError):
            bcs.validate(nodes)

    def test_mixed_conditions_validate(self):
        nodes, _ = small_problem()
        bcs = BoundaryConditions.empty(nodes.n)
        for i in np.nonzero(nodes.boundary_mask)[0]:
            if nodes.positions[i, 0] == 0.0:
                bcs.set_essential(int(i), (0.0, 0.0))
            else:
                bcs.set_traction(int(i), (0.0, 0.0))
        bcs.validate(nodes)


def linear_displacement_bcs(nodes, a, b, c, d):
    """Essential conditions sampling u = a x + b y, v = c x + d y."""
    bcs = BoundaryConditions.empty(nodes.n)
    for i in np.nonzero(nodes.boundary_mask)[0]:
        x, y = nodes.positions[i]
        bcs.set_essential(int(i), (a * x + b * y, c * x + d * y))
    return bcs


class TestAssembly:
    def test_linear_field_is_reproduced(self):
        # linear displacement has zero body force, so collocation of the
        # momentum balance is exact and the solve returns the field itself
        nodes, shapes = small_problem()
        mat = Material(E=1.0, nu=0.3)
        bcs = linear_displacement_bcs(nodes, 0.7, -0.2, 0.3, 0.9)
        system = assemble(nodes, shapes, mat, bcs)
        (u, v), _ = solve(system, SolverConfig(method="direct"))
        x, y = nodes.positions[:, 0], nodes.positions[:, 1]
        np.testing.assert_allclose(u, 0.7 * x - 0.2 * y, atol=1e-8)
        np.testing.assert_allclose(v, 0.3 * x + 0.9 * y, atol=1e-8)

    def test_all_essential_rows_are_identity(self):
        nodes, shapes = small_problem()
        mat = Material(E=1.0, nu=0.3)
        bcs = linear_displacement_bcs(nodes, 1.0, 0.0, 0.0, 1.0)
        system = assemble(nodes, shapes, mat, bcs)
        matrix = system.matrix.tocsr()
        for i in np.nonzero(nodes.boundary_mask)[0]:
            for row in (int(i), int(i) + nodes.n):
                start, stop = matrix.indptr[row], matrix.indptr[row + 1]
                assert stop - start == 1
                assert matrix.indices[start] == row
                assert matrix.data[start] == 1.0

    def test_traction_row_applies_stress_times_normal(self):
        # uniaxial stretch u = x against a unit traction on the right edge
        nodes, shapes = small_problem()
        mat = Material(E=1.0, nu=0.0)
        bcs = BoundaryConditions.empty(nodes.n)
        for i in np.nonzero(nodes.boundary_mask)[0]:
            x, y = nodes.positions[i]
            if x == 0.0:
                bcs.set_essential(int(i), (0.0, 0.0))
            elif x == 2.0 and 0.0 < y < 1.0:
                bcs.set_traction(int(i), (1.0, 0.0))
            else:
                bcs.set_essential(int(i), (x, 0.0))
        system = assemble(nodes, shapes, mat, bcs)
        (u, v), _ = solve(system, SolverConfig(method="direct"))
        np.testing.assert_allclose(u, nodes.positions[:, 0], atol=1e-8)
        np.testing.assert_allclose(v, 0.0, atol=1e-8)

    def test_dimension_and_nnz_bound(self):
        nodes, shapes = small_problem(n=9)
        mat = Material(E=1.0, nu=0.3)
        bcs = linear_displacement_bcs(nodes, 1.0, 0.0, 0.0, 1.0)
        system = assemble(nodes, shapes, mat, bcs)
        dim = 2 * nodes.n
        assert system.dim == dim
        assert system.nnz <= 2 * 9 * dim + dim
        assert system.nnz_ratio == pytest.approx(system.nnz / dim**2)

    def test_interior_rows_need_unambiguous_second_derivatives(self):
        # collinear supports cannot see curvature across the line, so an
        # interior collocation row must refuse the ambiguous dyy stencil
        grid = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        m = 9
        positions = np.column_stack([np.linspace(0, 2, m), np.zeros(m)])
        normals = np.zeros((m, 2))
        normals[0] = (-1.0, 0.0)
        normals[m - 1] = (1.0, 0.0)
        # not a valid domain cloud, so spacing is set here instead of by finalize
        nodes = grid.replace(positions=positions, normals=normals, spacing=np.full(m, 0.25))
        shapes = build_shape_set(nodes, build_supports(nodes, 9))
        mat = Material(E=1.0, nu=0.3)
        bcs = BoundaryConditions.empty(m)
        bcs.set_essential(0, (0.0, 0.0))
        bcs.set_essential(m - 1, (0.0, 0.0))
        with pytest.raises(IllConditionedStencilError):
            assemble(nodes, shapes, mat, bcs)

    def test_export_matrix(self, tmp_path):
        nodes, shapes = small_problem()
        mat = Material(E=1.0, nu=0.3)
        bcs = linear_displacement_bcs(nodes, 1.0, 0.0, 0.0, 1.0)
        system = assemble(nodes, shapes, mat, bcs)
        path = tmp_path / "system.mtx"
        system.export_matrix(path)
        assert path.exists() and path.stat().st_size > 0


class TestStress:
    def test_linear_field_stress_plane_stress(self):
        # u = x, v = -nu y gives uniaxial sigma_xx = E, other components 0
        nodes, shapes = small_problem()
        E, nu = 10.0, 0.3
        mat = Material(E=E, nu=nu)
        x, y = nodes.positions[:, 0], nodes.positions[:, 1]
        stress = compute_stresses(shapes, mat, x, -nu * y)
        np.testing.assert_allclose(stress.sxx, E, rtol=1e-9)
        np.testing.assert_allclose(stress.syy, 0.0, atol=1e-9 * E)
        np.testing.assert_allclose(stress.sxy, 0.0, atol=1e-9 * E)

    def test_shear_field(self):
        nodes, shapes = small_problem()
        mat = Material(E=2.6, nu=0.3)
        y = nodes.positions[:, 1]
        stress = compute_stresses(shapes, mat, y, np.zeros(nodes.n))
        np.testing.assert_allclose(stress.sxy, mat.mu, rtol=1e-9)

    def test_von_mises_formula(self):
        assert von_mises(1.0, 0.0, 0.0) == pytest.approx(1.0)
        assert von_mises(0.0, 0.0, 1.0) == pytest.approx(np.sqrt(3.0))
        field = StressField(np.array([3.0]), np.array([3.0]), np.array([0.0]))
        assert field.von_mises[0] == pytest.approx(3.0)
