"""Material model, boundary conditions, and system assembly."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import mlsm2d.cases.metrics
from mlsm2d.cases.beam import MATERIAL, RECT, cantilever_bcs, grid_spacing_for, perturb_nodes
from mlsm2d.cases.drilled import drilled_cantilever_case
from mlsm2d.cases.hertz import hertz_case
from mlsm2d.elasticity import (
    BC_ESSENTIAL,
    BC_TRACTION,
    BoundaryConditions,
    Material,
    StressField,
    assemble,
    compute_stresses,
)
from mlsm2d.neighbors import build_supports
from mlsm2d.nodes import Rect, build_rectangle_grid
from mlsm2d.refine import RefineRegion, refine_levels
from mlsm2d.shapes import IllConditionedStencilError, build_shape_set
from mlsm2d.solve import SolverConfig, solve


def small_problem(h=0.25, n=9):
    nodes = build_rectangle_grid(Rect(0, 2, 0, 1), h)
    shapes = build_shape_set(nodes, build_supports(nodes, n))
    return nodes, shapes


class TestLameParameters:
    def test_plane_strain(self):
        E, nu = 210e9, 0.3
        mat = Material(E, nu, "plane-strain")
        assert mat.mu == pytest.approx(E / (2 * (1 + nu)))
        assert mat.lam == pytest.approx(E * nu / ((1 + nu) * (1 - 2 * nu)))

    def test_plane_stress_modifies_lambda(self):
        E, nu = 72.1e9, 0.33
        strain = Material(E, nu, "plane-strain")
        lam_base, mu = strain.lam, strain.mu
        assert Material(E, nu, "plane-stress").lam == pytest.approx(2 * lam_base * mu / (lam_base + 2 * mu))

    def test_material_dataclass(self):
        mat = Material(E=72.1e9, nu=0.33)
        assert mat.formulation == "plane-stress"
        assert mat.mu == pytest.approx(72.1e9 / (2 * 1.33))
        # the values the package has always produced, to the last bit
        assert (mat.lam, mat.mu) == (26700706991.358997, 27105263157.894737)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 0.3), "Young's modulus must be positive, got 0.0"),
            ((float("nan"), 0.3), "Young's modulus must be positive, got nan"),
            ((1.0, 0.5), "Poisson ratio must lie in (-1, 0.5), got 0.5"),
            ((1.0, 0.3, "plane"), "unknown formulation 'plane'"),
        ],
    )
    def test_invalid_material_message(self, args, message):
        with pytest.raises(ValueError) as info:
            Material(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("nu", [-1.5, 0.5, 0.7])
    def test_invalid_poisson_rejected(self, nu):
        with pytest.raises(ValueError):
            Material(1.0, nu)


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
        # not a valid domain cloud, so it is never finalized
        nodes = grid.replace(positions=positions, normals=normals)
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


def coo_assemble(nodes, shapes, material, bcs):
    """Reference assembly: COO triples per stencil block, converted to CSR with duplicates summed."""
    N = nodes.n
    lam, mu = material.lam, material.mu
    idx = shapes.support
    n = idx.shape[1]
    interior = np.nonzero(nodes.interior_mask)[0]
    essential = np.nonzero(bcs.kind == BC_ESSENTIAL)[0]
    traction = np.nonzero(bcs.kind == BC_TRACTION)[0]
    rows_parts, cols_parts, vals_parts = [], [], []

    def add_block(eq_rows, cols, coeffs):
        rows_parts.append(np.repeat(eq_rows, n))
        cols_parts.append(cols.ravel())
        vals_parts.append(coeffs.ravel())

    dxx, dyy, dxy = (shapes.rows[op][interior] for op in ("dxx", "dyy", "dxy"))
    cols_u = idx[interior]
    add_block(interior, cols_u, (lam + 2.0 * mu) * dxx + mu * dyy)
    add_block(interior, cols_u + N, (lam + mu) * dxy)
    add_block(interior + N, cols_u, (lam + mu) * dxy)
    add_block(interior + N, cols_u + N, mu * dxx + (lam + 2.0 * mu) * dyy)
    dx, dy = shapes.rows["dx"][traction], shapes.rows["dy"][traction]
    n1 = nodes.normals[traction, 0][:, None]
    n2 = nodes.normals[traction, 1][:, None]
    cols_u = idx[traction]
    add_block(traction, cols_u, mu * n2 * dy + (2.0 * mu + lam) * n1 * dx)
    add_block(traction, cols_u + N, lam * n1 * dy + mu * n2 * dx)
    add_block(traction + N, cols_u, mu * n1 * dy + lam * n2 * dx)
    add_block(traction + N, cols_u + N, mu * n1 * dx + (2.0 * mu + lam) * n2 * dy)
    for offset in (0, N):
        rows_parts.append(essential + offset)
        cols_parts.append(essential + offset)
        vals_parts.append(np.ones(essential.size))
    rhs = np.zeros(2 * N)
    rhs[traction] = bcs.values[traction, 0]
    rhs[traction + N] = bcs.values[traction, 1]
    rhs[essential] = bcs.values[essential, 0]
    rhs[essential + N] = bcs.values[essential, 1]
    matrix = sp.coo_matrix(
        (np.concatenate(vals_parts), (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=(2 * N, 2 * N),
    ).tocsr()
    return matrix, rhs


def beam_inputs(n_target=400, n=9, sigma=0.0, levels=0):
    nodes = build_rectangle_grid(RECT, grid_spacing_for(n_target))
    if sigma > 0:
        nodes = perturb_nodes(nodes, sigma, seed=1)
    if levels > 0:
        nodes = refine_levels(nodes, [RefineRegion(Rect(10.0, 20.0, -1.2, 1.2), levels)])
    shapes = build_shape_set(nodes, build_supports(nodes, n))
    return nodes, shapes, MATERIAL, cantilever_bcs(nodes)


def case_inputs(monkeypatch, run_case):
    """The arguments with which a case's pipeline calls assemble."""
    calls = []

    def spy(*args):
        calls.append(args)
        return assemble(*args)

    monkeypatch.setattr(mlsm2d.cases.metrics, "assemble", spy)
    run_case()
    return calls[0]


class TestAssemblyMatchesCOO:
    @pytest.mark.parametrize(
        "make_inputs",
        [
            lambda mp: beam_inputs(),
            lambda mp: beam_inputs(n=13, sigma=0.1),
            lambda mp: beam_inputs(n=15, levels=2),
            lambda mp: case_inputs(mp, lambda: hertz_case(refine_levels=4)),
            lambda mp: case_inputs(mp, drilled_cantilever_case),
        ],
        ids=["9-node grid", "perturbed 13-node grid", "refined 15-node beam", "hertz L=4", "drilled"],
    )
    def test_csr_equals_summed_coo(self, monkeypatch, make_inputs):
        nodes, shapes, material, bcs = make_inputs(monkeypatch)
        # every row kind is written
        assert nodes.interior_mask.any() and (bcs.kind == BC_ESSENTIAL).any() and (bcs.kind == BC_TRACTION).any()
        # the CSR is written in place, which needs each support to list distinct nodes
        idx = np.sort(shapes.support, axis=1)
        assert np.all(idx[:, 1:] != idx[:, :-1])
        system = assemble(nodes, shapes, material, bcs)
        matrix, rhs = coo_assemble(nodes, shapes, material, bcs)
        assert system.matrix.has_canonical_format
        for name in ("data", "indices", "indptr"):
            got, want = getattr(system.matrix, name), getattr(matrix, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert system.rhs.tobytes() == rhs.tobytes()

    @pytest.mark.parametrize("n", [9, 15])
    def test_peak_memory_is_a_small_multiple_of_the_system(self, n):
        # COO parts, row ids and their concatenation took 4.6-4.7 times the
        # returned bytes here; the in-place CSR needs 2.3 times
        nodes, shapes, material, bcs = beam_inputs(n_target=20_000, n=n)
        tracemalloc.start()
        try:
            system = assemble(nodes, shapes, material, bcs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = system.matrix
        returned = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes + system.rhs.nbytes
        assert nodes.n > 20_000
        assert peak < 3.5 * returned


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
        field = StressField(np.array([1.0, 0.0, 3.0]), np.array([0.0, 0.0, 3.0]), np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(field.von_mises, [1.0, np.sqrt(3.0), 3.0])
