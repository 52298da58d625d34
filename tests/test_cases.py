"""Benchmark cases: closed-form fields, error metrics, case drivers, timing."""

import inspect
import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mlsm2d.cases import beam, hertz
from mlsm2d.cases.beam import (
    MATERIAL,
    RECT,
    cantilever_bcs,
    cantilever_case,
    grid_spacing_for,
    perturb_nodes,
    timoshenko_displacement,
    timoshenko_stress,
)
from mlsm2d.cases.drilled import (
    HOLES,
    _hole_box,
    drilled_bcs,
    drilled_cantilever_case,
    drilled_measure,
    hole_refined_cloud,
)
from mlsm2d.cases.hertz import (
    E_STAR,
    HALF_WIDTH,
    PEAK_PRESSURE,
    PRIMARY_FACTORS,
    SECONDARY_FACTORS,
    hertz_bcs,
    hertz_case,
    hertz_cloud,
    hertz_pressure,
    hertz_stress,
    refinement_schedule,
)
from mlsm2d.cases.metrics import error_einf, solve_on_cloud
from mlsm2d.elasticity import BoundaryConditions, Material, StressField
from mlsm2d.nodes import Circle, Rect, build_drilled_domain, build_rectangle_grid
from mlsm2d.refine import RefineRegion, refine_levels, refine_once
from mlsm2d.relax import relax
from mlsm2d.shapes import BasisSpec, WeightSpec
from mlsm2d.solve import ND, SolverConfig
from mlsm2d.timing import PhaseTimer, TimingReport


class TestTimoshenko:
    def test_stress_spot_values(self):
        sxx, syy, sxy = timoshenko_stress(beam.L, beam.D / 2)
        assert sxx == pytest.approx(1000 * 30 * 2.5 / (125 / 12))
        assert syy == 0.0
        assert sxy == pytest.approx(0.0)

    def test_free_end_carries_no_bending_stress(self):
        sxx, _, _ = timoshenko_stress(0.0, 1.7)
        assert sxx == 0.0

    @pytest.mark.parametrize("x", [0.0, 7.5, 30.0])
    def test_top_and_bottom_are_traction_free(self, x):
        for y in (beam.D / 2, -beam.D / 2):
            _, syy, sxy = timoshenko_stress(x, y)
            assert syy == 0.0
            assert sxy == pytest.approx(0.0, abs=1e-12)

    def test_tip_deflection_value(self):
        _, v = timoshenko_displacement(0.0, 0.0)
        assert v == pytest.approx(-1.2149375866851595e-05, rel=1e-12)

    def test_centerline_axial_displacement_vanishes(self):
        u, _ = timoshenko_displacement(np.array([3.0, 11.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(u, 0.0, atol=1e-18)

    def test_support_end_centerline_is_fixed(self):
        _, v = timoshenko_displacement(beam.L, 0.0)
        assert v == pytest.approx(0.0, abs=1e-18)

    def test_field_satisfies_the_momentum_balance(self):
        # the displacement field is cubic, so plain central differences are
        # exact for its second derivatives and the interior residual of the
        # balance equations must vanish
        lam, mu = MATERIAL.lam, MATERIAL.mu
        rng = np.random.default_rng(12)
        h = 1e-3
        for _ in range(20):
            x = rng.uniform(1.0, beam.L - 1.0)
            y = rng.uniform(-beam.D / 2 + 0.5, beam.D / 2 - 0.5)

            def d2(f, comp, mode):
                if mode == "xx":
                    return (f(x + h, y)[comp] - 2 * f(x, y)[comp] + f(x - h, y)[comp]) / h**2
                if mode == "yy":
                    return (f(x, y + h)[comp] - 2 * f(x, y)[comp] + f(x, y - h)[comp]) / h**2
                return (
                    f(x + h, y + h)[comp]
                    - f(x + h, y - h)[comp]
                    - f(x - h, y + h)[comp]
                    + f(x - h, y - h)[comp]
                ) / (4 * h**2)

            disp = timoshenko_displacement
            r_u = (lam + 2 * mu) * d2(disp, 0, "xx") + mu * d2(disp, 0, "yy") + (lam + mu) * d2(disp, 1, "xy")
            r_v = (lam + 2 * mu) * d2(disp, 1, "yy") + mu * d2(disp, 1, "xx") + (lam + mu) * d2(disp, 0, "xy")
            scale = max(
                abs((lam + 2 * mu) * d2(disp, 0, "xx")),
                abs(mu * d2(disp, 0, "yy")),
                abs((lam + mu) * d2(disp, 1, "xy")),
                1e-30,
            )
            assert abs(r_u) <= 1e-4 * scale
            assert abs(r_v) <= 1e-4 * scale


class TestCantileverBCs:
    def build(self):
        return build_rectangle_grid(RECT, 0.5)

    def test_support_edge_gets_analytic_displacements(self):
        nodes = self.build()
        bcs = cantilever_bcs(nodes)
        i = int(np.nonzero((nodes.positions[:, 0] == beam.L) & (nodes.positions[:, 1] == 0.5))[0][0])
        u_ref, v_ref = timoshenko_displacement(beam.L, 0.5)
        assert bcs.essential[i]
        np.testing.assert_allclose(bcs.values[i], (u_ref, v_ref), rtol=1e-12)

    def test_top_edge_is_traction_free(self):
        nodes = self.build()
        bcs = cantilever_bcs(nodes)
        on_top = (nodes.positions[:, 1] == beam.D / 2) & (
            0 < nodes.positions[:, 0]
        ) & (nodes.positions[:, 0] < beam.L)
        i = int(np.nonzero(on_top)[0][0])
        assert nodes.boundary_mask[i] and not bcs.essential[i]
        np.testing.assert_allclose(bcs.values[i], (0.0, 0.0), atol=1e-12)

    def test_load_edge_carries_the_shear_resultant(self):
        # traction on the free end is -sigma . x_hat, a parabola integrating
        # to the applied load
        nodes = self.build()
        bcs = cantilever_bcs(nodes)
        on_left = nodes.positions[:, 0] == 0.0
        idx = np.nonzero(on_left & (np.abs(nodes.positions[:, 1]) < beam.D / 2))[0]
        assert np.all(nodes.boundary_mask[idx]) and not np.any(bcs.essential[idx])
        ys = nodes.positions[idx, 1]
        ty = bcs.values[idx, 1]
        _, _, sxy = timoshenko_stress(0.0, ys)
        np.testing.assert_allclose(ty, -sxy, rtol=1e-12)
        order = np.argsort(ys)
        y_full = np.concatenate([[-beam.D / 2], ys[order], [beam.D / 2]])
        t_full = np.concatenate([[0.0], ty[order], [0.0]])
        assert np.trapezoid(t_full, y_full) == pytest.approx(-beam.P, rel=0.01)

    def test_all_essential_pins_every_boundary_node(self):
        nodes = self.build()
        bcs = cantilever_bcs(nodes, all_essential=True)
        assert np.array_equal(bcs.essential, nodes.boundary_mask)


def test_hertz_bcs_press_the_top_edge_with_the_load():
    b = HALF_WIDTH
    nodes = build_rectangle_grid(Rect(-2.0 * b, 2.0 * b, -0.02 * b, 0.0), b / 200.0)
    bcs = hertz_bcs(nodes)
    top = np.nonzero(nodes.boundary_mask & (nodes.positions[:, 1] == 0.0))[0]
    top = top[np.argsort(nodes.positions[top, 0])]
    inner = top[1:-1]  # the corners are held fixed
    assert not np.any(bcs.essential[inner]) and np.all(bcs.essential[top[[0, -1]]])
    assert np.all(bcs.values[top, 0] == 0.0)
    assert np.trapezoid(bcs.values[top, 1], nodes.positions[top, 0]) == pytest.approx(-hertz.P, rel=1e-3)


class TestBoundaryConditionsMatchPerNodeLoops:
    """The vectorized condition builders against the per-node loops they replaced."""

    @staticmethod
    def same_bits(bcs, essential, values):
        return bcs.essential.tobytes() == essential.tobytes() and bcs.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("all_essential", [False, True])
    def test_cantilever(self, all_essential):
        nodes = build_rectangle_grid(RECT, 0.5)
        essential, values = np.zeros(nodes.n, dtype=bool), np.zeros((nodes.n, 2))
        bnd = np.nonzero(nodes.boundary_mask)[0]
        x, y = nodes.positions[bnd, 0], nodes.positions[bnd, 1]
        u_ref, v_ref = timoshenko_displacement(x, y)
        sxx, syy, sxy = timoshenko_stress(x, y)
        n1, n2 = nodes.normals[bnd, 0], nodes.normals[bnd, 1]
        t1, t2 = sxx * n1 + sxy * n2, sxy * n1 + syy * n2
        for k, i in enumerate(bnd):
            if all_essential or x[k] == RECT.x_hi:
                essential[i], values[i] = True, (u_ref[k], v_ref[k])
            else:
                values[i] = (t1[k], t2[k])
        assert self.same_bits(cantilever_bcs(nodes, all_essential), essential, values)

    def test_hertz(self):
        b = HALF_WIDTH
        nodes = build_rectangle_grid(Rect(-2.0 * b, 2.0 * b, -2.0 * b, 0.0), b / 8.0)
        pressure = lambda xx: hertz_pressure(xx, b, PEAK_PRESSURE)  # noqa: E731
        essential, values = np.zeros(nodes.n, dtype=bool), np.zeros((nodes.n, 2))
        rect = nodes.domain.rect
        bnd = np.nonzero(nodes.boundary_mask)[0]
        x, y = nodes.positions[bnd, 0], nodes.positions[bnd, 1]
        on_top = (y == rect.y_hi) & (x > rect.x_lo) & (x < rect.x_hi)
        for k, i in enumerate(bnd):
            if on_top[k]:
                values[i] = (0.0, -float(pressure(x[k])))
            else:
                essential[i], values[i] = True, (0.0, 0.0)
        assert np.count_nonzero(values[:, 1]) > 10
        assert self.same_bits(hertz_bcs(nodes), essential, values)

    def test_drilled(self):
        nodes = build_drilled_domain(RECT, HOLES, 0.5)
        essential, values = np.zeros(nodes.n, dtype=bool), np.zeros((nodes.n, 2))
        rect = nodes.domain.rect
        bnd = np.nonzero(nodes.boundary_mask)[0]
        x = nodes.positions[bnd, 0]
        for k, i in enumerate(bnd):
            if x[k] == rect.x_hi:
                essential[i], values[i] = True, (0.0, 0.0)
            elif x[k] == rect.x_lo:
                values[i] = (0.0, -beam.P / beam.D)
            else:
                values[i] = (0.0, 0.0)
        assert self.same_bits(drilled_bcs(nodes), essential, values)


class TestPerturbNodes:
    def test_zero_sigma_is_identity(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        out = perturb_nodes(nodes, 0.0)
        np.testing.assert_array_equal(out.positions, nodes.positions)

    def test_displacements_bounded_by_sigma_delta(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        sigma = 0.3
        out = perturb_nodes(nodes, sigma, seed=5)
        moves = out.positions - nodes.positions
        assert np.all(moves >= 0.0)
        assert np.all(moves <= sigma * 0.25 + 1e-12)
        assert np.abs(moves[nodes.interior_mask]).max() > 0.0

    def test_shift_scales_with_the_nearest_neighbor_distance(self):
        # brute-force distances over every pair, on each kind of cloud
        drilled = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2.0, 1.0, 0.5)], 0.25)
        refined = refine_once(drilled, Rect(1.2, 2.8, 0.2, 1.8))
        for nodes in (build_rectangle_grid(Rect(0, 2, 0, 1), 0.25), drilled, refined, relax(refined, 2)):
            d = np.hypot(*(nodes.positions[:, None, :] - nodes.positions[None, :, :]).T)
            np.fill_diagonal(d, np.inf)
            interior = nodes.interior_mask
            draws = np.random.default_rng(5).uniform(0.0, 1.0, size=(interior.sum(), 2))
            expected = nodes.positions[interior] + 0.3 * draws * d.min(axis=0)[interior, None]
            out = perturb_nodes(nodes, 0.3, seed=5)
            np.testing.assert_allclose(out.positions[interior], expected, rtol=1e-14)

    def test_boundary_fixed_and_seed_reproducible(self):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        a = perturb_nodes(nodes, 0.2, seed=3)
        b = perturb_nodes(nodes, 0.2, seed=3)
        c = perturb_nodes(nodes, 0.2, seed=4)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert np.any(a.positions != c.positions)
        np.testing.assert_array_equal(
            a.positions[nodes.boundary_mask], nodes.positions[nodes.boundary_mask]
        )


class TestCantileverCase:
    def test_spacing_and_target_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="^give at most one of nx, spacing or n_target$"):
            cantilever_case(spacing=0.5, n_target=1000)

    @pytest.mark.parametrize("kwargs", [{"spacing": 0.5}, {"n_target": 1000}, {"spacing": 0.5, "n_target": 1000}])
    def test_nx_excludes_the_other_grid_sizes(self, kwargs):
        # nx=60 is the default's value, and still a second grid size
        with pytest.raises(ValueError, match="^give at most one of nx, spacing or n_target$"):
            cantilever_case(nx=60, **kwargs)

    def test_default_grid_has_60_nodes_along_the_beam(self):
        grid = build_rectangle_grid(RECT, beam.L / 59)
        assert cantilever_case().nodes.positions.tobytes() == grid.positions.tobytes()
        with pytest.raises(ValueError, match="nx must be at least 2"):
            cantilever_case(nx=1)

    def test_grid_spacing_for_hits_the_target_count(self):
        for target in (1000, 10_000):
            nodes = build_rectangle_grid(RECT, grid_spacing_for(target))
            assert abs(nodes.n - target) <= 0.1 * target

    def test_moderate_grid_converges(self):
        result = cantilever_case(n_target=2000)
        assert result.errors["e_inf_u"] < 0.02
        assert result.errors["e_inf_sigma"] < 0.2
        assert result.solve_report.residual <= 1e-10

    @pytest.mark.parametrize("sigma", [-0.3, np.nan])
    def test_negative_perturbation_is_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be nonnegative"):
            cantilever_case(n_target=500, perturb_sigma=sigma)

    def test_all_essential_mode_is_more_accurate(self):
        free = cantilever_case(n_target=1000)
        pinned = cantilever_case(n_target=1000, all_essential=True)
        assert pinned.errors["e_inf_u"] < free.errors["e_inf_u"]


class TestErrorMetrics:
    def test_hand_example(self):
        e = error_einf((np.array([6.0]), np.array([1.0])), (np.array([4.0]), np.array([1.0])))
        assert e == pytest.approx(0.5)

    def test_zero_for_identical_fields(self):
        u = np.array([1.0, -2.0])
        v = np.array([0.5, 0.0])
        assert error_einf((u, v), (u, v)) == 0.0

    def test_zero_reference_rejected(self):
        z = np.zeros(3)
        with pytest.raises(ValueError, match="reference field is identically zero"):
            error_einf((np.ones(3), z), (z, z))

    def test_invariant_under_common_rescaling(self):
        rng = np.random.default_rng(8)
        u, v = rng.standard_normal(5), rng.standard_normal(5)
        ur, vr = rng.standard_normal(5), rng.standard_normal(5)
        a = error_einf((u, v), (ur, vr))
        b = error_einf((1e6 * u, 1e6 * v), (1e6 * ur, 1e6 * vr))
        assert b == pytest.approx(a, rel=1e-12)

    def test_stress_metric_with_explicit_scale(self):
        stress = StressField(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        refs = (np.array([3.0]), np.array([0.0]), np.array([0.0]))
        e = error_einf((stress.sxx, stress.syy, stress.sxy), refs, scale=10.0)
        assert e == pytest.approx(0.2)

    def test_component_counts_must_match(self):
        u = np.ones(3)
        with pytest.raises(ValueError):
            error_einf((u, u), (u,))


class TestErrorEinfMatchesTheTwoNormsItReplaced:
    """error_einf against test-local copies of the former displacement and stress norms."""

    @staticmethod
    def displacement_norm(u, v, u_ref, v_ref):
        num = max(np.max(np.abs(np.asarray(u) - np.asarray(u_ref))), np.max(np.abs(np.asarray(v) - np.asarray(v_ref))))
        den = max(np.max(np.abs(u_ref)), np.max(np.abs(v_ref)))
        if den == 0.0:
            raise ValueError("reference displacement field is identically zero")
        return float(num / den)

    @staticmethod
    def stress_norm(stress, sxx_ref, syy_ref, sxy_ref, scale=None):
        num = max(
            np.max(np.abs(stress.sxx - np.asarray(sxx_ref))),
            np.max(np.abs(stress.syy - np.asarray(syy_ref))),
            np.max(np.abs(stress.sxy - np.asarray(sxy_ref))),
        )
        if scale is None:
            scale = max(np.max(np.abs(sxx_ref)), np.max(np.abs(syy_ref)), np.max(np.abs(sxy_ref)))
        if scale == 0.0:
            raise ValueError("reference stress field is identically zero")
        return float(num / scale)

    @staticmethod
    def fields(seed, count):
        """count random component arrays whose magnitudes span many decades."""
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(200) * 10.0 ** rng.uniform(-12, 12, 200) for _ in range(count)]

    def test_displacement_bit_for_bit(self):
        for seed in range(20):
            u, v, u_ref, v_ref = self.fields(seed, 4)
            assert error_einf((u, v), (u_ref, v_ref)) == self.displacement_norm(u, v, u_ref, v_ref)

    @pytest.mark.parametrize("scale", [None, 2.6e6, 1.0 / 3.0])
    def test_stress_bit_for_bit(self, scale):
        for seed in range(20):
            sxx, syy, sxy, *refs = self.fields(seed, 6)
            expected = self.stress_norm(StressField(sxx, syy, sxy), *refs, scale=scale)
            assert error_einf((sxx, syy, sxy), tuple(refs), scale=scale) == expected

    def test_largest_component_is_not_always_the_first(self):
        # The stress comparison is not vacuous: each component is the largest somewhere.
        winners = set()
        for seed in range(20):
            sxx, syy, sxy, *refs = self.fields(seed, 6)
            winners.add(int(np.argmax([np.max(np.abs(c - r)) for c, r in zip((sxx, syy, sxy), refs)])))
        assert winners == {0, 1, 2}


class TestHertzAnalytic:
    def test_reference_geometry(self):
        assert E_STAR == pytest.approx(72.1e9 / (2 * (1 - 0.33**2)), rel=1e-12)
        assert HALF_WIDTH == pytest.approx(0.13e-3, rel=0.02)
        assert PEAK_PRESSURE == pytest.approx(2.6e6, rel=0.02)

    # The two-body modulus sum and R = 1 in the half-width and peak formulas
    # give the bits that every earlier Hertz run used.
    @pytest.mark.parametrize(
        "value, bits",
        [
            (E_STAR, "0x1.2d6af711b2602p+35"),
            (HALF_WIDTH, "0x1.122791193e645p-13"),
            (PEAK_PRESSURE, "0x1.42cb1293e3763p+21"),
            (beam.I, "0x1.4d55555555555p+3"),
        ],
        ids=["E_STAR", "HALF_WIDTH", "PEAK_PRESSURE", "beam.I"],
    )
    def test_constants_keep_their_bits(self, value, bits):
        assert value.hex() == bits

    def test_both_bodies_and_the_beam_share_one_material(self):
        assert beam.MATERIAL == hertz.MATERIAL == Material(72.1e9, 0.33, "plane-stress")

    def test_pressure_profile(self):
        b, p0 = HALF_WIDTH, PEAK_PRESSURE
        assert hertz_pressure(0.0, b, p0) == pytest.approx(p0)
        assert hertz_pressure(b, b, p0) == 0.0
        assert hertz_pressure(2 * b, b, p0) == 0.0

    def test_pressure_integrates_to_the_load(self):
        b, p0 = HALF_WIDTH, PEAK_PRESSURE
        x = np.linspace(-b, b, 20001)
        total = np.trapezoid(hertz_pressure(x, b, p0), x)
        assert total == pytest.approx(543.0, rel=1e-6)

    def test_stress_beneath_the_contact_center(self):
        sxx, syy, sxy = hertz_stress(0.0, 0.0, HALF_WIDTH, PEAK_PRESSURE)
        assert sxx == pytest.approx(-PEAK_PRESSURE, rel=1e-9)
        assert syy == pytest.approx(-PEAK_PRESSURE, rel=1e-9)
        assert sxy == pytest.approx(0.0, abs=1e-9 * PEAK_PRESSURE)

    def test_surface_traction_matches_the_pressure(self):
        b, p0 = HALF_WIDTH, PEAK_PRESSURE
        x = np.linspace(-3 * b, 3 * b, 101)
        _, syy, sxy = hertz_stress(x, np.zeros_like(x), b, p0)
        np.testing.assert_allclose(syy, -hertz_pressure(x, b, p0), atol=1e-9 * p0)
        np.testing.assert_allclose(sxy, 0.0, atol=1e-9 * p0)

    def test_stresses_decay_with_depth(self):
        b, p0 = HALF_WIDTH, PEAK_PRESSURE
        sxx, syy, sxy = hertz_stress(0.0, -1000 * b, b, p0)
        assert max(abs(sxx), abs(syy), abs(sxy)) < 1e-2 * p0

    def test_symmetry_in_x(self):
        b, p0 = HALF_WIDTH, PEAK_PRESSURE
        y = -0.4 * b
        left = hertz_stress(-0.7 * b, y, b, p0)
        right = hertz_stress(0.7 * b, y, b, p0)
        assert left[0] == pytest.approx(right[0], rel=1e-12)
        assert left[1] == pytest.approx(right[1], rel=1e-12)
        assert left[2] == pytest.approx(-right[2], rel=1e-12)


class TestRefinementSchedule:
    def test_default_region_layout(self):
        regions = refinement_schedule(HALF_WIDTH)
        assert len(regions) == 10 + 2 * 2
        levels = [r.level for r in regions]
        assert levels == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 11, 12, 12]
        widths = [r.rect.width for r in regions[:10]]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("factors", [PRIMARY_FACTORS, SECONDARY_FACTORS])
    def test_factors_must_decrease(self, factors):
        assert all(f > 0 for f in factors)
        assert all(f1 > f2 for f1, f2 in zip(factors, factors[1:]))

    def test_counts_take_the_leading_factors(self):
        b = 1e-4
        regions = refinement_schedule(b, 4, 1)
        assert [r.level for r in regions] == [1, 2, 3, 4, 5, 5]
        assert [r.rect.x_hi for r in regions[:4]] == [f * b for f in PRIMARY_FACTORS[:4]]
        assert [r.rect.y_lo for r in regions[4:]] == [-SECONDARY_FACTORS[0] * b] * 2
        assert refinement_schedule(b, 0, 0) == []

    @pytest.mark.parametrize("counts", [(-1, 2), (11, 2), (10, 3), (0, -1)])
    def test_counts_outside_the_factors_are_rejected(self, counts):
        with pytest.raises(ValueError, match=r"refine_levels must be in \[0, 10\] and secondary_levels in \[0, 2\]"):
            refinement_schedule(1e-4, *counts)


@pytest.mark.parametrize("levels", [{"refine_levels": -1}, {"refine_levels": 11}, {"secondary_levels": 3}])
def test_level_counts_outside_the_schedule_are_rejected(levels):
    with pytest.raises(ValueError, match=r"refine_levels must be in \[0, 10\] and secondary_levels in \[0, 2\]"):
        hertz_case(**levels)


@pytest.fixture(scope="module")
def hertz_l4_run():
    return hertz_case(refine_levels=4)


def test_hertz_case_solves_on_hertz_cloud(hertz_l4_run):
    nodes = hertz_cloud(PhaseTimer(), refine_levels=4)
    assert hertz_l4_run.nodes.positions.tobytes() == nodes.positions.tobytes()


def test_hertz_case_builds_its_cloud_at_the_half_size():
    levels = {"refine_levels": 4, "secondary_levels": 0}
    nodes = hertz_cloud(PhaseTimer(), half_size=0.5, **levels)
    assert nodes.domain.rect == Rect(-0.5, 0.5, -0.5, 0.0)
    assert hertz_case(half_size=0.5, **levels).nodes.positions.tobytes() == nodes.positions.tobytes()


@pytest.mark.parametrize("builder", ["hertz_cloud", "hertz_case"])
@pytest.mark.parametrize("half_size", [0.0, HALF_WIDTH, -np.inf, np.nan, np.inf])
def test_half_size_outside_its_bound_is_rejected(monkeypatch, builder, half_size):
    # hertz_cloud owns the bound HALF_WIDTH < H < inf; no grid is built for a value outside it.
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(hertz, "build_rectangle_grid", no_grid)
    timer = PhaseTimer()
    bound = "be finite" if half_size == np.inf else "exceed the contact half-width"
    with pytest.raises(ValueError, match=f"^domain half-size {half_size} must {bound}"):
        if builder == "hertz_cloud":
            hertz_cloud(timer, half_size=half_size)
        else:
            hertz_case(half_size=half_size)
    assert timer.report().phases == {}


class TestTruncatedSchedules:
    def sigma_errors(self, levels, **kwargs):
        return [hertz_case(refine_levels=L, **kwargs).errors["e_inf_sigma"] for L in levels]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: a truncated schedule keeps both secondary levels, whose"
        " 0.4 b and 0.3 b edge boxes hold islands of one or two nodes at L = 5; e_inf_sigma"
        " jumps from 0.196 at L = 4 to 1.89 at L = 5 without an error",
    )
    def test_error_does_not_rise_with_the_primary_levels(self):
        e4, e5 = self.sigma_errors((4, 5))
        assert e5 <= e4

    def test_error_falls_with_the_primary_levels_without_edge_levels(self):
        e4, e6 = self.sigma_errors((4, 6), secondary_levels=0)
        assert e6 < e4  # measured 0.196 -> 0.106


@pytest.fixture(scope="module")
def default_run():
    return drilled_cantilever_case()


class TestDrilledCase:
    @staticmethod
    def solid_beam(make_bcs):
        """The drilled case's pipeline on the beam without holes, at spacing 0.5."""
        timer = PhaseTimer()
        nodes = hole_refined_cloud(timer, RECT, (), 0.5, 1)
        return solve_on_cloud(
            timer, nodes, MATERIAL, make_bcs, drilled_measure,
            basis=BasisSpec(), support_n=15, weight=WeightSpec(), solver=SolverConfig(),
        )

    def test_zero_load_gives_zero_displacement(self):
        def unloaded(nodes):
            clamped = nodes.boundary_mask & (nodes.positions[:, 0] == RECT.x_hi)
            return BoundaryConditions(essential=clamped, values=np.zeros((nodes.n, 2)))

        res = self.solid_beam(unloaded)
        assert np.abs(res.u).max() == pytest.approx(0.0, abs=1e-12)
        assert np.abs(res.v).max() == pytest.approx(0.0, abs=1e-12)

    def test_without_holes_tip_tracks_the_closed_form(self):
        res = self.solid_beam(drilled_bcs)
        tip_ref = timoshenko_displacement(0.0, 0.0)[1]
        assert res.errors["tip_deflection"] == pytest.approx(tip_ref, rel=0.2)

    def test_loaded_end_carries_the_load_over_the_depth(self):
        nodes = build_drilled_domain(RECT, HOLES, 0.5)
        bcs = drilled_bcs(nodes)
        loaded = np.nonzero(nodes.boundary_mask & (nodes.positions[:, 0] == RECT.x_lo))[0]
        assert loaded.size == 11
        assert not np.any(bcs.essential[loaded])
        assert np.all(bcs.values[loaded] == (0.0, -beam.P / beam.D))
        y = np.sort(nodes.positions[loaded, 1])
        assert np.trapezoid(bcs.values[loaded, 1], y) == -beam.P

    def test_solver_converges_and_stress_is_finite(self, default_run):
        assert default_run.solve_report.residual <= 1e-8
        assert np.all(np.isfinite(default_run.stress.von_mises))

    def test_default_solve_reaches_the_library_tolerance(self, default_run):
        assert default_run.solve_report.residual <= SolverConfig().tolerance == 1e-10

    def test_peak_stress_sits_at_a_hole(self, default_run):
        nodes = default_run.nodes
        peak = nodes.positions[int(default_run.extras["peak_vm_node"])]
        ring_gaps = [abs(np.hypot(peak[0] - c.cx, peak[1] - c.cy) - c.radius) for c in HOLES]
        spacing_at_peak = cKDTree(nodes.positions).query(peak, k=2)[0][1]
        assert min(ring_gaps) <= 1.5 * spacing_at_peak

    def test_holes_soften_the_beam(self, default_run):
        tip_ref = timoshenko_displacement(0.0, 0.0)[1]
        assert default_run.errors["tip_deflection"] < tip_ref < 0.0


@pytest.mark.parametrize("case", [cantilever_case, hertz_case, drilled_cantilever_case])
def test_every_case_solves_at_the_library_default(case):
    assert inspect.signature(case).parameters["solver"].default == SolverConfig()


class TestHoleRefinedCloud:
    RECT = Rect(0, 4, 0, 2)
    # The hole's box ends 0.52 from the top and bottom edges: just outside
    # the snapping margin of two spacings.
    HOLES = (Circle(2.0, 1.0, 0.3),)

    def test_zero_counts_skip_refinement_and_relaxation(self):
        timer = PhaseTimer()
        nodes = hole_refined_cloud(timer, self.RECT, self.HOLES, 0.25, 0, 0)
        plain = build_drilled_domain(self.RECT, self.HOLES, 0.25)
        assert nodes.positions.tobytes() == plain.positions.tobytes()
        assert list(timer.report().phases) == ["domain"]

    @pytest.mark.parametrize("holes", [HOLES, ()], ids=["holes", "no-holes"])
    @pytest.mark.parametrize(
        "refine_level,relax_iterations,message",
        [
            (-1, 0, "refine_levels must be nonnegative, got -1"),
            (0, -3, "iterations must be nonnegative"),
            (-1, -3, "refine_levels must be nonnegative, got -1"),
        ],
    )
    def test_negative_counts_are_rejected(self, holes, refine_level, relax_iterations, message):
        with pytest.raises(ValueError, match=message):
            hole_refined_cloud(PhaseTimer(), self.RECT, holes, 0.5, refine_level, relax_iterations)

    def test_refines_each_hole_box_then_relaxes(self):
        timer = PhaseTimer()
        nodes = hole_refined_cloud(timer, self.RECT, self.HOLES, 0.25, 2, 3)
        regions = [RefineRegion(_hole_box(h, self.RECT, 0.5), 2) for h in self.HOLES]
        expected = relax(refine_levels(build_drilled_domain(self.RECT, self.HOLES, 0.25), regions), 3)
        assert nodes.positions.tobytes() == expected.positions.tobytes()
        assert list(timer.report().phases) == ["domain", "refinement", "relaxation"]


class TestTimingReport:
    def test_phase_adds_to_the_report_it_is_called_on(self):
        # the one clock: a run's PhaseTimer and a finished report time their
        # phases with the same context manager
        report = TimingReport(phases={"domain": 1.0}, total=2.0)
        with report.phase("domain"):
            pass
        with report.phase("output"):
            pass
        assert list(report.phases) == ["domain", "output"]
        assert report.phases["domain"] >= 1.0 and report.phases["output"] >= 0.0
        assert report.total == 2.0
        assert PhaseTimer.phase is TimingReport.phase

    def test_validate_rejects_negative_phase(self):
        report = TimingReport(phases={"solve": -1.0}, total=2.0)
        with pytest.raises(ValueError):
            report.validate()

    def test_validate_rejects_total_below_largest_phase(self):
        report = TimingReport(phases={"solve": 3.0}, total=1.0)
        with pytest.raises(ValueError):
            report.validate()

    def test_csv_lists_phases_and_total(self, tmp_path):
        report = TimingReport(phases={"domain": 0.5, "solve": 1.0}, total=2.0)
        path = tmp_path / "timing.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "phase,seconds"
        assert lines[-1].startswith("total,")

    def test_phase_timer_accumulates(self):
        timer = PhaseTimer()
        for _ in range(2):
            with timer.phase("solve"):
                time.sleep(0.01)
            time.sleep(0.05)  # between the blocks, so in the total only
        report = timer.report()
        assert list(report.phases) == ["solve"]
        assert 0.02 <= report.phases["solve"] < 0.1
        assert report.total >= report.phases["solve"] + 0.1


class TestCaseTimings:
    @pytest.mark.parametrize("case", ["cantilever", "drilled", "hertz"])
    def test_phases_sum_close_to_the_total(self, request, case):
        report = {
            "cantilever": lambda: cantilever_case(n_target=2000).timings,
            "drilled": lambda: request.getfixturevalue("default_run").timings,
            "hertz": lambda: request.getfixturevalue("hertz_l4_run").timings,
        }[case]()
        report.validate()
        assert sum(report.phases.values()) <= report.total
        assert sum(report.phases.values()) >= 0.9 * report.total

    # The phases of each case in the order they ran, as its timing.csv lists them.
    @pytest.mark.parametrize(
        "case, phases",
        [
            ("cantilever", ["domain", "supports", "shapes", "assembly", "ordering", "preconditioner", "solve", "postprocess"]),
            ("hertz", ["domain", "refinement", "supports", "shapes", "assembly", "preconditioner", "solve", "postprocess"]),
            (
                "drilled",
                ["domain", "refinement", "relaxation", "supports", "shapes", "assembly", "preconditioner", "solve", "postprocess"],
            ),
            ("hertz-cloud", ["domain", "refinement"]),
        ],
        ids=["cantilever", "hertz", "drilled", "hertz-cloud"],
    )
    def test_phases_in_run_order(self, request, case, phases):
        def cloud_timings():
            timer = PhaseTimer()
            hertz_cloud(timer)
            return timer.report()

        timings = {
            "cantilever": lambda: cantilever_case(n_target=2000).timings,
            "hertz": lambda: request.getfixturevalue("hertz_l4_run").timings,
            "drilled": lambda: request.getfixturevalue("default_run").timings,
            "hertz-cloud": cloud_timings,
        }[case]()
        assert list(timings.phases) == phases

    def test_dissected_solve_records_its_ordering_phase(self):
        result = cantilever_case(n_target=2000)
        assert result.solve_report.ordering == ND
        assert result.timings.phases["ordering"] > 0

    def test_minimum_degree_solve_has_no_ordering_phase(self, default_run):
        assert default_run.solve_report.ordering == "MMD_AT_PLUS_A"
        assert "ordering" not in default_run.timings.phases

    def test_tiny_run_report_is_well_formed(self):
        result = cantilever_case(spacing=2.5)
        report = result.timings
        report.validate()
        assert report.total > 0.0
        assert list(report.phases) == [
            "domain", "supports", "shapes", "assembly", "ordering", "preconditioner", "solve", "postprocess"
        ]
