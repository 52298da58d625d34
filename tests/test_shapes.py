"""Stencil construction.

The weighted least-squares rows are checked against things that are known
exactly: classical finite-difference weights on a uniform 3x3 support,
analytic derivatives of polynomial data on arbitrary supports, and the
invariances (translation, uniform scaling, weight choice at n = m) that the
construction must respect. Rank-deficient supports exercise the ambiguity
bookkeeping: operators whose stencil survives the deficiency keep working,
the rest raise. build_shape_set solves once per distinct local geometry;
its rows, ranks and masks must equal a per-node solve bit for bit. The
basis images and ambiguity masks must equal those of the hand-written
operator tables and per-node null-space check they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlsm2d.cases.beam import RECT, grid_spacing_for, perturb_nodes
from mlsm2d.neighbors import SupportSet, build_supports
from mlsm2d.nodes import Circle, Rect, build_drilled_domain, build_rectangle_grid
from mlsm2d.refine import RefineRegion, refine_levels
from mlsm2d.relax import relax
from mlsm2d.shapes import (
    _AMBIG_TOL,
    OPS,
    RCOND,
    BasisSpec,
    IllConditionedStencilError,
    WeightSpec,
    _gaussian_rows,
    _monomial_rows,
    _stencils,
    build_shape_set,
    compute_shapes,
)

M9 = BasisSpec("monomial-9")
G9 = BasisSpec("gaussian-9")
ORDERS = {"val": 0, "dx": 1, "dy": 1, "dxx": 2, "dxy": 2, "dyy": 2}


def grid_support(h=1.0):
    """Uniform 3x3 support centered at the origin, center first."""
    offsets = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    return np.array(offsets, dtype=float) * h


def scattered_support(n, rng):
    """Jittered grid sites around the origin, center first.

    Nearest-neighbor supports never contain near-coincident pairs, so the
    generator keeps the minimum separation comparable to the spread; raw
    uniform draws would let the normalized weight zero out everything but
    the closest pair.
    """
    k = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(np.arange(k, dtype=float), np.arange(k, dtype=float))
    sites = np.column_stack([xs.ravel(), ys.ravel()])
    sites -= sites.mean(axis=0)
    rng.shuffle(sites)
    pts = sites[: n - 1] + rng.uniform(-0.2, 0.2, size=(n - 1, 2))
    return np.vstack([[0.0, 0.0], pts])


def poly_field(pos, coeff):
    """Tensor-quadratic with given 9 coefficients, plus exact derivatives."""
    x, y = pos[:, 0], pos[:, 1]
    basis = [np.ones_like(x), x, y, x * x, x * y, y * y, x * x * y, x * y * y, x * x * y * y]
    vals = sum(c * b for c, b in zip(coeff, basis))
    return vals


def poly_derivative(p, coeff, op):
    x, y = p
    c = coeff
    if op == "val":
        return (c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y
                + c[6] * x * x * y + c[7] * x * y * y + c[8] * x * x * y * y)
    if op == "dx":
        return c[1] + 2 * c[3] * x + c[4] * y + 2 * c[6] * x * y + c[7] * y * y + 2 * c[8] * x * y * y
    if op == "dy":
        return c[2] + c[4] * x + 2 * c[5] * y + c[6] * x * x + 2 * c[7] * x * y + 2 * c[8] * x * x * y
    if op == "dxx":
        return 2 * c[3] + 2 * c[6] * y + 2 * c[8] * y * y
    if op == "dyy":
        return 2 * c[5] + 2 * c[7] * x + 2 * c[8] * x * x
    if op == "dxy":
        return c[4] + 2 * c[6] * x + 2 * c[7] * y + 4 * c[8] * x * y
    raise ValueError(op)


class TestFiniteDifferenceOracle:
    """At n = m on a uniform 3x3 block the rows are classical FD weights."""

    @pytest.mark.parametrize("sigma_w", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("h", [1.0, 0.1])
    def test_second_derivative_stencils(self, sigma_w, h):
        pos = grid_support(h)
        rows = compute_shapes(pos, pos[0], M9, WeightSpec(sigma=sigma_w))
        lookup = {tuple(np.round(p / h).astype(int)): k for k, p in enumerate(pos)}

        dxx = np.zeros(9)
        for off, w in (((-1, 0), 1.0), ((0, 0), -2.0), ((1, 0), 1.0)):
            dxx[lookup[off]] = w / h**2
        np.testing.assert_allclose(rows["dxx"], dxx, rtol=1e-9, atol=1e-9 / h**2)

        dyy = np.zeros(9)
        for off, w in (((0, -1), 1.0), ((0, 0), -2.0), ((0, 1), 1.0)):
            dyy[lookup[off]] = w / h**2
        np.testing.assert_allclose(rows["dyy"], dyy, rtol=1e-9, atol=1e-9 / h**2)

        dxy = np.zeros(9)
        for off, w in (((1, 1), 0.25), ((-1, -1), 0.25), ((1, -1), -0.25), ((-1, 1), -0.25)):
            dxy[lookup[off]] = w / h**2
        np.testing.assert_allclose(rows["dxy"], dxy, rtol=1e-9, atol=1e-9 / h**2)

    def test_value_row_is_a_delta(self):
        pos = grid_support()
        rows = compute_shapes(pos, pos[0], M9, WeightSpec())
        expected = np.zeros(9)
        expected[0] = 1.0
        np.testing.assert_allclose(rows["val"], expected, atol=1e-11)

    def test_first_derivative_stencils_are_central(self):
        pos = grid_support(0.5)
        rows = compute_shapes(pos, pos[0], M9, WeightSpec())
        f = poly_field(pos, np.arange(1.0, 10.0))
        assert rows["dx"] @ f == pytest.approx(poly_derivative((0, 0), np.arange(1.0, 10.0), "dx"))
        assert rows["dy"] @ f == pytest.approx(poly_derivative((0, 0), np.arange(1.0, 10.0), "dy"))


class TestPolynomialReproduction:
    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("n", [9, 13])
    def test_random_support_reproduces_tensor_quadratics(self, op, n):
        rng = np.random.default_rng(abs(hash((op, n))) % 2**32)
        for _ in range(5):
            pos = scattered_support(n, rng)
            coeff = rng.standard_normal(9)
            rows = compute_shapes(pos, pos[0], M9, WeightSpec())
            got = rows[op] @ poly_field(pos, coeff)
            want = poly_derivative((0.0, 0.0), coeff, op)
            assert got == pytest.approx(want, rel=1e-7, abs=1e-7 * np.abs(coeff).max())

    def test_constant_reproduction_and_zero_derivative_sums(self):
        rng = np.random.default_rng(7)
        pos = scattered_support(13, rng)
        rows = compute_shapes(pos, pos[0], M9, WeightSpec())
        assert rows["val"].sum() == pytest.approx(1.0, abs=1e-8)
        for op in ("dx", "dy", "dxx", "dxy", "dyy"):
            scale = np.abs(rows[op]).max()
            assert abs(rows[op].sum()) <= 1e-8 * scale


class TestInvariances:
    def test_translation(self):
        rng = np.random.default_rng(3)
        pos = scattered_support(13, rng)
        shift = np.array([5.0, -7.0])
        a = compute_shapes(pos, pos[0], M9, WeightSpec())
        b = compute_shapes(pos + shift, pos[0] + shift, M9, WeightSpec())
        for op in OPS:
            np.testing.assert_allclose(a[op], b[op], rtol=1e-9, atol=1e-9)

    def test_uniform_scaling(self):
        # rows of a k-th derivative scale as s^-k under p -> s p
        rng = np.random.default_rng(4)
        pos = scattered_support(13, rng)
        s = 0.01
        a = compute_shapes(pos, pos[0], M9, WeightSpec())
        b = compute_shapes(pos * s, pos[0] * s, M9, WeightSpec())
        for op, k in ORDERS.items():
            np.testing.assert_allclose(b[op] * s**k, a[op], rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("basis", [M9, G9], ids=["m9", "g9"])
    def test_weight_drops_out_at_interpolation(self, basis):
        rng = np.random.default_rng(5)
        pos = scattered_support(9, rng)
        a = compute_shapes(pos, pos[0], basis, WeightSpec(sigma=0.5))
        b = compute_shapes(pos, pos[0], basis, WeightSpec(sigma=2.0))
        for op in OPS:
            np.testing.assert_allclose(a[op], b[op], rtol=1e-6, atol=1e-8)


class TestGaussianBasis:
    def test_interpolation_value_row_sums_to_one(self):
        rng = np.random.default_rng(6)
        pos = scattered_support(9, rng)
        rows = compute_shapes(pos, pos[0], G9, WeightSpec())
        assert rows["val"].sum() == pytest.approx(1.0, abs=1e-8)

    def test_reproduces_own_basis_functions(self):
        # n = m interpolation is exact on the span of the basis, so data
        # sampled from one member comes back with its analytic derivatives
        rng = np.random.default_rng(6)
        pos = scattered_support(9, rng)
        p_min = np.hypot(pos[1:, 0], pos[1:, 1]).min()
        s = G9.sigma * p_min
        center = pos[3]
        d2 = ((pos - center) ** 2).sum(axis=1)
        f = np.exp(-d2 / s**2)
        rows = compute_shapes(pos, pos[0], G9, WeightSpec())
        f0 = np.exp(-((center**2).sum()) / s**2)
        assert rows["val"] @ f == pytest.approx(f0, rel=1e-8)
        assert rows["dx"] @ f == pytest.approx(2.0 * center[0] / s**2 * f0, rel=1e-7)
        assert rows["dy"] @ f == pytest.approx(2.0 * center[1] / s**2 * f0, rel=1e-7)


class TestBasisSpec:
    def test_gaussian_basis_takes_a_sigma(self):
        assert BasisSpec("gaussian-9", sigma=3.0).sigma == 3.0

    def test_monomial_basis_rejects_a_sigma_it_would_not_read(self):
        assert BasisSpec("monomial-9", sigma=1.0) == M9  # the default value is no choice
        with pytest.raises(ValueError, match="^basis sigma is read only by gaussian-9$"):
            BasisSpec("monomial-9", sigma=3.0)


class TestWeightFunction:
    def test_gaussian_profile(self):
        # rows are the weighted least-squares fit with the documented weight
        # w = exp(-(|p - p0| / (sigma * p_min))^2) on the squared residuals
        rng = np.random.default_rng(8)
        pos = scattered_support(13, rng)
        x, y = pos[:, 0], pos[:, 1]
        r = np.hypot(x, y)
        B = np.column_stack([np.ones_like(x), x, y, x * x, y * y, x * y, x * x * y, x * y * y, x * x * y * y])
        for sigma_w in (0.5, 1.0, 2.0):
            w = np.exp(-((r / (sigma_w * r[1:].min())) ** 2))
            # monomial coefficients as linear maps of the nodal values
            fit = np.linalg.lstsq(np.sqrt(w)[:, None] * B, np.diag(np.sqrt(w)), rcond=None)[0]
            rows = compute_shapes(pos, pos[0], M9, WeightSpec(sigma=sigma_w))
            np.testing.assert_allclose(rows["val"], fit[0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(rows["dx"], fit[1], rtol=0, atol=1e-10)
            np.testing.assert_allclose(rows["dxy"], fit[5], rtol=0, atol=1e-10)


class TestRankDeficiency:
    def test_collinear_support_determines_along_line_only(self):
        pos = np.column_stack([np.linspace(-2, 2, 9), np.zeros(9)])
        pos[[0, 4]] = pos[[4, 0]]  # center first
        rows = compute_shapes(pos, pos[0], M9, WeightSpec(), ops=("val", "dx", "dxx"))
        f = 3.0 + 2.0 * pos[:, 0] + 0.5 * pos[:, 0] ** 2
        assert rows["val"] @ f == pytest.approx(3.0)
        assert rows["dx"] @ f == pytest.approx(2.0)
        assert rows["dxx"] @ f == pytest.approx(1.0)
        for op in ("dy", "dyy", "dxy"):
            # the one-support cloud has no node of the caller's to name
            with pytest.raises(IllConditionedStencilError, match=f"^rank-3 support does not determine the {op} stencil$") as info:
                compute_shapes(pos, pos[0], M9, WeightSpec(), ops=(op,))
            assert info.value.node is None
            assert info.value.support.tolist() == list(range(9))

    def test_unknown_operator_name_is_a_value_error(self):
        pos = grid_support()
        with pytest.raises(ValueError, match="dxxx"):
            compute_shapes(pos, pos[0], M9, WeightSpec(), ops=("val", "dxxx"))
        # the name check comes before any geometry check
        pos[3] = pos[0]
        with pytest.raises(ValueError, match="dxxx"):
            compute_shapes(pos, pos[0], M9, WeightSpec(), ops=("dxxx",))

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_support_below_the_basis_size_is_a_value_error(self, n):
        pos = grid_support()[:n]
        with pytest.raises(ValueError, match=f"^support size {n} is below basis size 9$"):
            compute_shapes(pos, pos[0], M9, WeightSpec())

    def test_coincident_nodes_rejected(self):
        pos = grid_support()
        pos[3] = pos[0]
        with pytest.raises(IllConditionedStencilError):
            compute_shapes(pos, pos[0], M9, WeightSpec())

    def test_grid_edge_supports_leave_only_dxy_ambiguous(self):
        # edge-node 9-supports of a uniform grid are rank deficient, but the
        # Laplacian-relevant rows stay unique; only the mixed derivative
        # depends on the minimum-norm completion
        nodes = build_rectangle_grid(Rect(0, 4, 0, 2), 0.5)
        shapes = build_shape_set(nodes, build_supports(nodes, 9))
        # boundary nodes off the corners: one nonzero normal component
        edge = np.count_nonzero(nodes.normals, axis=1) == 1
        assert shapes.ambiguous["dxy"][edge].any()
        for op in ("val", "dx", "dy", "dxx", "dyy"):
            assert not shapes.ambiguous[op].any(), op
        with pytest.raises(IllConditionedStencilError, match="dxy"):
            shapes.require("dxy")
        shapes.require("dxx")

    def test_require_respects_subset(self):
        nodes = build_rectangle_grid(Rect(0, 4, 0, 2), 0.5)
        shapes = build_shape_set(nodes, build_supports(nodes, 9))
        interior = np.nonzero(nodes.interior_mask)[0]
        shapes.require("dxy", interior)  # interior block stencils are unique


class TestShapeSet:
    def build(self, n=9):
        nodes = build_rectangle_grid(Rect(0, 2, 0, 1), 0.25)
        return nodes, build_shape_set(nodes, build_supports(nodes, n))

    def test_apply_differentiates_polynomial_data(self):
        nodes, shapes = self.build()
        x, y = nodes.positions[:, 0], nodes.positions[:, 1]
        f = 1.0 + 2.0 * x - y + 0.5 * x * y
        interior = nodes.interior_mask
        np.testing.assert_allclose((shapes.apply("dx", f))[interior], (2.0 + 0.5 * y)[interior], atol=1e-9)
        np.testing.assert_allclose((shapes.apply("dxy", f))[interior], 0.5, atol=1e-9)

    def test_row_accessor_matches_apply(self):
        nodes, shapes = self.build()
        f = np.sin(nodes.positions[:, 0])
        i = nodes.n // 2
        row = shapes.rows["dx"][i]
        assert row @ f[shapes.support[i]] == pytest.approx(shapes.apply("dx", f)[i])

    def test_full_rank_on_interior_of_uniform_grid(self):
        nodes, shapes = self.build()
        assert np.all(shapes.ranks[nodes.interior_mask] == 9)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_generic_13_supports_are_full_rank(seed):
    rng = np.random.default_rng(seed)
    pos = scattered_support(13, rng)
    rows = compute_shapes(pos, pos[0], M9, WeightSpec())
    assert rows["val"].sum() == pytest.approx(1.0, abs=1e-8)


def exact_grid():
    return build_rectangle_grid(Rect(0, 2, 0, 1), 0.1), 9


def perturbed_cloud():
    return perturb_nodes(build_rectangle_grid(Rect(0, 2, 0, 1), 0.1), 0.1, seed=3), 13


def refined_cloud():
    base = build_rectangle_grid(Rect(0, 2, 0, 1), 0.125)
    return refine_levels(base, [RefineRegion(Rect(0.0, 1.0, 0.0, 0.5), 2)]), 15


def relaxed_drilled_cloud():
    base = build_drilled_domain(Rect(0, 4, 0, 2), [Circle(2.0, 1.0, 0.5)], 0.25)
    return relax(refine_levels(base, [RefineRegion(Rect(1.2, 2.8, 0.2, 1.8), 1)])), 15


@pytest.mark.parametrize("cloud", [perturbed_cloud, refined_cloud, relaxed_drilled_cloud])
@pytest.mark.parametrize("basis", [M9, G9], ids=["m9", "g9"])
def test_single_support_rows_equal_batched_rows(cloud, basis):
    """compute_shapes and build_shape_set agree bit for bit on every node of a cloud.

    Where a rank-deficient support leaves an operator ambiguous, the batch
    flags it and the single-support call raises for it.
    """
    nodes, n = cloud()
    supports = build_supports(nodes, n)
    shapes = build_shape_set(nodes, supports, basis)
    for i in range(nodes.n):
        pos = nodes.positions[supports.indices[i]]
        determined = tuple(op for op in OPS if not shapes.ambiguous[op][i])
        rows = compute_shapes(pos, nodes.positions[i], basis, WeightSpec(), ops=determined)
        for op in determined:
            assert np.array_equal(rows[op], shapes.rows[op][i]), (i, op)
        for op in set(OPS) - set(determined):
            with pytest.raises(IllConditionedStencilError):
                compute_shapes(pos, nodes.positions[i], basis, WeightSpec(), ops=(op,))


def test_single_support_rows_follow_the_callers_order():
    # the support is ranked by distance inside; the rows come back permuted
    # to the order the caller gave, so shuffling the support shuffles them
    rng = np.random.default_rng(9)
    pos = scattered_support(15, rng)
    perm = np.concatenate([[0], 1 + rng.permutation(14)])
    for basis in (M9, G9):
        a = compute_shapes(pos, pos[0], basis, WeightSpec())
        b = compute_shapes(pos[perm], pos[0], basis, WeightSpec())
        for op in OPS:
            assert np.array_equal(b[op], a[op][perm]), (basis.kind, op)


def test_a_support_without_its_center_is_a_value_error():
    # a fit about a point off the support's nodes is not made at all
    pos = scattered_support(14, np.random.default_rng(10))
    with pytest.raises(ValueError, match="^the support does not hold its center$"):
        compute_shapes(pos[1:], pos[0], M9, WeightSpec())
    with pytest.raises(ValueError, match="^the support does not hold its center$"):
        compute_shapes(pos, pos[0] + 1e-9, M9, WeightSpec())


def local_geometry(nodes, supports, weight_spec):
    """Per-node kernel inputs q and u, and the scale p_min."""
    dist = supports.distances
    p_min = dist[:, 1]
    q = (nodes.positions[supports.indices] - nodes.positions[:, None, :]) / p_min[:, None, None]
    u = dist / (weight_spec.sigma * p_min[:, None])
    return q, u, p_min


def per_node_shapes(nodes, supports, basis, weight_spec):
    """build_shape_set without deduplication: the kernel on every node."""
    q, u, p_min = local_geometry(nodes, supports, weight_spec)
    rows, ranks, ambiguous = _stencils(q, u, basis, OPS)
    return {op: row / p_min[:, None] ** ORDERS[op] for op, row in rows.items()}, ranks, ambiguous


def assert_bit_identical(shapes, reference):
    rows, ranks, ambiguous = reference
    assert np.array_equal(shapes.ranks, ranks)
    for op in OPS:
        assert np.array_equal(shapes.rows[op], rows[op]), op
        assert np.array_equal(shapes.ambiguous[op], ambiguous[op]), op


class TestDeduplication:
    """One solve per distinct (q, u) key gives exactly the per-node rows."""

    @pytest.mark.parametrize("sigma_w", [1.0, 0.5])
    @pytest.mark.parametrize("basis", [M9, G9], ids=["m9", "g9"])
    @pytest.mark.parametrize("cloud", [exact_grid, perturbed_cloud, refined_cloud, relaxed_drilled_cloud])
    def test_rows_ranks_and_masks_equal_a_per_node_solve(self, cloud, basis, sigma_w):
        nodes, n = cloud()
        supports = build_supports(nodes, n)
        shapes = build_shape_set(nodes, supports, basis, WeightSpec(sigma_w))
        assert_bit_identical(shapes, per_node_shapes(nodes, supports, basis, WeightSpec(sigma_w)))

    def test_weight_arguments_are_part_of_the_key(self):
        # two nodes of the grid interior share their local points q; giving
        # one of them a far support distance of its own must give it its
        # own weights, hence its own solve
        nodes = build_rectangle_grid(Rect(0, 4, 0, 4), 0.25)
        supports = build_supports(nodes, 13)
        twin = build_shape_set(nodes, supports)
        i = int(np.argmin(np.hypot(*(nodes.positions - 2.0).T)))
        distances = supports.distances.copy()
        distances[i, -1] *= 1.5
        moved = SupportSet(supports.indices, distances)
        shapes = build_shape_set(nodes, moved)
        assert shapes.n_keys == twin.n_keys + 1
        assert not np.array_equal(shapes.rows["dxx"][i], twin.rows["dxx"][i])
        assert_bit_identical(shapes, per_node_shapes(nodes, moved, M9, WeightSpec()))

    def test_require_names_the_node_and_its_support(self):
        # the scattered masks are per node: the first ambiguous dxy row of
        # this grid is edge node 1 with its 9-support
        nodes = build_rectangle_grid(Rect(0, 4, 0, 2), 0.5)
        shapes = build_shape_set(nodes, build_supports(nodes, 9))
        assert shapes.n_keys < nodes.n
        with pytest.raises(IllConditionedStencilError, match="at node 1$") as info:
            shapes.require("dxy")
        assert info.value.node == 1
        assert info.value.support.tolist() == [1, 0, 2, 6, 5, 7, 3, 11, 8]
        assert np.flatnonzero(shapes.ambiguous["dxy"]).tolist() == [
            1, 2, 3, 5, 9, 10, 14, 15, 19, 20, 24, 25, 29, 30, 34, 35, 39, 41, 42, 43
        ]

    def test_large_grid_solves_few_distinct_stencils(self):
        # the 20k cantilever grid repeats 245 local geometries; a 0.1
        # perturbation makes every support distinct
        nodes = build_rectangle_grid(RECT, grid_spacing_for(20_000))
        assert nodes.n == 20_473
        assert build_shape_set(nodes, build_supports(nodes, 9)).n_keys == 245
        perturbed = perturb_nodes(nodes, 0.1, seed=0)
        assert build_shape_set(perturbed, build_supports(perturbed, 9)).n_keys == perturbed.n

    def test_large_grid_keeps_one_row_per_key(self):
        # rows are stored per key, not per node, and formed on access: each
        # node's row equals its own solve bit for bit (the kernel on every
        # node, and compute_shapes on a sample that holds every key)
        nodes = build_rectangle_grid(Rect(0, 10, 0, 10), 0.1)
        assert nodes.n >= 10_000
        supports = build_supports(nodes, 9)
        shapes = build_shape_set(nodes, supports)
        assert shapes.n_keys < 500
        assert len(shapes.rows) == len(OPS) and set(shapes.rows) == set(OPS)
        for op in OPS:
            assert shapes.key_rows[op].shape == (shapes.n_keys, 9), op
        assert_bit_identical(shapes, per_node_shapes(nodes, supports, M9, WeightSpec()))
        first = np.unique(shapes.key, return_index=True)[1]
        sample = np.union1d(first, np.random.default_rng(0).choice(nodes.n, 300, replace=False))
        for i in sample:
            determined = tuple(op for op in OPS if not shapes.ambiguous[op][i])
            rows = compute_shapes(nodes.positions[supports.indices[i]], nodes.positions[i], M9, WeightSpec(), determined)
            for op in determined:
                assert np.array_equal(rows[op], shapes.rows[op][i]), (i, op)


# The basis images and ambiguity masks as first written, one hand-written
# image per operator and a null-space check per rank-deficient node: the
# oracle for the image rules and the batched masks of shapes.


def table_monomial_rows(q, op):
    x, y = q[..., 0], q[..., 1]
    one = np.ones_like(x)
    zero = np.zeros_like(x)
    cols = {
        "val": (one, x, y, x * x, y * y, x * y, x * x * y, x * y * y, x * x * y * y),
        "dx": (zero, one, zero, 2 * x, zero, y, 2 * x * y, y * y, 2 * x * y * y),
        "dy": (zero, zero, one, zero, 2 * y, x, x * x, 2 * x * y, 2 * x * x * y),
        "dxx": (zero, zero, zero, 2 * one, zero, zero, 2 * y, zero, 2 * y * y),
        "dxy": (zero, zero, zero, zero, zero, one, 2 * x, 2 * y, 4 * x * y),
        "dyy": (zero, zero, zero, zero, 2 * one, zero, zero, 2 * x, 2 * x * x),
    }[op]
    return np.stack(cols, axis=-1)


def table_gaussian_rows(q, centers, sigma, op):
    d = q[..., :, None, :] - centers[..., None, :, :]
    dx, dy = d[..., 0], d[..., 1]
    s2 = sigma * sigma
    g = np.exp(-(dx * dx + dy * dy) / s2)
    return {
        "val": lambda: g,
        "dx": lambda: -2.0 * dx / s2 * g,
        "dy": lambda: -2.0 * dy / s2 * g,
        "dxx": lambda: (4.0 * dx * dx / (s2 * s2) - 2.0 / s2) * g,
        "dyy": lambda: (4.0 * dy * dy / (s2 * s2) - 2.0 / s2) * g,
        "dxy": lambda: 4.0 * dx * dy / (s2 * s2) * g,
    }[op]()


def table_rows(q, centers, basis, op):
    if basis.kind == "monomial-9":
        return table_monomial_rows(q, op)
    return table_gaussian_rows(q, centers, basis.sigma, op)


def per_node_masks(q, u, basis):
    """Ranks and ambiguity masks, one null-space check per deficient node."""
    m = basis.m
    centers = q[:, :m, :]
    B = table_rows(q, centers, basis, "val")
    A = B if q.shape[1] == m else np.exp(-0.5 * u * u)[..., None] * B
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    ranks = np.count_nonzero(s > RCOND * s[:, :1], axis=1)
    origin = np.zeros((len(q), 1, 2))
    masks = {}
    for op in OPS:
        lb = table_rows(origin, centers, basis, op)[:, 0, :]
        mask = np.zeros(len(q), dtype=bool)
        for i in np.flatnonzero(ranks < m):
            null = Vt[i, ranks[i]:]
            scale = float(np.linalg.norm(lb[i]))
            mask[i] = scale > 0 and np.linalg.norm(null @ lb[i]) > _AMBIG_TOL * scale
        masks[op] = mask
    return ranks, masks


def image_points():
    rng = np.random.default_rng(12)
    return [np.zeros((4, 1, 2)), rng.uniform(-3, 3, size=(6, 15, 2))]


class TestImageRulesMatchOperatorTables:
    @pytest.mark.parametrize("op", OPS)
    def test_monomial_images_are_bytewise_equal(self, op):
        for q in image_points():
            got = _monomial_rows(q, *OPS[op])
            assert got.tobytes() == table_monomial_rows(q, op).tobytes()

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("sigma", [1.0, 0.7, 1.3])
    def test_gaussian_images(self, op, sigma):
        # at sigma = 1 every division by s2 is exact; elsewhere the product
        # of the x- and y-factors rounds differently from 4 dx dy / s2^2
        for q in image_points():
            centers = np.random.default_rng(13).uniform(-2, 2, size=(q.shape[0], 9, 2))
            got = _gaussian_rows(q, centers, sigma, *OPS[op])
            want = table_gaussian_rows(q, centers, sigma, op)
            if sigma == 1.0:
                assert got.tobytes() == want.tobytes()
            else:
                scale = np.abs(want).max(axis=-1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-15 * scale)

    @pytest.mark.parametrize("basis", [M9, G9], ids=["m9", "g9"])
    @pytest.mark.parametrize("cloud", [exact_grid, refined_cloud])
    def test_masks_equal_a_per_node_null_space_check(self, cloud, basis):
        nodes, n = cloud()
        q, u, _ = local_geometry(nodes, build_supports(nodes, n), WeightSpec())
        _, ranks, ambiguous = _stencils(q, u, basis, OPS)
        want_ranks, want = per_node_masks(q, u, basis)
        assert np.array_equal(ranks, want_ranks)
        for op in OPS:
            assert np.array_equal(ambiguous[op], want[op]), op
        # not vacuous: under monomial-9 the grid's boundary dxy rows and one
        # refined-cloud support are ambiguous
        assert any(want[op].any() for op in OPS) == (basis is M9)
