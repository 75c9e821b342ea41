from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from fieldxfer import (ConvergenceError, FormatError, QuadMesh,
                       SingularMapError, forward_map, gauss_legendre,
                       inverse_map, read_qm1, rect_mesh, shape_functions,
                       tensor_product_rule, triangle_rule, write_qm1)
from fieldxfer import fem
from fieldxfer.fem import jacobian_all, newton_inverse_batch
from conftest import random_convex_quad

# single elements, four CCW corners each
SKEWED = [[0, 0], [4, 0.5], [3, 3], [0.5, 2]]
TRAPEZOID = [[0, 0], [2, 0], [1, 1], [0, 1]]
PARALLELOGRAM = [[0, 0], [3, 1], [4, 4], [1, 3]]


class TestShapeFunctions:
    def test_center(self):
        N = shape_functions([0.0, 0.0])
        assert np.array_equal(N, [0.25, 0.25, 0.25, 0.25])

    def test_corner_cardinality(self):
        N = shape_functions([-1.0, -1.0])
        assert np.array_equal(N, [1.0, 0.0, 0.0, 0.0])

    def test_third_node_value(self):
        # node 2 sits at reference corner (1, 1)
        N = shape_functions([0.5, -0.5])
        assert N[2] == pytest.approx(0.1875, abs=0)

    def test_partition_of_unity(self, rng):
        pts = rng.uniform(-1, 1, (1000, 2))
        N = shape_functions(pts)
        assert N.shape == (1000, 4)
        assert np.max(np.abs(N.sum(axis=1) - 1.0)) < 1e-14

    def test_bitwise_equal_to_corner_sign_formula(self, rng):
        # the per-corner formula N_j = (1 + xi_j xi)(1 + eta_j eta)/4 as a
        # reference, broadcast over the corner signs
        xi_s = np.array([-1.0, 1.0, 1.0, -1.0])
        eta_s = np.array([-1.0, -1.0, 1.0, 1.0])
        pts = np.concatenate([rng.uniform(-1, 1, (1000, 2)), [[-1.0, 1.0], [0.0, -0.0]]])
        xi, eta = pts[:, :1], pts[:, 1:]
        expected = 0.25 * (1.0 + xi_s * xi) * (1.0 + eta_s * eta)
        got = shape_functions(pts)
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestGeometryMap:
    def test_unit_square_center(self):
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        assert np.allclose(forward_map(mesh, 0, [0.0, 0.0]), [0.5, 0.5])
        det = jacobian_all(mesh, np.array([[0.0, 0.0]]))
        assert det[0, 0] == pytest.approx(0.25, abs=0)

    def test_corner_maps_to_first_node(self):
        mesh = rect_mesh(2, 3, 5, 7, 2, 2)
        for e in range(mesh.n_elements):
            x = forward_map(mesh, e, [-1.0, -1.0])
            assert np.allclose(x, mesh.nodes[mesh.elements[e, 0]])
        # e=None maps the points in every element at once
        corners = np.column_stack([[-1.0, 1.0, 1.0, -1.0], [-1.0, -1.0, 1.0, 1.0]])
        x = forward_map(mesh, None, corners)
        assert x.shape == (mesh.n_elements, 4, 2)
        assert np.allclose(x, mesh.element_coords())

    def test_trapezoid_center(self):
        mesh = QuadMesh([[0, 0], [2, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
        assert np.allclose(forward_map(mesh, 0, [0.0, 0.0]), [0.75, 0.5])

    def test_jacobian_matches_corner_sign_derivatives(self, rng):
        # det [dX/dxi, dX/deta] with the derivatives of the per-corner
        # formula N_j = (1 + xi_j xi)(1 + eta_j eta)/4 as a reference
        nodes = np.concatenate([random_convex_quad(rng) for _ in range(6)] + [TRAPEZOID])
        mesh = QuadMesh(nodes, np.arange(len(nodes)).reshape(-1, 4))
        xi_s = np.array([-1.0, 1.0, 1.0, -1.0])
        eta_s = np.array([-1.0, -1.0, 1.0, 1.0])
        pts = rng.uniform(-1, 1, (40, 2))
        xi, eta = pts[:, :1], pts[:, 1:]
        d_xi = np.einsum("qj,ejd->eqd", 0.25 * xi_s * (1.0 + eta_s * eta), mesh.element_coords())
        d_eta = np.einsum("qj,ejd->eqd", 0.25 * eta_s * (1.0 + xi_s * xi), mesh.element_coords())
        expected = d_xi[..., 0] * d_eta[..., 1] - d_eta[..., 0] * d_xi[..., 1]
        assert np.allclose(jacobian_all(mesh, pts), expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_jacobian_exact_far_from_origin(self, rng, scale):
        # the corner-sign derivative formula, in exact arithmetic, as a reference
        n = 50
        nodes = np.concatenate([random_convex_quad(rng, scale) + 1e4 for _ in range(n)])
        mesh = QuadMesh(nodes, np.arange(4 * n).reshape(n, 4))
        pts = rng.uniform(-1, 1, (4, 2))
        signs = list(zip([-1, 1, 1, -1], [-1, -1, 1, 1]))
        for corners, dets in zip(mesh.element_coords(), jacobian_all(mesh, pts)):
            x, y = [[Fraction(v) for v in col] for col in corners.T]
            for (xi, eta), det in zip(pts, dets):
                xi, eta = Fraction(xi), Fraction(eta)
                d_xi = [sum(s * (1 + t * eta) * c for (s, t), c in zip(signs, cs)) / 4
                        for cs in (x, y)]
                d_eta = [sum(t * (1 + s * xi) * c for (s, t), c in zip(signs, cs)) / 4
                         for cs in (x, y)]
                exact = d_xi[0] * d_eta[1] - d_eta[0] * d_xi[1]
                assert abs(Fraction(det) - exact) <= Fraction(1e-15) * exact


class TestInverseMap:
    def test_unit_square_rescaling(self):
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        ref = inverse_map(mesh, 0, [[0.25, 0.75]])
        assert np.allclose(ref, [[-0.5, 0.5]], atol=1e-12)

    def test_roundtrip_random_quads(self, rng):
        worst = 0.0
        for _ in range(100):
            mesh = QuadMesh(random_convex_quad(rng), [[0, 1, 2, 3]])
            ref = rng.uniform(-1, 1, (100, 2))
            phys = forward_map(mesh, 0, ref)
            back = inverse_map(mesh, 0, phys)
            worst = max(worst, float(np.max(np.abs(back - ref))))
        assert worst < 1e-10

    def test_parallelogram_center(self):
        mesh = QuadMesh([[0, 0], [2, 0], [3, 1], [1, 1]], [[0, 1, 2, 3]])
        center = mesh.nodes.mean(axis=0)
        assert np.allclose(inverse_map(mesh, 0, [center]), [[0.0, 0.0]], atol=1e-12)

    def test_nonconvergence_reports_point(self):
        # (3, 3) lies far outside the trapezoid: the closed-form start
        # misses, and one Newton step from the center cannot reach tolerance
        mesh = QuadMesh([[0, 0], [2, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
        center = forward_map(mesh, 0, [0.0, 0.0])
        with pytest.raises(ConvergenceError) as info:
            inverse_map(mesh, 0, [center, [3.0, 3.0]], max_iter=1)
        assert info.value.point_index == 1
        assert info.value.residual > 0

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_thresholds_in_element_units(self, scale):
        mesh = QuadMesh(np.array(TRAPEZOID) * scale + 5.0 * scale, [[0, 1, 2, 3]])
        ref = np.array([[0.3, -0.7], [1.0, 1.0], [-0.25, 0.5]])
        back = inverse_map(mesh, 0, forward_map(mesh, 0, ref))
        assert np.max(np.abs(back - ref)) <= 1e-12
        # one Newton step from the center misses (3, 3) by the same
        # relative amount at any scale
        with pytest.raises(ConvergenceError) as info:
            inverse_map(mesh, 0, [[8.0 * scale, 8.0 * scale]], max_iter=1)
        assert info.value.residual == pytest.approx(70 / 9, rel=1e-9)

    def test_nonconvergence_names_element(self, monkeypatch):
        # element 1 is the trapezoid above, next to a unit square; the far
        # point (3, 3) fails in element 1 as the third point of the batch,
        # the first of the second chunk
        monkeypatch.setattr(fem, "_INVERSE_CHUNK", 2)
        mesh = QuadMesh([[-1, 0], [0, 0], [2, 0], [1, 1], [0, 1], [-1, 1]],
                        [[0, 1, 4, 5], [1, 2, 3, 4]])
        centers = forward_map(mesh, None, [0.0, 0.0])
        with pytest.raises(ConvergenceError,
                           match=r"point 2 in element 1 at \(3\.0, 3\.0\)") as info:
            newton_inverse_batch(mesh, [0, 1, 1], [centers[0], centers[1], [3.0, 3.0]],
                                 max_iter=1)
        assert info.value.point_index == 2
        assert info.value.residual > 0


def _convex(corners, margin=0.05):
    v = np.roll(corners, -1, axis=0) - corners
    w = np.roll(v, -1, axis=0)
    return bool(np.all(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0] > margin))


@st.composite
def element_and_ref_points(draw):
    """A convex quad, a near-parallelogram or an exact parallelogram, and
    reference points inside it, on its edges or at its corners."""
    kind = draw(st.sampled_from(["convex", "near-parallelogram", "parallelogram",
                                 "boundary"]))
    unit = st.floats(-0.3, 0.3)
    if kind in ("convex", "boundary"):
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        corners += np.array(draw(st.lists(unit, min_size=8, max_size=8))).reshape(4, 2)
    else:
        # dyadic corners, so that an exact parallelogram stays exact
        dyadic = st.integers(-8, 8).map(lambda k: k / 32)
        u = np.array([1.0, 0.0]) + draw(st.tuples(dyadic, dyadic))
        v = np.array([0.0, 1.0]) + draw(st.tuples(dyadic, dyadic))
        corners = np.array([[0.0, 0.0], u, u + v, v])
        if kind == "near-parallelogram":
            corners[2] += draw(st.tuples(st.floats(-1e-6, 1e-6), st.floats(-1e-6, 1e-6)))
    assume(_convex(corners))
    # whole quarter turns keep dyadic corners exact; any turn puts the
    # larger xi coefficient on either axis
    quarters = draw(st.integers(0, 3) | st.floats(0.0, 4.0))
    cos, sin = np.cos(0.5 * np.pi * quarters), np.sin(0.5 * np.pi * quarters)
    if isinstance(quarters, int):
        cos, sin = round(cos), round(sin)
    rotation = np.array([[cos, -sin], [sin, cos]])
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    offset = np.array(draw(st.tuples(st.floats(-10, 10), st.floats(-10, 10))))
    corners = (corners @ rotation.T + offset) * scale
    ref = np.array(draw(st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
                                 min_size=1, max_size=20)))
    if kind == "boundary":
        sides = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                       min_size=2 * len(ref), max_size=2 * len(ref))))
        pin = np.array(draw(st.lists(st.sampled_from([0, 1, 2]),
                                     min_size=len(ref), max_size=len(ref))))
        # pin xi (0), eta (1) or both (2) to an edge of the reference square
        sides = sides.reshape(-1, 2)
        ref[pin != 1, 0] = sides[pin != 1, 0]
        ref[pin != 0, 1] = sides[pin != 0, 1]
    return QuadMesh(corners, [[0, 1, 2, 3]]), ref


class TestClosedFormStart:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=element_and_ref_points())
    # the trapezoid turned a quarter: xi only moves y, so xi must come
    # from the y equation
    @example(case=(QuadMesh(np.array(TRAPEZOID) @ [[0, 1], [-1, 0]], [[0, 1, 2, 3]]),
                   np.array([[0.5, -0.25], [-0.75, 0.9], [1.0, -1.0]])))
    def test_inside_points_need_one_iteration(self, case):
        mesh, ref = case
        back = inverse_map(mesh, 0, forward_map(mesh, 0, ref), max_iter=1)
        assert np.max(np.abs(back - ref)) <= 1e-12

    # outside points: the root that Newton from the element center finds,
    # or its error, as before the closed-form start existed. Where a point
    # has two real roots, the closed-form root nearest [-1, 1] can be the
    # other one (SKEWED at (-3, -9), (5, 15) and (12, -8)).
    @pytest.mark.parametrize("corners, point, expected", [
        (TRAPEZOID, (3, 3), (-7.0, 5.0)),
        (TRAPEZOID, (-3, -9), (-17 / 11, -19.0)),
        (TRAPEZOID, (-10, 2), SingularMapError),
        (SKEWED, (-3, -9), (-1.132936222147, -10.118284735106)),
        (SKEWED, (5, 15), (-1.283450811674, 14.624458379109)),
        (SKEWED, (12, -8), (2.107235825315, -7.321507236805)),
        (SKEWED, (6, 6), (4.479833637888, 1.747833075633)),
        (SKEWED, (-10, 2), ConvergenceError),
        (SKEWED, (-4, 7), ConvergenceError),
        (PARALLELOGRAM, (12, -8), (10.0, -10.0)),
        (PARALLELOGRAM, (-4, 7), (-5.75, 5.25)),
    ])
    def test_outside_points_keep_their_root_or_error(self, corners, point, expected):
        mesh = QuadMesh(corners, [[0, 1, 2, 3]])
        if isinstance(expected, type):
            with pytest.raises(expected):
                inverse_map(mesh, 0, [point])
        else:
            assert np.allclose(inverse_map(mesh, 0, [point]), [expected],
                               rtol=0, atol=1e-9)


class TestGaussLegendre:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre(1)
        assert np.array_equal(rule.points, [0.0])
        assert np.array_equal(rule.weights, [2.0])

    def test_two_point_nodes(self):
        rule = gauss_legendre(2)
        assert rule.points == pytest.approx([-0.5773502691896257, 0.5773502691896257],
                                            abs=1e-15)
        assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_quartic_with_three_points(self):
        rule = gauss_legendre(3)
        val = np.sum(rule.weights * rule.points ** 4)
        assert val == pytest.approx(0.4, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 20])
    def test_monomial_exactness(self, n):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            val = np.sum(rule.weights * rule.points ** k)
            if k % 2 == 0:
                assert val == pytest.approx(2.0 / (k + 1), rel=1e-12)
            else:
                assert abs(val) < 1e-13

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 30])
    def test_matches_numpy_leggauss(self, n):
        rule = gauss_legendre(n)
        x, w = leggauss(n)
        assert np.max(np.abs(rule.points - x)) < 1e-13
        assert np.max(np.abs(rule.weights - w)) < 1e-13

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(31)

    def test_tensor_rule(self):
        rule = tensor_product_rule(3)
        assert len(rule) == 9
        assert rule.weights.sum() == pytest.approx(4.0, rel=1e-14)
        # integrates x^4 * y^2 on [-1,1]^2 exactly
        val = np.sum(rule.weights * rule.points[:, 0] ** 4 * rule.points[:, 1] ** 2)
        assert val == pytest.approx((2 / 5) * (2 / 3), rel=1e-13)


class TestTriangleRule:
    def test_weights_sum_to_one(self):
        rule = triangle_rule()
        assert len(rule) == 6
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unit_triangle_constant(self):
        rule = triangle_rule()
        # physical integral of 1 over the unit triangle scales by |T| = 1/2
        assert 0.5 * rule.weights.sum() == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("f,exact", [
        (lambda x, y: x ** 2 * y ** 2, 1.0 / 180.0),
        (lambda x, y: x ** 4, 1.0 / 30.0),
        (lambda x, y: x ** 3 * y, 1.0 / 120.0),
    ])
    def test_degree_four_exactness(self, f, exact):
        rule = triangle_rule()
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        xy = rule.points @ verts
        val = 0.5 * np.sum(rule.weights * f(xy[:, 0], xy[:, 1]))
        assert val == pytest.approx(exact, rel=1e-13)


class TestQuadMesh:
    def test_rect_mesh_counts(self):
        mesh = rect_mesh(0, 0, 1, 1, 40, 40)
        assert mesh.n_nodes == 1681
        assert mesh.n_elements == 1600

    def test_area_sum(self):
        mesh = rect_mesh(-1, 2, 3, 5, 13, 7)
        assert mesh.element_areas().sum() == pytest.approx(12.0, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_areas_match_exact_shoelace_far_from_origin(self, rng, scale):
        n = 50
        nodes = np.concatenate([random_convex_quad(rng, scale) + 1e4 for _ in range(n)])
        mesh = QuadMesh(nodes, np.arange(4 * n).reshape(n, 4))
        for corners, area in zip(mesh.element_coords(), mesh.element_areas()):
            x, y = [[Fraction(v) for v in col] for col in corners.T]
            exact = sum(x[i] * y[i - 3] - x[i - 3] * y[i] for i in range(4)) / 2
            assert abs(Fraction(area) - exact) <= Fraction(1e-15) * exact

    def test_random_quads_positive_area(self, rng):
        for _ in range(20):
            mesh = QuadMesh(random_convex_quad(rng), [[0, 1, 2, 3]])
            det = jacobian_all(mesh, np.array([[0.0, 0.0]]))
            assert det[0, 0] > 0

    def test_rejects_inverted_element(self):
        with pytest.raises(ValueError, match="inverted"):
            QuadMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 3, 2, 1]])

    def test_rejects_repeated_node(self):
        with pytest.raises(ValueError, match="repeats"):
            QuadMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 2]])
        nodes = [[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]]
        with pytest.raises(ValueError, match=r"element 2 \[1, 4, 2, 1\] repeats"):
            QuadMesh(nodes, [[0, 1, 4, 3], [1, 2, 5, 4], [1, 4, 2, 1]])

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="unknown"):
            QuadMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 7]])

    def test_rejects_degenerate_rect(self):
        with pytest.raises(ValueError):
            rect_mesh(0, 0, 1, 1, 0, 4)


class TestQm1Format:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        nodes = random_convex_quad(rng)
        mesh = QuadMesh(nodes, [[0, 1, 2, 3]])
        path = tmp_path / "mesh.qm1"
        write_qm1(path, mesh)
        back = read_qm1(path)
        assert np.array_equal(back.nodes, mesh.nodes)
        assert np.array_equal(back.elements, mesh.elements)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.qm1"
        path.write_text("QX 1\n1 0\n0 0\n")
        with pytest.raises(FormatError):
            read_qm1(path)
