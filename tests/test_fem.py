import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fieldxfer import (ConvergenceError, FormatError, QuadMesh,
                       SingularMapError, forward_map, gauss_legendre,
                       inverse_map, jacobian, read_qm1, rect_mesh,
                       shape_functions, tensor_product_rule, triangle_rule,
                       write_qm1)
from fieldxfer.fem import jacobian_all, newton_inverse_batch
from conftest import random_convex_quad


class TestShapeFunctions:
    def test_center(self):
        N, _, _ = shape_functions([0.0, 0.0])
        assert np.array_equal(N, [0.25, 0.25, 0.25, 0.25])

    def test_corner_cardinality(self):
        N, _, _ = shape_functions([-1.0, -1.0])
        assert np.array_equal(N, [1.0, 0.0, 0.0, 0.0])

    def test_third_node_value(self):
        # node 2 sits at reference corner (1, 1)
        N, _, _ = shape_functions([0.5, -0.5])
        assert N[2] == pytest.approx(0.1875, abs=0)

    def test_partition_of_unity(self, rng):
        pts = rng.uniform(-1, 1, (1000, 2))
        N, dxi, deta = shape_functions(pts)
        assert np.max(np.abs(N.sum(axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(dxi.sum(axis=1))) < 1e-14
        assert np.max(np.abs(deta.sum(axis=1))) < 1e-14


class TestGeometryMap:
    def test_unit_square_center(self):
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        assert np.allclose(forward_map(mesh, 0, [0.0, 0.0]), [0.5, 0.5])
        _, det = jacobian(mesh, 0, [0.0, 0.0])
        assert det == pytest.approx(0.25, abs=0)

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
        # non-affine element: a single Newton step cannot reach tolerance
        mesh = QuadMesh([[0, 0], [2, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]])
        center = forward_map(mesh, 0, [0.0, 0.0])
        with pytest.raises(ConvergenceError) as info:
            inverse_map(mesh, 0, [center, [0.3, 0.8]], max_iter=1)
        assert info.value.point_index == 1
        assert info.value.residual > 0

    def test_singular_map(self):
        # collapsed element: all corners on one segment
        cx = np.array([[0.0, 1.0, 2.0, 3.0]])
        cy = np.array([[0.0, 1.0, 2.0, 3.0]])
        with pytest.raises(SingularMapError):
            newton_inverse_batch(cx, cy, np.array([[0.3, 0.7]]))


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

    def test_random_quads_positive_area(self, rng):
        for _ in range(20):
            mesh = QuadMesh(random_convex_quad(rng), [[0, 1, 2, 3]])
            _, det = jacobian_all(mesh, np.array([[0.0, 0.0]]))
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
