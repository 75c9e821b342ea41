import numpy as np
import pytest

from fieldxfer import (DomainError, StructuredGrid, assemble_quadrature,
                       assemble_quadrature_analytic, lagrange_interpolator,
                       read_rhs, rect_mesh, sample_field, shape_functions,
                       write_rhs)
from fieldxfer.fem import jacobian_all
from conftest import random_field, random_grid


def midpoint_assembly(mesh, func):
    """Independent one-point (element midpoint) assembly oracle."""
    b = np.zeros(mesh.n_nodes)
    N, _, _ = shape_functions(np.array([[0.0, 0.0]]))
    det = jacobian_all(mesh, np.array([[0.0, 0.0]]))
    for e, conn in enumerate(mesh.elements):
        x, y = (N[0] @ mesh.nodes[conn])
        contrib = 4.0 * func(x, y) * det[e, 0]
        for k, node in enumerate(conn):
            b[node] += contrib * N[0, k]
    return b


class TestAnalyticAssembly:
    def test_constant_single_element(self):
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        for ng in (1, 2, 5):
            b = assemble_quadrature_analytic(mesh, lambda x, y: np.ones_like(x), ng)
            assert np.allclose(b, 0.25, rtol=1e-14)

    def test_constant_total_partition_of_unity(self):
        mesh = rect_mesh(0, 0, 1, 1, 40, 40)
        b = assemble_quadrature_analytic(mesh, lambda x, y: np.ones_like(x), 3)
        assert b.sum() == pytest.approx(1.0, rel=1e-13)

    def test_linear_total(self):
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        b = assemble_quadrature_analytic(mesh, lambda x, y: x, 2)
        assert b.sum() == pytest.approx(0.5, rel=1e-13)

    def test_biquadratic_total(self):
        mesh = rect_mesh(0, 0, 1, 1, 4, 4)
        b = assemble_quadrature_analytic(mesh, lambda x, y: x ** 2 * y ** 2, 2)
        assert b.sum() == pytest.approx(1.0 / 9.0, rel=1e-13)

    def test_zero_field(self):
        mesh = rect_mesh(0, 0, 1, 1, 3, 3)
        b = assemble_quadrature_analytic(mesh, lambda x, y: 0.0 * x, 3)
        assert np.array_equal(b, np.zeros(mesh.n_nodes))

    def test_gauss1_equals_midpoint_rule(self):
        mesh = rect_mesh(0, 0, 1, 1, 7, 5)
        func = lambda x, y: np.sin(3 * x) * np.cos(2 * y) + x
        b = assemble_quadrature_analytic(mesh, func, 1)
        ref = midpoint_assembly(mesh, func)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(b - ref)) <= 1e-14 * scale

    def test_monotone_convergence_to_floor(self):
        mesh = rect_mesh(0, 0, 1, 1, 40, 40)
        k = 4.5 * np.pi
        exact = 1.0 / (20.25 * np.pi ** 2)
        func = lambda x, y: np.sin(k * x) * np.sin(k * y)
        errs = []
        for ng in range(1, 11):
            b = assemble_quadrature_analytic(mesh, func, ng)
            errs.append(abs(b.sum() - exact) / exact)
        assert errs[-1] < 1e-10
        above = [e for e in errs if e > 1e-13]
        assert all(a > b for a, b in zip(above, above[1:]))

    def test_conservation_identity(self):
        # sum of b equals the plain quadrature sum of f det J
        mesh = rect_mesh(0, 0, 1, 1, 9, 9)
        func = lambda x, y: x * y + np.cos(x)
        from fieldxfer.fem import tensor_product_rule
        rule = tensor_product_rule(3)
        N, _, _ = shape_functions(rule.points)
        det = jacobian_all(mesh, rule.points)
        coords = mesh.nodes[mesh.elements]
        pts = np.einsum("qj,ejd->eqd", N, coords)
        plain = np.sum(rule.weights[None, :] * func(pts[..., 0], pts[..., 1]) * det)
        b = assemble_quadrature_analytic(mesh, func, 3)
        assert b.sum() == pytest.approx(plain, rel=1e-14)


class TestInterpolatedAssembly:
    def test_matches_analytic_when_reconstruction_exact(self, rng):
        # bilinear field is reproduced exactly by its own interpolant
        grid = random_grid(rng, nx=9, ny=7)
        f = sample_field(grid, lambda x, y: 2 * x + 3 * y - x * y)
        mesh = rect_mesh(0.1, 0.1, 0.9, 0.9, 5, 4)
        interp = lagrange_interpolator(f, 1)
        b = assemble_quadrature(mesh, interp, 3)
        # piecewise-bilinear of a globally bilinear function equals it
        b_ref = assemble_quadrature_analytic(mesh, lambda x, y: 2 * x + 3 * y - x * y, 3)
        assert np.max(np.abs(b - b_ref)) < 1e-13 * np.max(np.abs(b_ref))

    def test_out_of_domain_context(self, rng):
        grid = StructuredGrid(np.linspace(0, 0.5, 6), np.linspace(0, 0.5, 6))
        f = random_field(rng, grid)
        mesh = rect_mesh(0, 0, 1, 1, 2, 2)
        with pytest.raises(DomainError, match="quadrature point"):
            assemble_quadrature(mesh, lagrange_interpolator(f, 1), 2)

    def test_plateau_bounded_by_error_estimate(self):
        # fine grid + coarse mesh: once the quadrature error drops below
        # the reconstruction error the total stops improving; the plateau
        # sits within a factor 100 of max(h_fd^4, h_fem^8). The estimate is
        # on the unit scale of f, so the comparison is absolute.
        k = 2.5 * np.pi
        grid = StructuredGrid(np.linspace(0, 1, 1601), np.linspace(0, 1, 1601))
        f = sample_field(grid, lambda x, y: np.sin(k * x) * np.sin(k * y))
        mesh = rect_mesh(0, 0, 1, 1, 40, 40)
        interp = lagrange_interpolator(f, 3)
        exact = 1.0 / (6.25 * np.pi ** 2)
        errs = {ng: abs(assemble_quadrature(mesh, interp, ng).sum() - exact)
                for ng in (3, 5, 8)}
        bound = max((1 / 1600) ** 4, (1 / 40) ** 8)
        assert errs[5] < 100 * bound
        assert errs[8] < 100 * bound
        # decreasing until the plateau takes over
        assert errs[3] > errs[5]

    def test_serial_bitwise_reproducible(self, rng):
        grid = random_grid(rng, nx=21, ny=17)
        f = random_field(rng, grid)
        mesh = rect_mesh(0.1, 0.1, 0.9, 0.9, 8, 8)
        interp = lagrange_interpolator(f, 1)
        a = assemble_quadrature(mesh, interp, 3)
        b = assemble_quadrature(mesh, interp, 3)
        assert np.array_equal(a, b)

    def test_rejects_bad_gauss_order(self, rng):
        grid = random_grid(rng, nx=5, ny=5)
        f = random_field(rng, grid)
        mesh = rect_mesh(0.2, 0.2, 0.8, 0.8, 2, 2)
        with pytest.raises(ValueError):
            assemble_quadrature(mesh, lagrange_interpolator(f, 1), 0)


class TestRhsFormat:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        b = rng.normal(size=37)
        path = tmp_path / "out.rhs"
        write_rhs(path, b)
        assert np.array_equal(read_rhs(path), b)
        text = path.read_text().splitlines()
        assert text[0] == "RHS 1"
        assert int(text[1]) == 37

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.rhs"
        path.write_text("LHS 1\n1\n0.5\n")
        from fieldxfer import FormatError
        with pytest.raises(FormatError):
            read_rhs(path)
