import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from fieldxfer import (DomainError, StructuredGrid, bspline_interpolator,
                       lagrange_interpolator, make_interpolator, sample_field)
from conftest import random_field, random_grid


def tensor_poly(rng, p):
    """Random tensor-product polynomial of per-axis degree <= p."""
    coeff = rng.normal(size=(p + 1, p + 1))

    def f(x, y):
        return sum(coeff[a, b] * x ** a * y ** b
                   for a in range(p + 1) for b in range(p + 1))

    return f


class TestBspline:
    def test_degree1_equals_bilinear(self, rng):
        g = random_grid(rng, nx=9, ny=7)
        f = random_field(rng, g)
        interp = bspline_interpolator(f, 1)
        pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 100),
                               rng.uniform(g.ys[0], g.ys[-1], 100)])
        ref = RegularGridInterpolator((g.ys, g.xs), f.values)(pts[:, ::-1])
        assert np.max(np.abs(interp.evaluate(pts) - ref)) < 1e-14

    def test_cubic_reproduces_cubic(self, rng):
        g = StructuredGrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
        f = sample_field(g, lambda x, y: x ** 3 * y)
        interp = bspline_interpolator(f, 3)
        pts = rng.uniform(0.02, 0.98, (50, 2))
        exact = pts[:, 0] ** 3 * pts[:, 1]
        assert np.max(np.abs(interp.evaluate(pts) - exact)) <= 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_node_reproduction(self, rng, p):
        g = random_grid(rng, nx=11, ny=9)
        f = random_field(rng, g)
        interp = bspline_interpolator(f, p)
        X, Y = np.meshgrid(g.xs, g.ys, indexing="xy")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        got = interp.evaluate(nodes).reshape(g.ny, g.nx)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(got - f.values)) <= 1e-12 * scale

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_polynomial_exactness(self, rng, p):
        g = random_grid(rng, nx=max(p + 2, 8), ny=max(p + 2, 7))
        poly = tensor_poly(rng, p)
        f = sample_field(g, poly)
        interp = bspline_interpolator(f, p)
        pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 60),
                               rng.uniform(g.ys[0], g.ys[-1], 60)])
        assert np.max(np.abs(interp.evaluate(pts) - poly(pts[:, 0], pts[:, 1]))) <= 1e-11

    def test_grid_too_small(self):
        g = StructuredGrid(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        f = sample_field(g, lambda x, y: x)
        with pytest.raises(ValueError, match="too small"):
            bspline_interpolator(f, 3)

    def test_degree_out_of_range(self, rng):
        f = random_field(np.random.default_rng(0), random_grid(rng, nx=9, ny=9))
        with pytest.raises(ValueError):
            bspline_interpolator(f, 6)


class TestLagrange:
    def test_cell_center_bilinear(self):
        g = StructuredGrid([0.0, 1.0], [0.0, 1.0])
        f = sample_field(g, lambda x, y: x + y)  # f00=0 f10=1 f01=1 f11=2
        interp = lagrange_interpolator(f, 1)
        assert interp.evaluate([[0.5, 0.5]])[0] == pytest.approx(1.0, abs=1e-15)

    def test_cubic_reproduces_cubic(self, rng):
        g = StructuredGrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8))
        f = sample_field(g, lambda x, y: x ** 3 + y ** 3)
        interp = lagrange_interpolator(f, 3)
        pts = rng.uniform(0.0, 1.0, (50, 2))
        exact = pts[:, 0] ** 3 + pts[:, 1] ** 3
        assert np.max(np.abs(interp.evaluate(pts) - exact)) <= 1e-12

    def test_node_cardinality_exact(self, rng):
        g = random_grid(rng, nx=9, ny=6)
        f = random_field(rng, g)
        for p in (1, 3):
            interp = lagrange_interpolator(f, p)
            X, Y = np.meshgrid(g.xs, g.ys, indexing="xy")
            nodes = np.column_stack([X.ravel(), Y.ravel()])
            got = interp.evaluate(nodes).reshape(g.ny, g.nx)
            assert np.array_equal(got, f.values)

    def test_degree1_identity_with_bilinear(self, rng):
        for _ in range(10):
            g = random_grid(rng)
            f = random_field(rng, g)
            interp = lagrange_interpolator(f, 1)
            pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 50),
                                   rng.uniform(g.ys[0], g.ys[-1], 50)])
            ref = bspline_interpolator(f, 1).evaluate(pts)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(interp.evaluate(pts) - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("p", [1, 3])
    def test_polynomial_exactness(self, rng, p):
        g = random_grid(rng, nx=9, ny=8)
        poly = tensor_poly(rng, p)
        f = sample_field(g, poly)
        interp = lagrange_interpolator(f, p)
        pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 60),
                               rng.uniform(g.ys[0], g.ys[-1], 60)])
        assert np.max(np.abs(interp.evaluate(pts) - poly(pts[:, 0], pts[:, 1]))) <= 1e-11

    def test_rejects_unsupported_degree(self, rng):
        f = random_field(rng, random_grid(rng, nx=9, ny=9))
        with pytest.raises(ValueError):
            lagrange_interpolator(f, 2)


class TestEvaluate:
    def test_constant_partition_of_unity(self, rng):
        g = random_grid(rng, nx=10, ny=10)
        f = sample_field(g, lambda x, y: np.full_like(x, 3.7))
        pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 200),
                               rng.uniform(g.ys[0], g.ys[-1], 200)])
        for spec in ("bilinear", "bspline:3", "bspline:4", "lagrange:3"):
            vals = make_interpolator(f, spec).evaluate(pts)
            assert np.max(np.abs(vals - 3.7)) < 1e-14 * 3.7

    def test_sine_midpoint_value(self):
        g = StructuredGrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
        f = sample_field(g, lambda x, y: np.sin(2.5 * np.pi * x) * np.sin(2.5 * np.pi * y))
        interp = bspline_interpolator(f, 3)
        got = interp.evaluate([[0.5, 0.5]])[0]
        assert got == pytest.approx(0.5, abs=4e-4)

    def test_empty_batch(self, rng):
        f = random_field(rng, random_grid(rng, nx=5, ny=5))
        assert make_interpolator(f, "bilinear").evaluate(np.zeros((0, 2))).size == 0

    def test_boundary_points_valid(self, rng):
        g = random_grid(rng, nx=8, ny=8)
        f = random_field(rng, g)
        corners = np.array([[g.xs[0], g.ys[0]], [g.xs[-1], g.ys[-1]],
                            [g.xs[0], g.ys[-1]], [g.xs[-1], g.ys[0]]])
        for spec in ("bilinear", "bspline:3", "lagrange:3"):
            vals = make_interpolator(f, spec).evaluate(corners)
            assert np.all(np.isfinite(vals))

    def test_out_of_domain_names_point(self, rng):
        f = random_field(rng, random_grid(rng, nx=5, ny=5))
        interp = make_interpolator(f, "bilinear")
        with pytest.raises(DomainError, match="point 1"):
            interp.evaluate([[0.5, 0.5], [1.5, 0.5]])

    def test_deterministic(self, rng):
        g = random_grid(rng, nx=12, ny=9)
        f = random_field(rng, g)
        pts = np.column_stack([rng.uniform(g.xs[0], g.xs[-1], 300),
                               rng.uniform(g.ys[0], g.ys[-1], 300)])
        for spec in ("bspline:3", "lagrange:3"):
            interp = make_interpolator(f, spec)
            assert np.array_equal(interp.evaluate(pts), interp.evaluate(pts))

    def test_make_interpolator_rejects_garbage(self, rng):
        f = random_field(rng, random_grid(rng, nx=5, ny=5))
        for bad in ("cubic", "bspline", "lagrange:x", "bilinear:2"):
            with pytest.raises(ValueError):
                make_interpolator(f, bad)
