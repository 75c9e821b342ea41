import numpy as np
import pytest

from fieldxfer import (FormatError, ScalarField, StructuredGrid, read_fdf,
                       sample_field, trapezoid_integral, trapezoid_weights,
                       write_fdf)
from conftest import random_field, random_grid


def nine_case_weights(grid):
    """Independent corner/edge/interior reference implementation."""
    dx = np.diff(grid.xs)
    dy = np.diff(grid.ys)
    nx, ny = grid.nx, grid.ny
    w = np.zeros((ny, nx))
    for j in range(ny):
        for i in range(nx):
            if i == 0:
                wx = 0.5 * dx[0]
            elif i == nx - 1:
                wx = 0.5 * dx[-1]
            else:
                wx = 0.5 * (dx[i - 1] + dx[i])
            if j == 0:
                wy = 0.5 * dy[0]
            elif j == ny - 1:
                wy = 0.5 * dy[-1]
            else:
                wy = 0.5 * (dy[j - 1] + dy[j])
            w[j, i] = wx * wy
    return w


class TestTrapezoidWeights:
    def test_uniform_3x3(self):
        g = StructuredGrid(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        w = trapezoid_weights(g)
        assert w[0, 0] == pytest.approx(0.0625, abs=0)
        assert w[0, 1] == pytest.approx(0.125, abs=0)
        assert w[1, 1] == pytest.approx(0.25, abs=0)

    def test_2x2_all_corners(self):
        g = StructuredGrid([0.0, 1.0], [0.0, 1.0])
        assert np.array_equal(trapezoid_weights(g), np.full((2, 2), 0.25))

    def test_nonuniform_edge_case(self):
        g = StructuredGrid([0.0, 0.25, 1.0], [0.0, 1.0])
        w = trapezoid_weights(g)
        # bottom-edge interior node: half the spacing average times half dy
        assert w[0, 1] == pytest.approx(0.25, rel=1e-15)

    def test_matches_nine_case_table(self, rng):
        for _ in range(25):
            g = random_grid(rng)
            assert np.array_equal(trapezoid_weights(g), nine_case_weights(g))

    def test_weight_sum_is_area(self, rng):
        for _ in range(120):
            g = random_grid(rng, lo=(rng.uniform(-5, 0), rng.uniform(-5, 0)),
                            hi=(rng.uniform(1, 6), rng.uniform(1, 6)))
            area = (g.xs[-1] - g.xs[0]) * (g.ys[-1] - g.ys[0])
            w = trapezoid_weights(g)
            assert np.all(w > 0)
            assert abs(w.sum() - area) <= 1e-14 * area


class TestTrapezoidIntegral:
    def test_constant_is_exact(self, rng):
        g = random_grid(rng)
        f = sample_field(g, lambda x, y: np.ones_like(x))
        assert trapezoid_integral(f) == pytest.approx(1.0, rel=1e-14)

    def test_sine_product_641(self):
        g = StructuredGrid(np.linspace(0, 1, 641), np.linspace(0, 1, 641))
        f = sample_field(g, lambda x, y: np.sin(2.5 * np.pi * x) * np.sin(2.5 * np.pi * y))
        exact = 1.0 / (6.25 * np.pi ** 2)
        assert trapezoid_integral(f) == pytest.approx(exact, abs=2e-6)

    def test_bilinear_integrand_exact(self):
        g = StructuredGrid(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        f = sample_field(g, lambda x, y: x * y)
        assert trapezoid_integral(f) == pytest.approx(0.25, rel=1e-15)

    def test_second_order_convergence(self):
        exact = 1.0 / (6.25 * np.pi ** 2)
        hs = [1 / 20, 1 / 40, 1 / 80, 1 / 160]
        errs = []
        for h in hs:
            n = round(1 / h) + 1
            g = StructuredGrid(np.linspace(0, 1, n), np.linspace(0, 1, n))
            f = sample_field(g, lambda x, y: np.sin(2.5 * np.pi * x) * np.sin(2.5 * np.pi * y))
            errs.append(abs(trapezoid_integral(f) - exact))
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


class TestCandidateCells:
    def test_interior_box(self):
        g = StructuredGrid(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        assert g.candidate_cells((0.32, 0.32, 0.41, 0.41)) == (3, 4, 3, 4)

    def test_full_extent(self):
        g = StructuredGrid(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        assert g.candidate_cells((0, 0, 1, 1)) == (0, 9, 0, 9)

    def test_disjoint(self):
        g = StructuredGrid(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        i_lo, i_hi, j_lo, j_hi = g.candidate_cells((2, 2, 3, 3))
        assert i_lo > i_hi

    def test_invalid_bbox(self):
        g = StructuredGrid(np.linspace(0, 1, 3), np.linspace(0, 1, 3))
        with pytest.raises(ValueError):
            g.candidate_cells((1, 0, 0, 1))

    def test_matches_bruteforce(self, rng):
        for _ in range(25):
            g = random_grid(rng)
            for _ in range(40):
                x = np.sort(rng.uniform(-0.3, 1.3, 2))
                y = np.sort(rng.uniform(-0.3, 1.3, 2))
                i_lo, i_hi, j_lo, j_hi = g.candidate_cells((x[0], y[0], x[1], y[1]))
                got = {(i, j) for i in range(i_lo, i_hi + 1)
                       for j in range(j_lo, j_hi + 1)}
                want = set()
                for i in range(g.nx - 1):
                    for j in range(g.ny - 1):
                        if (g.xs[i] <= x[1] and g.xs[i + 1] >= x[0]
                                and g.ys[j] <= y[1] and g.ys[j + 1] >= y[0]):
                            want.add((i, j))
                assert got == want

    def test_touching_cells_included(self):
        # box sharing only an edge with the grid still returns that cell row
        g = StructuredGrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        i_lo, i_hi, j_lo, j_hi = g.candidate_cells((1.0, 0.0, 2.0, 1.0))
        assert (i_lo, i_hi) == (3, 3)


class TestValidation:
    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            StructuredGrid([0.0, 0.5, 0.5], [0.0, 1.0])

    def test_rejects_single_point_axis(self):
        with pytest.raises(ValueError):
            StructuredGrid([0.0], [0.0, 1.0])

    def test_rejects_shape_mismatch(self):
        g = StructuredGrid([0.0, 1.0], [0.0, 0.5, 1.0])
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        g = StructuredGrid([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            ScalarField(g, [[0.0, np.nan], [0.0, 0.0]])


class TestFdfFormat:
    def test_roundtrip_bit_exact(self, rng, tmp_path):
        g = random_grid(rng, nx=7, ny=5)
        f = random_field(rng, g)
        path = tmp_path / "field.fdf"
        write_fdf(path, f)
        back = read_fdf(path)
        assert np.array_equal(back.grid.xs, g.xs)
        assert np.array_equal(back.grid.ys, g.ys)
        assert np.array_equal(back.values, f.values)

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.fdf"
        path.write_text("FDF 1\n3 2\n0 0.5 1\n0 1\n0 0\n0 0 0\n")
        with pytest.raises(FormatError):
            read_fdf(path)
