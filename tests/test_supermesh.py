import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from fieldxfer import (ConvergenceError, QuadMesh, ScalarField, StructuredGrid,
                       assemble_quadrature, assemble_supermesh, build_supermesh,
                       lagrange_interpolator, rect_mesh, sample_field, supermesh,
                       trapezoid_integral, triangle_rule)
from fieldxfer._kernels import REL_DEDUP_TOL, clip_and_seed, clip_boxes, fan_gauss
from conftest import random_convex_quad, random_field, random_grid, shoelace


def bruteforce_box_clip(poly, bounds):
    """Independent oracle: candidate vertices + convex hull.

    Collects polygon vertices inside the box, box corners inside the
    polygon, and all polygon-edge/box-edge intersections, then hulls them.
    Returns an (m, 2) CCW vertex array (possibly empty).
    """
    xlo, xhi, ylo, yhi = bounds
    poly = np.asarray(poly, dtype=float)
    eps = 1e-12 * max(xhi - xlo, yhi - ylo, 1.0)
    pts = []
    for px, py in poly:
        if xlo - eps <= px <= xhi + eps and ylo - eps <= py <= yhi + eps:
            pts.append((px, py))
    corners = [(xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi)]
    for cx, cy in corners:
        inside = True
        for k in range(len(poly)):
            ax, ay = poly[k]
            bx, by = poly[(k + 1) % len(poly)]
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < -eps:
                inside = False
                break
        if inside:
            pts.append((cx, cy))
    box_edges = [((xlo, ylo), (xhi, ylo)), ((xhi, ylo), (xhi, yhi)),
                 ((xhi, yhi), (xlo, yhi)), ((xlo, yhi), (xlo, ylo))]
    for k in range(len(poly)):
        p0, p1 = poly[k], poly[(k + 1) % len(poly)]
        for (q0, q1) in box_edges:
            d1 = p1 - p0
            d2 = np.asarray(q1) - np.asarray(q0)
            denom = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(denom) < 1e-300:
                continue
            r = np.asarray(q0) - p0
            t = (r[0] * d2[1] - r[1] * d2[0]) / denom
            u = (r[0] * d1[1] - r[1] * d1[0]) / denom
            if -eps <= t <= 1 + eps and -eps <= u <= 1 + eps:
                pts.append(tuple(p0 + t * d1))
    if len(pts) < 3:
        return np.zeros((0, 2))
    pts = np.array(pts)
    try:
        hull = ConvexHull(pts)
    except Exception:
        return np.zeros((0, 2))
    return pts[hull.vertices]


def match_vertex_sets(a, b, tol):
    """Vertex sets equal up to ordering and tolerance."""
    if len(a) != len(b):
        return False
    used = set()
    for pa in a:
        found = None
        for k, pb in enumerate(b):
            if k not in used and np.max(np.abs(pa - pb)) <= tol:
                found = k
                break
        if found is None:
            return False
        used.add(found)
    return True


def clip(polys, boxes):
    """Batched clip returning one (m, 2) vertex array per polygon (empty when
    dropped). The dedup tolerance scales with the diagonal of the region the
    boxes span, as build_supermesh scales it with the grid's."""
    boxes = np.asarray(boxes, dtype=float)
    diagonal = np.hypot(boxes[:, 1].max() - boxes[:, 0].min(),
                        boxes[:, 3].max() - boxes[:, 2].min())
    x, y, n, _ = clip_boxes(polys, boxes, REL_DEDUP_TOL * diagonal)
    return [np.column_stack([x[k, :n[k]], y[k, :n[k]]]) for k in range(len(n))]


def assert_matches_oracle(got, poly, bounds):
    want = bruteforce_box_clip(poly, bounds)
    a_got = shoelace(got) if len(got) else 0.0
    a_want = abs(shoelace(want)) if len(want) else 0.0
    assert a_got == pytest.approx(a_want, abs=1e-10)
    if len(got) and len(want):
        assert match_vertex_sets(got, want, 1e-9)
    return abs(a_got - a_want)


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestClipToCell:
    def test_square_half_overlap(self):
        out = clip([UNIT_SQUARE], [(0.5, 1.5, 0.5, 1.5)])[0]
        assert shoelace(out) == pytest.approx(0.25, rel=1e-14)

    def test_fully_inside_unchanged(self):
        square = np.array([[0.2, 0.2], [0.4, 0.2], [0.4, 0.4], [0.2, 0.4]])
        out = clip([square], [(0.0, 1.0, 0.0, 1.0)])[0]
        assert match_vertex_sets(out, square, 0.0)

    def test_diamond_corner(self):
        diamond = np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
        out = clip([diamond], [(0.0, 0.5, 0.0, 0.5)])[0]
        expect = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
        assert match_vertex_sets(out, expect, 1e-15)
        assert shoelace(out) == pytest.approx(0.125, rel=1e-14)

    def test_disjoint_is_empty(self):
        assert clip([UNIT_SQUARE], [(2.0, 3.0, 2.0, 3.0)])[0].shape == (0, 2)

    def test_edge_touch_is_empty(self):
        # zero-area contact is dropped by the area threshold
        assert clip([UNIT_SQUARE], [(1.0, 2.0, 0.0, 1.0)])[0].shape == (0, 2)

    def test_result_is_ccw_convex(self, rng):
        polys = [random_convex_quad(rng) for _ in range(50)]
        boxes = [(rng.uniform(-0.2, 0.4), rng.uniform(0.6, 1.2),
                  rng.uniform(-0.2, 0.4), rng.uniform(0.6, 1.2)) for _ in polys]
        for out in clip(polys, boxes):
            if len(out) == 0:
                continue
            assert shoelace(out) > 0
            v = np.roll(out, -1, axis=0) - out
            w = np.roll(v, -1, axis=0)
            cross = v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0]
            assert np.all(cross >= -1e-12)

    def test_matches_bruteforce_oracle(self, rng):
        polys, boxes = [], []
        while len(polys) < 1000:
            poly = random_convex_quad(rng)
            x = np.sort(rng.uniform(-0.3, 1.3, 2))
            y = np.sort(rng.uniform(-0.3, 1.3, 2))
            if x[1] - x[0] < 1e-3 or y[1] - y[0] < 1e-3:
                continue
            polys.append(poly)
            boxes.append((x[0], x[1], y[0], y[1]))
        # a polygon exactly on the cell boundaries of a 2x2 patch: only cell
        # (0, 0) survives the area cut, the others touch it along an edge or
        # at a corner
        on_lines = 0.5 * UNIT_SQUARE
        polys += [on_lines] * 4
        boxes += [(0.0, 0.5, 0.0, 0.5), (0.5, 1.0, 0.0, 0.5),
                  (0.0, 0.5, 0.5, 1.0), (0.5, 1.0, 0.5, 1.0)]
        # a corner poking 1e-9 into a cell leaves a sliver below the area cut
        polys.append(UNIT_SQUARE)
        boxes.append((1.0 - 1e-9, 2.0, 1.0 - 1e-9, 2.0))
        got = clip(polys, boxes)
        mismatch_area = max(assert_matches_oracle(g, p, b)
                            for g, p, b in zip(got, polys, boxes))
        assert mismatch_area < 1e-10
        assert [len(g) for g in got[-5:]] == [4, 0, 0, 0, 0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_grid_aligned_quads_match_oracle(self, data):
        # integer grid lines; each quad vertex coordinate is a grid line or a
        # point of a quarter-unit lattice reaching two units past the grid,
        # so vertices land on grid nodes, edges run along grid lines and
        # quads stick out of the grid
        steps = st.lists(st.integers(1, 3), min_size=1, max_size=4)
        xs = np.cumsum([0] + data.draw(steps)).astype(float)
        ys = np.cumsum([0] + data.draw(steps)).astype(float)
        grid = StructuredGrid(xs, ys)

        def coord(lines):
            lattice = st.integers(-8, 4 * int(lines[-1]) + 8).map(lambda k: 0.25 * k)
            return st.one_of(st.sampled_from(lines.tolist()), lattice)

        pts = np.array(data.draw(st.lists(st.tuples(coord(xs), coord(ys)),
                                          min_size=4, max_size=4, unique=True)))
        center = pts.mean(axis=0)
        quad = pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]))]
        v = np.roll(quad, -1, axis=0) - quad
        w = np.roll(v, -1, axis=0)
        assume(np.all(v[:, 0] * w[:, 1] - v[:, 1] * w[:, 0] > 0.05))

        mesh = QuadMesh(quad, [[0, 1, 2, 3]])
        cells = clip_and_seed(mesh, grid, triangle_rule())
        poly_cell, offsets, verts = cells[1], cells[2], cells[3]
        got = {(int(i), int(j)): verts[offsets[k]:offsets[k + 1]]
               for k, (i, j) in enumerate(poly_cell)}
        for j in range(grid.ny - 1):
            for i in range(grid.nx - 1):
                box = (grid.xs[i], grid.xs[i + 1], grid.ys[j], grid.ys[j + 1])
                assert_matches_oracle(got.get((i, j), np.zeros((0, 2))), quad, box)


class TestFanGauss:
    def test_weights_sum_to_shoelace_area(self, rng):
        # convex polygons with 3 to 8 vertices, zero-padded to one width
        x = np.zeros((12, 8))
        y = np.zeros((12, 8))
        n = np.tile(np.arange(3, 9), 2)
        for k, m in enumerate(n):
            angles = np.sort(rng.uniform(0.0, 2 * np.pi, m))
            radius = rng.uniform(0.5, 2.0)
            x[k, :m] = rng.uniform(-1, 1) + radius * np.cos(angles)
            y[k, :m] = rng.uniform(-1, 1) + radius * np.sin(angles)
        boxes = np.column_stack([x.min(axis=1) - 3, x.max(axis=1) + 3,
                                 y.min(axis=1) - 3, y.max(axis=1) + 3])
        gauss_xy, gauss_w = fan_gauss(x, y, n, boxes, triangle_rule())
        assert gauss_xy.shape == (6 * n.sum(), 2)
        sums = np.add.reduceat(gauss_w, np.concatenate([[0], np.cumsum(6 * n)[:-1]]))
        for k, m in enumerate(n):
            area = shoelace(np.column_stack([x[k, :m], y[k, :m]]))
            assert sums[k] == pytest.approx(area, rel=1e-13)


def fan_triangle_areas(poly):
    """Areas of the fan triangles ``fan_gauss`` lays on one polygon."""
    poly = np.asarray(poly, dtype=float)
    box = np.array([[poly[:, 0].min(), poly[:, 0].max(),
                     poly[:, 1].min(), poly[:, 1].max()]])
    rule = triangle_rule()
    _, gauss_w = fan_gauss(poly[None, :, 0], poly[None, :, 1],
                           np.array([len(poly)]), box, rule)
    return gauss_w.reshape(-1, len(rule.weights)).sum(axis=1)


class TestTessellate:
    def test_quad_fan(self):
        quad = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        areas = fan_triangle_areas(quad)
        assert areas.shape == (4,)
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(2.0, rel=1e-13)

    def test_triangle_fan(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        areas = fan_triangle_areas(tri)
        assert areas.shape == (3,)
        assert areas.sum() == pytest.approx(0.5, rel=1e-13)

    def test_hexagon_area(self):
        angles = np.linspace(0, 2 * np.pi, 7)[:-1]
        hexa = np.column_stack([np.cos(angles), np.sin(angles)])
        areas = fan_triangle_areas(hexa)
        assert len(areas) == 6
        assert areas.sum() == pytest.approx(3 * np.sqrt(3) / 2, rel=1e-12)


# the clip divides only on edges that cross the clip line
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBuildSupermesh:
    def test_single_element_on_2x2_patch(self):
        grid = StructuredGrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        cache = build_supermesh(mesh, grid)
        assert cache.n_polygons == 4
        assert np.allclose(np.sort(cache.poly_areas), 0.25)

    def test_element_covering_one_cell(self):
        grid = StructuredGrid([0.0, 1.0], [0.0, 1.0])
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        cache = build_supermesh(mesh, grid)
        assert cache.n_polygons == 1
        assert cache.poly_areas[0] == pytest.approx(1.0, rel=1e-14)

    def test_conforming_mesh_closure(self):
        # mesh nodes land exactly on grid lines
        grid = StructuredGrid(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
        mesh = rect_mesh(0, 0, 1, 1, 10, 10)
        cache = build_supermesh(mesh, grid)
        covered = cache.covered_areas()
        areas = mesh.element_areas()
        assert np.max(np.abs(covered - areas) / areas) < 1e-12

    def test_closure_randomized(self, rng):
        # includes node-on-gridline degeneracies through conforming grids
        for case in range(60):
            nx_e, ny_e = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            x0, y0 = rng.uniform(-1, 0, 2)
            x1, y1 = rng.uniform(0.5, 2, 2)
            mesh = rect_mesh(x0, y0, x1, y1, nx_e, ny_e)
            if case % 3 == 0:
                grid = StructuredGrid(np.linspace(x0, x1, 2 * nx_e + 1),
                                      np.linspace(y0, y1, ny_e + 1))
            else:
                grid = random_grid(rng, nx=rng.integers(3, 12),
                                   ny=rng.integers(3, 12),
                                   lo=(x0, y0), hi=(x1, y1))
            cache = build_supermesh(mesh, grid)
            covered = cache.covered_areas()
            areas = mesh.element_areas()
            assert np.max(np.abs(covered - areas) / areas) < 1e-12

    def test_outside_elements_warn_and_skip(self):
        grid = StructuredGrid([0.0, 1.0], [0.0, 1.0])
        mesh = rect_mesh(0, 0, 3, 1, 3, 1)  # two elements outside the grid
        with pytest.warns(UserWarning, match="outside"):
            cache = build_supermesh(mesh, grid)
        covered = cache.covered_areas()
        assert covered[0] == pytest.approx(1.0, rel=1e-12)
        assert covered[1] == covered[2] == 0.0
        # no element overlaps the grid: an empty cache and a zero vector
        mesh = rect_mesh(5, 5, 6, 6, 2, 2)
        with pytest.warns(UserWarning, match="4 element"):
            cache = build_supermesh(mesh, grid)
        assert cache.n_polygons == cache.n_gauss == 0
        b = assemble_supermesh(cache, sample_field(grid, lambda x, y: x + y))
        assert b.dtype == np.float64
        assert np.array_equal(b, np.zeros(mesh.n_nodes))

    def test_newton_failure_names_element(self, monkeypatch):
        grid = StructuredGrid([0.0, 0.5, 1.0], [0.0, 1.0])
        mesh = rect_mesh(0, 0, 1, 1, 2, 1)

        def fail(corner_x, corner_y, points):
            raise ConvergenceError("no convergence", point_index=len(points) - 1,
                                   residual=1.0)

        monkeypatch.setattr(supermesh, "newton_inverse_batch", fail)
        with pytest.raises(ConvergenceError, match="element 1 at point") as info:
            build_supermesh(mesh, grid)
        assert info.value.point_index == 2 * 4 * 6 - 1

    def test_dump_polygons(self, tmp_path):
        grid = StructuredGrid([0.0, 0.5, 1.0], [0.0, 1.0])
        mesh = rect_mesh(0, 0, 1, 1, 1, 1)
        cache = build_supermesh(mesh, grid)
        path = tmp_path / "soup.txt"
        cache.dump_polygons(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == cache.n_polygons
        first = lines[0].split()
        e, i, j = int(first[0]), int(first[1]), int(first[2])
        coords = np.array(list(map(float, first[3:]))).reshape(-1, 2)
        assert shoelace(coords) > 0


def bilinear_cell_integral(field):
    """Exact integral of the piecewise-bilinear interpolant: per cell,
    area times the mean of the four corner samples."""
    g = field.grid
    dx = np.diff(g.xs)
    dy = np.diff(g.ys)
    v = field.values
    corner_mean = 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    return float(np.sum(corner_mean * np.outer(dy, dx)))


class TestAssembleSupermesh:
    def test_constant_field_gives_mesh_area(self, rng):
        grid = random_grid(rng, nx=14, ny=11)
        f = sample_field(grid, lambda x, y: np.ones_like(x))
        mesh = rect_mesh(0.05, 0.1, 0.95, 0.9, 7, 6)
        cache = build_supermesh(mesh, grid)
        b = assemble_supermesh(cache, f)
        area = mesh.element_areas().sum()
        assert b.sum() == pytest.approx(area, rel=1e-12)

    def test_bilinear_conserves_trapezoid(self, rng):
        for _ in range(10):
            grid = random_grid(rng, nx=13, ny=9)
            f = random_field(rng, grid)
            mesh = rect_mesh(0, 0, 1, 1, int(rng.integers(3, 9)),
                             int(rng.integers(3, 9)))
            cache = build_supermesh(mesh, grid)
            total = assemble_supermesh(cache, f, "bilinear").sum()
            i_trap = trapezoid_integral(f)
            i_cells = bilinear_cell_integral(f)
            # trapezoid sum and per-cell bilinear integral agree by algebra
            assert i_cells == pytest.approx(i_trap, rel=1e-13, abs=1e-15)
            assert total == pytest.approx(i_trap, rel=1e-12, abs=1e-13)

    def test_sine_201_grid_conserves_discrete_not_analytic(self):
        grid = StructuredGrid(np.linspace(0, 1, 201), np.linspace(0, 1, 201))
        f = sample_field(grid, lambda x, y: np.sin(2.5 * np.pi * x) * np.sin(2.5 * np.pi * y))
        mesh = rect_mesh(0, 0, 1, 1, 40, 40)
        cache = build_supermesh(mesh, grid)
        total = assemble_supermesh(cache, f, "bilinear").sum()
        i_trap = trapezoid_integral(f)
        assert abs(total - i_trap) / abs(i_trap) < 1e-12
        analytic = 1.0 / (6.25 * np.pi ** 2)
        # conservation targets the discrete field, not the analytic value
        assert abs(i_trap - analytic) > 1e-7

    def test_nodewise_match_against_quadrature_when_conforming(self, rng):
        # one element per grid cell: the bilinear reconstruction is smooth
        # inside every element, so 2x2 Gauss assembly is exact too and the
        # two routes must agree node by node
        grid = StructuredGrid(np.linspace(0, 1, 7), np.linspace(0, 1, 6))
        f = random_field(rng, grid)
        mesh = rect_mesh(0, 0, 1, 1, 6, 5)
        cache = build_supermesh(mesh, grid)
        b_sm = assemble_supermesh(cache, f, "bilinear")
        b_quad = assemble_quadrature(mesh, lagrange_interpolator(f, 1), 2)
        scale = np.max(np.abs(b_quad))
        assert np.max(np.abs(b_sm - b_quad)) < 1e-13 * scale

    def test_bspline_reconstruction_runs(self, rng):
        grid = StructuredGrid(np.linspace(0, 1, 21), np.linspace(0, 1, 21))
        f = sample_field(grid, lambda x, y: np.sin(2.5 * np.pi * x) * np.sin(2.5 * np.pi * y))
        mesh = rect_mesh(0, 0, 1, 1, 5, 5)
        cache = build_supermesh(mesh, grid)
        total = assemble_supermesh(cache, f, "bspline:3").sum()
        # close to the analytic integral (reconstruction error only)
        assert total == pytest.approx(1.0 / (6.25 * np.pi ** 2), rel=1e-3)

    def test_prebuilt_interpolator_accepted(self, rng):
        grid = random_grid(rng, nx=8, ny=8)
        f = random_field(rng, grid)
        mesh = rect_mesh(0.1, 0.1, 0.9, 0.9, 3, 3)
        cache = build_supermesh(mesh, grid)
        interp = lagrange_interpolator(f, 1)
        a = assemble_supermesh(cache, f, interp)
        b = assemble_supermesh(cache, f, "bilinear")
        assert np.array_equal(a, b)

    def test_rejects_foreign_grid(self, rng):
        grid = StructuredGrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5))
        other = StructuredGrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6))
        f = random_field(rng, other)
        mesh = rect_mesh(0, 0, 1, 1, 2, 2)
        cache = build_supermesh(mesh, grid)
        with pytest.raises(ValueError, match="grid"):
            assemble_supermesh(cache, f)

    def test_per_element_triangle_areas_close(self, rng):
        grid = random_grid(rng, nx=9, ny=9)
        mesh = rect_mesh(0.1, 0.1, 0.9, 0.9, 4, 4)
        cache = build_supermesh(mesh, grid)
        # per element, cached gauss weights sum to the element area
        # (weights are |T| * w_q with rule weights summing to one)
        for e in range(mesh.n_elements):
            lo = cache.element_gauss_offsets[e]
            hi = cache.element_gauss_offsets[e + 1]
            w_sum = cache.gauss_w[lo:hi].sum()
            area = mesh.element_areas()[e]
            assert w_sum == pytest.approx(area, rel=1e-12)


def series_like_pair(rng, n_e=12, n_g=31):
    """Jittered n_e x n_e mesh and non-uniform n_g x n_g grid on the unit square."""
    base = rect_mesh(0, 0, 1, 1, n_e, n_e)
    nodes = base.nodes.copy().reshape(n_e + 1, n_e + 1, 2)
    nodes[1:-1, 1:-1] += rng.uniform(-0.3, 0.3, nodes[1:-1, 1:-1].shape) / n_e
    return QuadMesh(nodes.reshape(-1, 2), base.elements), random_grid(rng, n_g, n_g)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPlacementAndScale:
    """Setup measures areas and inverse-map thresholds in element units, so
    moving or scaling a pair keeps its polygons and its conservation."""

    @pytest.mark.parametrize("shift, scale", [(1e4, 1.0), (0.0, 1e-7), (0.0, 1e6)],
                             ids=["shift-1e4", "scale-1e-7", "scale-1e6"])
    def test_moved_pair_keeps_polygons_and_conserves(self, rng, shift, scale):
        mesh, grid = series_like_pair(rng)
        values = sample_field(grid, lambda x, y: np.sin(2.5 * np.pi * x)
                              * np.cos(1.5 * np.pi * y) + 0.3 * x).values
        n_polygons = build_supermesh(mesh, grid).n_polygons
        moved_mesh = QuadMesh(mesh.nodes * scale + shift, mesh.elements)
        moved_grid = StructuredGrid(grid.xs * scale + shift, grid.ys * scale + shift)
        cache = build_supermesh(moved_mesh, moved_grid)
        assert cache.n_polygons == n_polygons
        field = ScalarField(moved_grid, values)
        total = assemble_supermesh(cache, field, "bilinear").sum()
        i_trap = trapezoid_integral(field)
        assert abs(total - i_trap) <= 1e-12 * abs(i_trap)
