import math

import numpy as np
import pytest

from fieldxfer import rect_mesh, tensor_product_rule
from fieldxfer.harness import (StudyConfig, StudyResult, emit_table1,
                               fit_loglog_slope, run_href_study,
                               run_interp_convergence, run_quadrature_sweep,
                               run_weak_scaling, sine_product,
                               sine_product_integral, surrogate_field)
from test_assemble import midpoint_assembly


class TestStudyResult:
    def test_rejects_non_finite_rows(self):
        r = StudyResult("x")
        with pytest.raises(ValueError):
            r.add(1.0, "m", float("nan"))
        with pytest.raises(ValueError):
            r.add(1.0, "m", -1e-3)

    def test_csv_roundtrip(self, tmp_path):
        r = StudyResult("x")
        r.add(0.1, "a", 1e-3, 0.25, 42.0)
        r.add(0.2, "b", 2e-3, 0.5, 43.0)
        path = tmp_path / "r.csv"
        r.write_csv(path)
        back = StudyResult.read_csv(path)
        assert [(row.sweep, row.method, row.error, row.time_s, row.integral)
                for row in back.rows] == \
               [(row.sweep, row.method, row.error, row.time_s, row.integral)
                for row in r.rows]

    def test_dat_blocks_per_method(self, tmp_path):
        r = StudyResult("x", meta={"threads": 2})
        r.add(0.1, "a", 1e-3)
        r.add(0.1, "b", 2e-3)
        path = tmp_path / "r.dat"
        r.write_dat(path)
        text = path.read_text()
        assert "# index 0: a" in text and "# index 1: b" in text
        assert "# threads: 2" in text


class TestConfigValidation:
    def test_empty_sweep(self):
        with pytest.raises(ValueError, match="non-empty"):
            StudyConfig(sweep=()).validate_sweep()

    def test_negative_sweep(self):
        with pytest.raises(ValueError, match="positive"):
            StudyConfig(sweep=(1.0, -2.0)).validate_sweep()

    def test_too_few_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            StudyConfig(sweep=(1,), repetitions=2).validate_timing()

    def test_unknown_surrogate(self):
        with pytest.raises(ValueError):
            surrogate_field("spiky")


class TestSlopeFit:
    def test_exact_power_law(self):
        h = np.array([0.1, 0.05, 0.025])
        assert fit_loglog_slope(h, 3.0 * h ** 2) == pytest.approx(2.0, abs=1e-12)

    def test_floor_region_excluded(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        e = 3.0 * h ** 2
        e[-1] = 1e-15  # below the floor: must not drag the fit
        assert fit_loglog_slope(h, e) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1, 0.05], [1e-15, 1e-16])


class TestInterpConvergence:
    def test_linear_order_slope(self):
        cfg = StudyConfig(sweep=(1 / 41, 1 / 81, 1 / 163), orders=(1, 3))
        res = run_interp_convergence(cfg)
        h, err, _, _ = res.series("bspline:1")
        assert fit_loglog_slope(h, err) == pytest.approx(2.0, abs=0.4)
        h, err, _, _ = res.series("bspline:3")
        assert fit_loglog_slope(h, err) == pytest.approx(4.0, abs=0.4)

    def test_grid_too_coarse_raises(self):
        cfg = StudyConfig(sweep=(0.5,), orders=(5,))
        with pytest.raises(ValueError, match="order"):
            run_interp_convergence(cfg)


class TestQuadratureSweep:
    def test_analytic_mode_reaches_floor(self):
        cfg = StudyConfig(analytic_k=4.5 * math.pi, sweep=(1, 4, 10),
                          reconstruction=None, repetitions=3)
        res = run_quadrature_sweep(cfg)
        _, err, _, _ = res.series("quad/analytic")
        assert err[0] > err[1] > err[2]
        assert err[2] < 1e-10

    def test_gauss1_matches_midpoint_oracle(self):
        k = 4.5 * math.pi
        cfg = StudyConfig(analytic_k=k, sweep=(1,), reconstruction=None,
                          repetitions=3, mesh_elems=(13, 11))
        res = run_quadrature_sweep(cfg)
        mesh = rect_mesh(0, 0, 1, 1, 13, 11)
        ref = midpoint_assembly(mesh, sine_product(k)).sum()
        got = res.rows[0].integral
        assert got == pytest.approx(ref, rel=1e-14)

    def test_interpolated_mode_plateaus(self):
        cfg = StudyConfig(analytic_k=4.5 * math.pi, grid_points=(401, 401),
                          reconstruction="lagrange:3", sweep=(2, 5, 8),
                          repetitions=3)
        res = run_quadrature_sweep(cfg)
        _, err, _, _ = res.series("quad/lagrange:3")
        assert err[1] < err[0]              # still improving at low order
        assert err[2] < 100 * err[1]        # plateau: no runaway, no gain
        assert err[2] > 1e-13               # pinned above the machine floor

    def test_data_mode_uses_trapezoid_reference(self, tmp_path, rng):
        from fieldxfer import StructuredGrid, sample_field, trapezoid_integral, write_fdf
        g = StructuredGrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
        fld = sample_field(g, sine_product(2.5 * math.pi))
        path = tmp_path / "f.fdf"
        write_fdf(path, fld)
        cfg = StudyConfig(field_path=str(path), reconstruction="bilinear",
                          sweep=(3,), repetitions=3, mesh_elems=(8, 8))
        res = run_quadrature_sweep(cfg)
        assert res.meta["reference"] == pytest.approx(trapezoid_integral(fld), rel=1e-15)


class TestHrefStudy:
    def test_supermesh_exact_interp_floored(self):
        cfg = StudyConfig(sweep=(5, 10), grid_points=(41, 41), repetitions=3)
        res = run_href_study(cfg)
        _, sm_err, _, _ = res.series("supermesh")
        assert np.all(sm_err < 1e-12)
        _, bs_err, _, _ = res.series("bspline:3")
        # interpolation error floor persists across mesh resolutions
        assert np.all(bs_err > 1e-9)
        assert "supermesh/setup" in res.methods()

    def test_smooth_beats_oscillatory(self):
        from fieldxfer.harness import COMPARATIVE_DOMAIN
        errs = {}
        for name in ("smooth", "oscillatory"):
            cfg = StudyConfig(domain=COMPARATIVE_DOMAIN, surrogate=name,
                              grid_points=(131, 31), sweep=(10,), repetitions=3)
            res = run_href_study(cfg)
            errs[name] = {m: res.series(m)[1][0] for m in res.methods()}
        for method in ("bspline:3", "bspline:5"):
            assert errs["smooth"][method] < errs["oscillatory"][method]
        assert errs["smooth"]["supermesh"] < 1e-12
        assert errs["oscillatory"]["supermesh"] < 1e-12


class TestWeakScaling:
    def test_rows_and_conservation(self):
        cfg = StudyConfig(sweep=(8, 11), repetitions=3)
        res = run_weak_scaling(cfg)
        assert set(res.methods()) == {"supermesh", "supermesh/setup", "quadrature"}
        n, err, t, _ = res.series("supermesh")
        assert np.array_equal(n, [64, 121])
        assert np.all(err < 1e-12)
        assert np.all(t > 0)

    def test_gauss_point_count_doubles_with_elements(self):
        # fixed per-element work: the quadrature path visits exactly
        # N_e * n_g^2 points
        rule = tensor_product_rule(3)
        n1 = rect_mesh(0, 0, 1, 1, 10, 10).n_elements * len(rule)
        n2 = rect_mesh(0, 0, 1, 1, 10, 20).n_elements * len(rule)
        assert len(rule) == 9
        assert n2 == 2 * n1


class TestTable1:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            emit_table1({})

    def test_full_table(self):
        href = StudyResult("href", meta={"field": "smooth"})
        for n, e in ((10, 1e-15), (20, 2e-15)):
            href.add(n, "supermesh", e, 0.01, 1.0)
            href.add(n, "bspline:3", 1e-4, 0.02, 1.0)
        href2 = StudyResult("href", meta={"field": "oscillatory"})
        for n, e in ((10, 3e-15), (20, 4e-15)):
            href2.add(n, "supermesh", e, 0.01, 1.0)
            href2.add(n, "bspline:3", 1e-2, 0.02, 1.0)
        ws = StudyResult("weak-scaling")
        for n in (100, 200, 400):
            ws.add(n, "supermesh", 1e-15, 1e-4 * n, 1.0)
            ws.add(n, "quadrature", 1e-4, 2e-4 * n, 1.0)
        table = emit_table1({"href": [href, href2], "weak_scaling": ws})
        assert "machine precision" in table
        assert "slope 1.00" in table
        assert "smooth < oscillatory" in table

    def test_partial_single_method(self):
        href = StudyResult("href")
        href.add(10, "supermesh", 1e-15, 0.01, 1.0)
        href.add(20, "supermesh", 2e-15, 0.01, 1.0)
        table = emit_table1({"href": href})
        assert "machine precision" in table
        assert "n/a" in table

    def test_claims_follow_the_numbers(self):
        # supermesh errors above ERROR_FLOOR are printed as numbers, without
        # the words for machine precision; equal floors print "="
        hrefs = []
        for field, e in (("smooth", 1e-3), ("oscillatory", 2e-3)):
            href = StudyResult("href", meta={"field": field})
            href.add(10, "supermesh", e, 0.01, 1.0)
            href.add(10, "bspline:3", 1e-4, 0.02, 1.0)
            hrefs.append(href)
        table = emit_table1({"href": hrefs})
        for words in ("machine precision", "exact", "conserved"):
            assert words not in table
        assert "| conservation error | 2.00e-03 |" in table
        assert "smooth = oscillatory" in table


def test_sine_product_integral_value():
    assert sine_product_integral(4.5 * math.pi) == pytest.approx(
        1.0 / (20.25 * math.pi ** 2), rel=1e-15)


def test_sine_product_integral_any_rectangle():
    # product of 1-D Gauss-Legendre integrals, exact to rounding at 40 points
    k, rect = 4.5 * math.pi, (0.25, -0.5, 1.25, 0.75)
    x, w = np.polynomial.legendre.leggauss(40)

    def axis_integral(lo, hi):
        return 0.5 * (hi - lo) * np.sum(w * np.sin(k * (lo + 0.5 * (hi - lo) * (x + 1))))

    want = axis_integral(rect[0], rect[2]) * axis_integral(rect[1], rect[3])
    assert sine_product_integral(k, rect) == pytest.approx(want, rel=1e-12)
