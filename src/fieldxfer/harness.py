"""Automated accuracy and performance studies.

Each study sweeps one variable, runs the selected transfer methods against
an explicitly named reference (analytic integral or the trapezoidal rule on
the source grid), and records rows of
``(sweep value, method, relative error, wall seconds, total integral)``.
:func:`field_source` decides which field each study (and the CLI) uses.

Timing rule: every timed step goes through :func:`_median_time`, the median
of ``repetitions`` calls on a monotonic clock after one untimed warm-up
call. Only the supermesh setup is timed once per sweep value; it gets its
own ``supermesh/setup`` rows.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assemble import assemble_quadrature, assemble_quadrature_analytic
from .fem import forward_map, rect_mesh, tensor_product_rule
from .grid import ScalarField, StructuredGrid, read_fdf, sample_field, trapezoid_integral
from .interp import bspline_interpolator, make_interpolator
from .supermesh import assemble_supermesh, build_supermesh

UNIT_DOMAIN = (0.0, 0.0, 1.0, 1.0)
# comparative-study domain (width 130 x 30, grid spacing 1 in both axes)
COMPARATIVE_DOMAIN = (20.0, -15.0, 150.0, 15.0)
ERROR_FLOOR = 1e-12
# Gauss points per axis: the evaluation points of interp-convergence and
# the quadrature rule that weak-scaling times
N_GAUSS = 3


def sine_product(k: float):
    """f(x, y) = sin(k x) sin(k y); see :func:`sine_product_integral`."""
    return lambda x, y: np.sin(k * x) * np.sin(k * y)


def sine_product_integral(k: float, rect=UNIT_DOMAIN) -> float:
    """Closed-form integral of sin(k x) sin(k y) over rect (x0, y0, x1, y1)."""
    x0, y0, x1, y1 = rect
    wx = (math.cos(k * x0) - math.cos(k * x1)) / k
    wy = (math.cos(k * y0) - math.cos(k * y1)) / k
    return wx * wy


def surrogate_field(name: str):
    """Synthetic source-term stand-ins on the comparative-study domain.

    ``smooth`` varies slowly in x with a Gaussian y-envelope; ``oscillatory``
    adds short-wavelength structure in both axes and a sharp tanh transition
    across y = 0.
    """
    if name == "smooth":
        return lambda x, y: np.sin(0.2 * x) * np.exp(-((y / 5.0) ** 2))
    if name == "oscillatory":
        return lambda x, y: (np.sin(2.0 * x) * np.sin(2.0 * y)
                             * np.exp(-((y / 5.0) ** 2))
                             * (1.0 + 0.5 * np.tanh(4.0 * y)))
    raise ValueError(f"unknown surrogate {name!r} (expected 'smooth' or 'oscillatory')")


@dataclass
class FieldSource:
    """``func`` f(x, y) or the samples ``field`` of a file, on ``rect``
    (x0, y0, x1, y1); ``exact`` is the closed-form integral, if known."""

    name: str
    rect: tuple
    func: object = None
    field: ScalarField | None = None
    exact: float | None = None

    def sample(self, grid_points) -> ScalarField:
        """The file's own samples, or func on an (nx, ny) grid over rect."""
        if self.field is not None:
            return self.field
        x0, y0, x1, y1 = self.rect
        grid = StructuredGrid(np.linspace(x0, x1, grid_points[0]),
                              np.linspace(y0, y1, grid_points[1]))
        return sample_field(grid, self.func)


def field_source(analytic_k, surrogate=None, field_path=None, rect=None) -> FieldSource:
    """Which field, on which rectangle, checked against which reference.

    An FDF file wins over a surrogate, which wins over sin(k x) sin(k y).
    A file fixes its own rectangle; otherwise ``rect`` defaults to the
    comparative domain for a surrogate and the unit square for the sine.
    Only the sine has a closed-form integral; the studies check the other
    sources against the trapezoidal rule on their samples.
    """
    if field_path is not None:
        fld = read_fdf(field_path)
        return FieldSource(str(field_path), fld.grid.bounds, field=fld)
    if surrogate is not None:
        return FieldSource(surrogate, rect or COMPARATIVE_DOMAIN,
                           func=surrogate_field(surrogate))
    rect = rect or UNIT_DOMAIN
    return FieldSource("analytic", rect, func=sine_product(analytic_k),
                       exact=sine_product_integral(analytic_k, rect))


@dataclass
class StudyConfig:
    """Knobs shared by the studies; each study reads the fields it needs.
    ``domain`` None means the source's own rectangle (:func:`field_source`)."""

    domain: tuple | None = None
    analytic_k: float = 2.5 * math.pi
    surrogate: str | None = None
    field_path: str | None = None
    mesh_elems: tuple = (40, 40)
    grid_points: tuple = (201, 201)
    sweep: tuple = ()
    orders: tuple = (1, 2, 3, 4, 5)
    reconstruction: str = "lagrange:3"
    repetitions: int = 5

    def validate_sweep(self):
        if not self.sweep:
            raise ValueError("sweep values must be non-empty")
        if any(v <= 0 for v in self.sweep):
            raise ValueError("sweep values must be positive")

    def validate_timing(self):
        if self.repetitions < 3:
            raise ValueError("timing studies need at least 3 repetitions")


@dataclass
class StudyRow:
    sweep: float
    method: str
    error: float
    time_s: float
    integral: float


@dataclass
class StudyResult:
    name: str
    rows: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, sweep, method, error, time_s=0.0, integral=0.0):
        row = StudyRow(float(sweep), str(method), float(error),
                       float(time_s), float(integral))
        for v in (row.sweep, row.error, row.time_s, row.integral):
            if not math.isfinite(v):
                raise ValueError(f"non-finite study row: {row}")
        if row.error < 0:
            raise ValueError(f"negative error in study row: {row}")
        self.rows.append(row)

    def methods(self):
        seen = []
        for r in self.rows:
            if r.method not in seen:
                seen.append(r.method)
        return seen

    def series(self, method):
        """(sweep, error, time, integral) arrays for one method."""
        rows = [r for r in self.rows if r.method == method]
        return (np.array([r.sweep for r in rows]),
                np.array([r.error for r in rows]),
                np.array([r.time_s for r in rows]),
                np.array([r.integral for r in rows]))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep", "method", "error", "time_s", "integral"])
            for r in self.rows:
                writer.writerow([f"{r.sweep:.17g}", r.method, f"{r.error:.17g}",
                                 f"{r.time_s:.17g}", f"{r.integral:.17g}"])

    @classmethod
    def read_csv(cls, path, name="loaded"):
        result = cls(name)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["sweep", "method", "error", "time_s", "integral"]:
                raise ValueError(f"{path}: not a study CSV (header {header})")
            for sweep, method, error, time_s, integral in reader:
                result.add(float(sweep), method, float(error),
                           float(time_s), float(integral))
        return result

    def write_dat(self, path):
        """Gnuplot-compatible data: one index block per method."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# study: {self.name}\n")
            for key, val in sorted(self.meta.items()):
                fh.write(f"# {key}: {val}\n")
            fh.write("# columns: sweep error time_s integral\n")
            for m, method in enumerate(self.methods()):
                fh.write(f"\n\n# index {m}: {method}\n")
                for r in self.rows:
                    if r.method == method:
                        fh.write(f"{r.sweep:.17g} {r.error:.17g} "
                                 f"{r.time_s:.17g} {r.integral:.17g}\n")


def fit_loglog_slope(x, y, floor: float = ERROR_FLOOR) -> float:
    """Least-squares slope of log(y) vs log(x), excluding the floor region
    (y < floor) and non-positive entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (y >= floor) & (y > 0) & (x > 0)
    if keep.sum() < 2:
        raise ValueError("fewer than two points above the error floor")
    coeff = np.polyfit(np.log(x[keep]), np.log(y[keep]), 1)
    return float(coeff[0])


def _median_time(fn, repetitions):
    """Median wall time of warm repetitions (one untimed warm-up run)."""
    fn()
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), out


# --- studies ----------------------------------------------------------------


def run_interp_convergence(cfg: StudyConfig) -> StudyResult:
    """Relative L2 interpolation error at the Gauss points of a fixed
    evaluation mesh, swept over grid spacing and B-spline order.

    sweep values are the grid spacings h; one method row per order.
    """
    cfg.validate_sweep()
    cfg.validate_timing()
    src = field_source(cfg.analytic_k, rect=cfg.domain)
    x0, y0, x1, y1 = src.rect
    mesh = rect_mesh(x0, y0, x1, y1, *cfg.mesh_elems)
    rule = tensor_product_rule(N_GAUSS)
    pts = forward_map(mesh, None, rule.points).reshape(-1, 2)
    f_exact = src.func(pts[:, 0], pts[:, 1])
    norm = float(np.linalg.norm(f_exact))
    result = StudyResult(
        "interp-convergence",
        meta={"k": cfg.analytic_k, "mesh": cfg.mesh_elems,
              "n_gauss": N_GAUSS})
    for h in cfg.sweep:
        n = int(round((x1 - x0) / h)) + 1
        fld = src.sample((n, n))
        for p in cfg.orders:
            if fld.grid.nx < p + 1:
                raise ValueError(f"grid too coarse for order {p}")
            dt, vals = _median_time(lambda: bspline_interpolator(fld, p).evaluate(pts),
                                    cfg.repetitions)
            err = float(np.linalg.norm(vals - f_exact)) / norm
            result.add(h, f"bspline:{p}", err, dt)
    return result


def run_quadrature_sweep(cfg: StudyConfig) -> StudyResult:
    """Total-integral error vs Gauss order, with and without reconstruction.

    Analytic mode (no field_path and no reconstruction requested)
    integrates f directly; interpolated mode samples f on ``grid_points``
    first and reconstructs with ``cfg.reconstruction``. The reference is the
    closed-form integral for the sine, the trapezoidal rule for a file.
    """
    cfg.validate_sweep()
    cfg.validate_timing()
    interpolated = cfg.reconstruction is not None or cfg.field_path is not None
    src = field_source(cfg.analytic_k, field_path=cfg.field_path, rect=cfg.domain)
    mesh = rect_mesh(*src.rect, *cfg.mesh_elems)
    mode = (cfg.reconstruction or "lagrange:3") if interpolated else "analytic"
    if interpolated:
        fld = src.sample(cfg.grid_points)
        interp = make_interpolator(fld, mode)
    i_ref = src.exact if src.exact is not None else trapezoid_integral(fld)
    result = StudyResult(
        "quad-sweep",
        meta={"k": cfg.analytic_k, "mode": mode, "reference": i_ref})
    for ng in cfg.sweep:
        ng = int(ng)
        if interpolated:
            run = lambda: assemble_quadrature(mesh, interp, ng)
        else:
            run = lambda: assemble_quadrature_analytic(mesh, src.func, ng)
        dt, b = _median_time(run, cfg.repetitions)
        total = float(b.sum())
        result.add(ng, f"quad/{mode}", abs(total - i_ref) / abs(i_ref), dt, total)
    return result


# (method row, reconstruction, Gauss points per axis or None for supermesh)
_HREF_METHODS = (("supermesh", "bilinear", None),
                 ("bspline:3", "bspline:3", 3),
                 ("bspline:5", "bspline:5", 4))


def _timed_transfers(result, sweep, mesh, fld, methods, repetitions):
    """Add one row per method for transferring fld onto mesh, with its error
    against the trapezoidal reference; a supermesh method also adds a
    ``supermesh/setup`` row, timed once, for building the supermesh."""
    i_ref = trapezoid_integral(fld)
    t0 = time.perf_counter()
    cache = build_supermesh(mesh, fld.grid)
    setup_t = time.perf_counter() - t0
    for method, reconstruction, ng in methods:
        if ng is None:
            run = lambda: assemble_supermesh(cache, fld, reconstruction)
        else:
            interp = make_interpolator(fld, reconstruction)
            run = lambda: assemble_quadrature(mesh, interp, ng)
        dt, b = _median_time(run, repetitions)
        total = float(b.sum())
        err = abs(total - i_ref) / abs(i_ref)
        result.add(sweep, method, err, dt, total)
        if ng is None:
            result.add(sweep, "supermesh/setup", err, setup_t, total)


def run_href_study(cfg: StudyConfig) -> StudyResult:
    """Error vs target-mesh resolution at a fixed source grid.

    Methods: supermesh with bilinear reconstruction, cubic B-spline with
    3x3 Gauss, quintic B-spline with 4x4 Gauss. Errors are relative to the
    trapezoidal integral of the sampled field; supermesh setup is reported
    as separate ``supermesh/setup`` rows.
    """
    cfg.validate_sweep()
    cfg.validate_timing()
    src = field_source(cfg.analytic_k, cfg.surrogate, cfg.field_path, cfg.domain)
    fld = src.sample(cfg.grid_points)
    result = StudyResult(
        "href",
        meta={"grid": (fld.grid.nx, fld.grid.ny), "field": src.name,
              "reference": trapezoid_integral(fld)})
    for n in map(int, cfg.sweep):
        _timed_transfers(result, n, rect_mesh(*src.rect, n, n), fld, _HREF_METHODS,
                         cfg.repetitions)
    return result


def run_weak_scaling(cfg: StudyConfig) -> StudyResult:
    """Execution-phase runtime vs element count at fixed work per element.

    The source grid grows proportionally with the mesh (five grid cells per
    four elements along each axis). Sweep values are element counts per
    axis; errors are conservation errors against the trapezoidal reference.
    """
    cfg.validate_sweep()
    cfg.validate_timing()
    src = field_source(cfg.analytic_k, cfg.surrogate, rect=cfg.domain)
    result = StudyResult(
        "weak-scaling",
        meta={"field": src.name,
              "reconstruction": cfg.reconstruction,
              "n_gauss": N_GAUSS})
    methods = (("supermesh", "bilinear", None),
               ("quadrature", cfg.reconstruction, N_GAUSS))
    for n in map(int, cfg.sweep):
        gp = max(n + n // 4, 2) + 1
        _timed_transfers(result, n * n, rect_mesh(*src.rect, n, n), src.sample((gp, gp)),
                         methods, cfg.repetitions)
    return result


# --- summary table ----------------------------------------------------------


def emit_table1(results: dict) -> str:
    """Markdown comparison table built from completed study results.

    Expects any of the keys ``href`` (conservation + error floor; may be a
    list with one result per source field) and ``weak_scaling`` (runtime
    slopes). Raises on empty input; single-study input yields a partial
    table. The supermesh cells say "machine precision", "exact" or
    "conserved" only when its largest error is below ERROR_FLOOR, and give
    the number alone otherwise.
    """
    if not results or not any(v for v in results.values()):
        raise ValueError("no study results to summarize")
    hrefs = results.get("href")
    if hrefs is None:
        hrefs = []
    elif not isinstance(hrefs, (list, tuple)):
        hrefs = [hrefs]
    lines = ["| quantity | supermesh | quadrature (B-spline) |",
             "|---|---|---|"]

    def collect(predicate):
        errs = [r.series(m)[1] for r in hrefs for m in r.methods() if predicate(m)]
        return np.concatenate(errs) if errs else None

    sm_errs = collect(lambda m: m == "supermesh")
    bs_errs = collect(lambda m: m.startswith("bspline"))
    if sm_errs is None:
        sm_cell = sm_h = sm_sources = "n/a"
    elif sm_errs.max() < ERROR_FLOOR:
        sm_cell = f"machine precision (max {sm_errs.max():.2e})"
        sm_h = "exact at all scales"
        sm_sources = "conserved for all sources"
    else:
        # above the conservation bound the words would claim too much
        sm_cell = sm_h = sm_sources = f"{sm_errs.max():.2e}"
    if sm_errs is not None or bs_errs is not None:
        bs_cell = (f"interpolation limited (min {bs_errs.min():.2e})"
                   if bs_errs is not None else "n/a")
        lines.append(f"| conservation error | {sm_cell} | {bs_cell} |")
        floor_cell = (f"systematic error floor (~{bs_errs.min():.2e})"
                      if bs_errs is not None else "n/a")
        lines.append(f"| target h-refinement | {sm_h} | {floor_cell} |")
    if len(hrefs) >= 2 and bs_errs is not None:
        floors = [min(r.series(m)[1].min() for m in r.methods()
                      if m.startswith("bspline")) for r in hrefs[:2]]
        fields = [r.meta.get("field", "?") for r in hrefs[:2]]
        order = "<" if floors[0] < floors[1] else ">" if floors[0] > floors[1] else "="
        lines.append(f"| source robustness | {sm_sources} | "
                     f"{fields[0]} {order} {fields[1]} "
                     f"({floors[0]:.2e} vs {floors[1]:.2e}) |")
    ws = results.get("weak_scaling")
    if ws is not None:
        cells = {}
        for method in ("supermesh", "quadrature"):
            if method in ws.methods():
                n, _, t, _ = ws.series(method)
                cells[method] = f"linear, slope {fit_loglog_slope(n, t, floor=0.0):.2f}"
            else:
                cells[method] = "n/a"
        lines.append(f"| scaling | {cells['supermesh']} | {cells['quadrature']} |")
    if len(lines) == 2:
        raise ValueError("no recognized study results to summarize "
                         "(expected 'href' and/or 'weak_scaling')")
    return "\n".join(lines) + "\n"
