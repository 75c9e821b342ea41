"""Command-line front end.

Subcommands: ``transfer`` (assemble an RHS from a field and a mesh),
``study`` (run the convergence/performance studies), ``genmesh`` and
``genfield`` (write QM1/FDF inputs). Exit codes: 0 success, 1 numerical
failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .assemble import assemble_quadrature, write_rhs
from .errors import ConvergenceError, FieldTransferError, FormatError, SingularMapError
from .fem import read_qm1, rect_mesh, write_qm1
from .grid import StructuredGrid, read_fdf, sample_field, trapezoid_integral, write_fdf
from .harness import (COMPARATIVE_DOMAIN, StudyConfig, StudyResult, emit_table1,
                      run_href_study, run_interp_convergence, run_quadrature_sweep,
                      run_weak_scaling, sine_product, surrogate_field)
from .interp import make_interpolator
from .supermesh import assemble_supermesh, build_supermesh

DEFAULT_INTERP_SWEEP = tuple(1.0 / n for n in (41, 58, 81, 115, 163, 230))
DEFAULT_HREF_SWEEP = (10, 20, 40, 80)
DEFAULT_SCALING_SWEEP = (40, 57, 80, 113, 160)


def _parse_k(text: str) -> float:
    """Wavenumber spec: plain float or a 'pi' multiple such as '4.5pi'."""
    text = text.strip().lower()
    if text.endswith("pi"):
        return float(text[:-2] or 1.0) * math.pi
    return float(text)


def _default_threads():
    env = os.environ.get("FIELDXFER_THREADS", "")
    return int(env) if env else None


def _add_common(parser):
    parser.add_argument("--threads", type=int, default=_default_threads(),
                        help="worker threads for the load-vector scatter "
                             "(default: FIELDXFER_THREADS or serial)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldxfer",
        description="Transfer structured-grid fields onto quadrilateral FEM "
                    "meshes by high-order quadrature or supermesh integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transfer", help="assemble and write an RHS vector")
    p_tr.add_argument("--method", choices=["supermesh", "quad"], required=True)
    src = p_tr.add_argument_group("field source (exactly one)")
    src.add_argument("--field", help="FDF v1 field file")
    src.add_argument("--analytic", metavar="K",
                     help="sample sin(Kx)sin(Ky) instead of reading a file "
                          "(K like '2.5pi'); needs --grid-points")
    p_tr.add_argument("--grid-points", type=int, nargs=2, metavar=("NX", "NY"),
                      help="grid resolution for --analytic")
    p_tr.add_argument("--grid-rect", type=float, nargs=4,
                      metavar=("X0", "Y0", "X1", "Y1"),
                      help="grid rectangle for --analytic (default: mesh extent)")
    msh = p_tr.add_argument_group("mesh source (exactly one)")
    msh.add_argument("--mesh", help="QM1 mesh file")
    msh.add_argument("--mesh-rect", type=float, nargs=4,
                     metavar=("X0", "Y0", "X1", "Y1"))
    p_tr.add_argument("--mesh-elems", type=int, nargs=2, metavar=("NX", "NY"),
                      help="elements per axis for --mesh-rect")
    p_tr.add_argument("--interp", default="bilinear",
                      help="reconstruction: bilinear | bspline:P | lagrange:P")
    p_tr.add_argument("--gauss", type=int, default=3,
                      help="Gauss points per axis for --method quad")
    p_tr.add_argument("--dump-supermesh", metavar="PATH",
                      help="write the intersection polygons as a text "
                           "polygon soup (supermesh method only)")
    p_tr.add_argument("--output", "-o", required=True, help="RHS output path")
    _add_common(p_tr)

    p_st = sub.add_parser("study", help="run a reproduction study")
    st_sub = p_st.add_subparsers(dest="study", required=True)
    for name, help_text in [
            ("interp-convergence", "interpolation error vs grid spacing"),
            ("quad-sweep", "integral error vs Gauss order"),
            ("href", "error vs target mesh resolution"),
            ("weak-scaling", "runtime vs element count"),
            ("table1", "summary table from completed studies")]:
        p = st_sub.add_parser(name, help=help_text)
        p.add_argument("--output-dir", default=".",
                       help="directory for CSV/.dat/report files")
        if name != "table1":
            p.add_argument("--domain", type=float, nargs=4,
                           metavar=("X0", "X1", "Y0", "Y1"))
            p.add_argument("--analytic", metavar="K", default=None)
            p.add_argument("--surrogate", choices=["smooth", "oscillatory"])
            p.add_argument("--field", help="FDF v1 field file")
            p.add_argument("--mesh-elems", type=int, nargs=2, default=(40, 40),
                           metavar=("NX", "NY"))
            p.add_argument("--grid-points", type=int, nargs=2, default=(201, 201),
                           metavar=("NX", "NY"))
            p.add_argument("--sweep", type=float, nargs="+",
                           help="sweep values (h, Gauss orders, or mesh sizes)")
            p.add_argument("--interp", default=None,
                           help="reconstruction for quad-sweep (omit for "
                                "analytic mode)")
            p.add_argument("--repetitions", type=int, default=5)
            _add_common(p)

    p_gm = sub.add_parser("genmesh", help="write a structured QM1 mesh")
    p_gm.add_argument("--mesh-rect", type=float, nargs=4, required=True,
                      metavar=("X0", "Y0", "X1", "Y1"))
    p_gm.add_argument("--mesh-elems", type=int, nargs=2, required=True,
                      metavar=("NX", "NY"))
    p_gm.add_argument("--output", "-o", required=True)

    p_gf = sub.add_parser("genfield", help="sample a field and write FDF")
    p_gf.add_argument("--grid-rect", type=float, nargs=4, required=True,
                      metavar=("X0", "Y0", "X1", "Y1"))
    p_gf.add_argument("--grid-points", type=int, nargs=2, required=True,
                      metavar=("NX", "NY"))
    p_gf.add_argument("--analytic", metavar="K", default="2.5pi",
                      help="sin(Kx)sin(Ky) wavenumber (default 2.5pi)")
    p_gf.add_argument("--surrogate", choices=["smooth", "oscillatory"],
                      help="use a surrogate source field instead of --analytic")
    p_gf.add_argument("--output", "-o", required=True)
    return parser


def _load_transfer_inputs(args, parser):
    if (args.mesh is None) == (args.mesh_rect is None):
        parser.error("specify exactly one of --mesh / --mesh-rect")
    if args.mesh is not None:
        mesh = read_qm1(args.mesh)
    else:
        if args.mesh_elems is None:
            parser.error("--mesh-rect needs --mesh-elems")
        mesh = rect_mesh(*args.mesh_rect, *args.mesh_elems)
    if (args.field is None) == (args.analytic is None):
        parser.error("specify exactly one of --field / --analytic")
    if args.field is not None:
        field = read_fdf(args.field)
    else:
        if args.grid_points is None:
            parser.error("--analytic needs --grid-points")
        rect = args.grid_rect
        if rect is None:
            xmin, ymin = mesh.nodes.min(axis=0)
            xmax, ymax = mesh.nodes.max(axis=0)
            rect = (xmin, ymin, xmax, ymax)
        grid = StructuredGrid(np.linspace(rect[0], rect[2], args.grid_points[0]),
                              np.linspace(rect[1], rect[3], args.grid_points[1]))
        field = sample_field(grid, sine_product(_parse_k(args.analytic)))
    return mesh, field


def _cmd_transfer(args, parser):
    mesh, field = _load_transfer_inputs(args, parser)
    if args.method == "supermesh":
        cache = build_supermesh(mesh, field.grid)
        if args.dump_supermesh:
            cache.dump_polygons(args.dump_supermesh)
        b = assemble_supermesh(cache, field, args.interp, threads=args.threads)
    else:
        interp = make_interpolator(field, args.interp)
        b = assemble_quadrature(mesh, interp, args.gauss, threads=args.threads)
    write_rhs(args.output, b)
    total = float(b.sum())
    print(f"total_integral {total:.17g}")
    i_ref = trapezoid_integral(field)
    rel = abs(total - i_ref) / abs(i_ref) if i_ref != 0.0 else abs(total)
    print(f"trapezoid_reference {i_ref:.17g}")
    print(f"conservation_rel_err {rel:.3e}")
    print(f"wrote {args.output} ({b.size} nodes)")
    return 0


def _study_config(args):
    cfg = StudyConfig(repetitions=args.repetitions, threads=args.threads)
    if args.domain:
        x0, x1, y0, y1 = args.domain
        cfg.domain = (x0, y0, x1, y1)
    elif args.surrogate:
        cfg.domain = COMPARATIVE_DOMAIN
    if args.analytic:
        cfg.analytic_k = _parse_k(args.analytic)
    cfg.surrogate = args.surrogate
    cfg.field_path = args.field
    cfg.mesh_elems = tuple(args.mesh_elems)
    cfg.grid_points = tuple(args.grid_points)
    return cfg


def _cmd_study(args, parser):
    os.makedirs(args.output_dir, exist_ok=True)
    if args.study == "table1":
        return _cmd_table1(args)
    cfg = _study_config(args)
    if args.study == "interp-convergence":
        cfg.sweep = tuple(args.sweep) if args.sweep else DEFAULT_INTERP_SWEEP
        result = run_interp_convergence(cfg)
    elif args.study == "quad-sweep":
        cfg.sweep = tuple(args.sweep) if args.sweep else tuple(range(1, 11))
        cfg.reconstruction = args.interp
        result = run_quadrature_sweep(cfg)
    elif args.study == "href":
        cfg.sweep = tuple(args.sweep) if args.sweep else DEFAULT_HREF_SWEEP
        result = run_href_study(cfg)
        if args.surrogate:
            result.name = f"href-{args.surrogate}"
    else:
        cfg.sweep = tuple(args.sweep) if args.sweep else DEFAULT_SCALING_SWEEP
        if args.interp:
            cfg.reconstruction = args.interp
        result = run_weak_scaling(cfg)
    base = os.path.join(args.output_dir, result.name)
    result.write_csv(base + ".csv")
    result.write_dat(base + ".dat")
    print(f"wrote {base}.csv and {base}.dat ({len(result.rows)} rows)")
    return 0


def _cmd_table1(args):
    results = {}
    hrefs = []
    for stem in sorted(os.listdir(args.output_dir)):
        if stem.startswith("href") and stem.endswith(".csv"):
            result = StudyResult.read_csv(os.path.join(args.output_dir, stem),
                                          name=stem[:-4])
            # CSV carries no metadata; recover the field tag from the name
            result.meta["field"] = stem[5:-4] or "default"
            hrefs.append(result)
    if hrefs:
        results["href"] = hrefs
    ws_path = os.path.join(args.output_dir, "weak-scaling.csv")
    if os.path.exists(ws_path):
        results["weak_scaling"] = StudyResult.read_csv(ws_path, name="weak-scaling")
    table = emit_table1(results)
    out = os.path.join(args.output_dir, "table1.md")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {out}")
    return 0


def _cmd_genmesh(args):
    mesh = rect_mesh(*args.mesh_rect, *args.mesh_elems)
    write_qm1(args.output, mesh)
    print(f"wrote {args.output} ({mesh.n_nodes} nodes, {mesh.n_elements} elements)")
    return 0


def _cmd_genfield(args):
    x0, y0, x1, y1 = args.grid_rect
    grid = StructuredGrid(np.linspace(x0, x1, args.grid_points[0]),
                          np.linspace(y0, y1, args.grid_points[1]))
    if args.surrogate:
        func = surrogate_field(args.surrogate)
    else:
        func = sine_product(_parse_k(args.analytic))
    write_fdf(args.output, sample_field(grid, func))
    print(f"wrote {args.output} ({grid.nx}x{grid.ny} samples)")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "transfer":
            return _cmd_transfer(args, parser)
        if args.command == "study":
            return _cmd_study(args, parser)
        if args.command == "genmesh":
            return _cmd_genmesh(args)
        return _cmd_genfield(args)
    except (ConvergenceError, SingularMapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FieldTransferError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
