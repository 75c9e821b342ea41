"""Command-line front end.

Subcommands: ``transfer`` (assemble an RHS from one FDF field file and
one QM1 mesh file), ``study`` (run the convergence/performance studies),
``genfield`` and ``genmesh`` (write the FDF/QM1 inputs of ``transfer``).
Exit codes: 0 success, 1 numerical failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from .assemble import assemble_quadrature, write_rhs
from .errors import ConvergenceError, FieldTransferError, SingularMapError
from .fem import read_qm1, rect_mesh, write_qm1
from .grid import read_fdf, trapezoid_integral, write_fdf
from .harness import (StudyConfig, StudyResult, emit_table1, field_source,
                      run_href_study, run_interp_convergence, run_quadrature_sweep,
                      run_weak_scaling)
from .interp import make_interpolator
from .supermesh import assemble_supermesh, build_supermesh


def _parse_k(text: str) -> float:
    """Wavenumber spec: plain float or a 'pi' multiple such as '4.5pi'."""
    text = text.strip().lower()
    if text.endswith("pi"):
        return float(text[:-2] or 1.0) * math.pi
    return float(text)


# Each study flag sets the StudyConfig field named by its dest.
STUDY_FLAGS = {
    "--domain": dict(type=float, nargs=4, metavar=("X0", "X1", "Y0", "Y1"),
                     help="study rectangle (default: unit square; for "
                          "--surrogate the comparative domain)"),
    "--analytic": dict(dest="analytic_k", type=_parse_k, metavar="K",
                       help="sin(Kx)sin(Ky) source, K like '2.5pi' (default)"),
    "--surrogate": dict(choices=["smooth", "oscillatory"]),
    "--field": dict(dest="field_path", metavar="PATH", help="FDF v1 field file"),
    "--mesh-elems": dict(type=int, nargs=2, metavar=("NX", "NY")),
    "--grid-points": dict(type=int, nargs=2, metavar=("NX", "NY")),
    "--interp": dict(dest="reconstruction", metavar="SPEC",
                     help="reconstruction: bilinear | bspline:P | lagrange:P"),
    "--sweep": dict(type=float, nargs="+", metavar="V",
                    help="sweep values (h, Gauss orders, or mesh sizes)"),
    "--repetitions": dict(type=int, metavar="N"),
}
SOURCE_FLAGS = ("--analytic", "--surrogate", "--field")
COMMON_FLAGS = ("--sweep", "--repetitions")

Study = namedtuple("Study", "run help flags defaults")
# The flags each study runner reads besides COMMON_FLAGS, which every study
# takes, and the StudyConfig defaults it starts from.
STUDIES = {
    "interp-convergence": Study(
        run_interp_convergence, "interpolation error vs grid spacing",
        ("--domain", "--analytic", "--mesh-elems"),
        {"sweep": tuple(1.0 / n for n in (41, 58, 81, 115, 163, 230))}),
    "quad-sweep": Study(
        run_quadrature_sweep, "integral error vs Gauss order",
        ("--domain", "--analytic", "--field", "--mesh-elems", "--grid-points",
         "--interp"),
        # no --interp means analytic mode
        {"sweep": tuple(range(1, 11)), "reconstruction": None}),
    "href": Study(
        run_href_study, "error vs target mesh resolution",
        ("--domain", "--analytic", "--surrogate", "--field", "--grid-points"),
        {"sweep": (10, 20, 40, 80)}),
    "weak-scaling": Study(
        run_weak_scaling, "runtime vs element count",
        ("--domain", "--analytic", "--surrogate", "--interp"),
        {"sweep": (40, 57, 80, 113, 160)}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fieldxfer",
        description="Transfer structured-grid fields onto quadrilateral FEM "
                    "meshes by high-order quadrature or supermesh integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transfer", help="assemble and write an RHS vector")
    p_tr.add_argument("--method", choices=["supermesh", "quad"], required=True)
    p_tr.add_argument("--field", required=True, help="FDF v1 field file")
    p_tr.add_argument("--mesh", required=True, help="QM1 mesh file")
    p_tr.add_argument("--interp", default="bilinear",
                      help="reconstruction: bilinear | bspline:P | lagrange:P")
    p_tr.add_argument("--gauss", type=int,
                      help="Gauss points per axis for --method quad (default 3)")
    p_tr.add_argument("--dump-supermesh", metavar="PATH",
                      help="write the intersection polygons as a text "
                           "polygon soup (supermesh method only)")
    p_tr.add_argument("--output", "-o", required=True, help="RHS output path")

    p_st = sub.add_parser("study", help="run a reproduction study")
    st_sub = p_st.add_subparsers(dest="study", required=True)
    for name, study in STUDIES.items():
        # flags left out stay out of the namespace, so StudyConfig keeps
        # its defaults
        p = st_sub.add_parser(name, help=study.help,
                              argument_default=argparse.SUPPRESS)
        sources = [f for f in study.flags if f in SOURCE_FLAGS]
        group = p.add_mutually_exclusive_group() if len(sources) > 1 else p
        for flag in study.flags + COMMON_FLAGS:
            (group if flag in sources else p).add_argument(flag, **STUDY_FLAGS[flag])
        p.add_argument("--output-dir", default=".",
                       help="directory for CSV/.dat files")
    st_sub.add_parser("table1", help="summary table from completed studies").add_argument(
        "--output-dir", default=".", help="directory of the study CSVs and table1.md")

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
    src = p_gf.add_mutually_exclusive_group()
    src.add_argument("--analytic", type=_parse_k, metavar="K", default="2.5pi",
                     help="sin(Kx)sin(Ky) wavenumber (default 2.5pi)")
    src.add_argument("--surrogate", choices=["smooth", "oscillatory"],
                     help="use a surrogate source field instead of --analytic")
    p_gf.add_argument("--output", "-o", required=True)
    return parser


def _load_transfer_inputs(args, parser):
    if args.method == "supermesh" and args.gauss is not None:
        parser.error("--gauss is not read with --method supermesh")
    if args.method == "quad" and args.dump_supermesh is not None:
        parser.error("--dump-supermesh is not read with --method quad")
    # the benchmark tracer patches this module's read_qm1 and read_fdf
    return read_qm1(args.mesh), read_fdf(args.field)


def _cmd_transfer(args, parser):
    mesh, field = _load_transfer_inputs(args, parser)
    if args.method == "supermesh":
        cache = build_supermesh(mesh, field.grid)
        if args.dump_supermesh:
            cache.dump_polygons(args.dump_supermesh)
        b = assemble_supermesh(cache, field, args.interp)
        covered = cache.covered_areas().sum()
    else:
        interp = make_interpolator(field, args.interp)
        b = assemble_quadrature(mesh, interp, 3 if args.gauss is None else args.gauss)
        covered = mesh.element_areas().sum()
    write_rhs(args.output, b)
    total = float(b.sum())
    print(f"total_integral {total:.17g}")
    i_ref = trapezoid_integral(field)
    print(f"trapezoid_reference {i_ref:.17g}")
    # the reference integrates the whole grid, so it only checks a mesh
    # that covers the whole grid
    x0, y0, x1, y1 = field.grid.bounds
    grid_area = (x1 - x0) * (y1 - y0)
    if abs(covered - grid_area) > 1e-12 * grid_area:
        print(f"conservation_rel_err n/a (the mesh covers {covered / grid_area:.6g} "
              f"of the grid area)")
    else:
        rel = abs(total - i_ref) / abs(i_ref) if i_ref != 0.0 else abs(total)
        print(f"conservation_rel_err {rel:.3e}")
    print(f"wrote {args.output} ({b.size} nodes)")
    return 0


def _study_config(args) -> StudyConfig:
    given = {k: tuple(v) if isinstance(v, list) else v
             for k, v in vars(args).items()
             if k not in ("command", "study", "output_dir")}
    if "domain" in given:
        x0, x1, y0, y1 = given["domain"]
        given["domain"] = (x0, y0, x1, y1)
    return StudyConfig(**{**STUDIES[args.study].defaults, **given})


def _cmd_study(args, parser):
    os.makedirs(args.output_dir, exist_ok=True)
    if args.study == "table1":
        return _cmd_table1(args)
    for flag, dest in (("--domain", "domain"), ("--grid-points", "grid_points")):
        if dest in args and "field_path" in args:  # a file fixes its own grid
            parser.error(f"{flag} is not read with --field")
    cfg = _study_config(args)
    result = STUDIES[args.study].run(cfg)
    if args.study == "href" and cfg.surrogate:
        # table1 tells the href results apart by file name
        result.name = f"href-{cfg.surrogate}"
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
    field = field_source(args.analytic, args.surrogate,
                         rect=args.grid_rect).sample(args.grid_points)
    write_fdf(args.output, field)
    print(f"wrote {args.output} ({field.grid.nx}x{field.grid.ny} samples)")
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
    except (FieldTransferError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
