#!/usr/bin/env python3
"""Layered transfer benchmark: runs one workload and prints its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/workloads.py`` for why each was chosen):
``series-supermesh``, ``oneshot-supermesh-cli`` and ``oneshot-quad-cli``;
``--workload all`` runs each of them in a fresh process in turn.
Every input is generated from ``--seed`` before it is timed, and every
transfer's output is checked for correctness. The program is imported from
``src/`` of the checkout this file lives in; nothing needs building, and
the run fails without printing a result when that source is missing.

With ``--trace 0`` the run reports end-to-end metrics: ``setup_s`` (median
of several ``build_supermesh`` calls on the series-supermesh pair, made in
every workload's run), ``transfer_ms_p50`` and ``peak_rss_mb`` (the
process's peak RSS at the end of the transfer loop). The failure
fraction, the transfer count and, from 100 transfers on, ``transfer_ms_p90``
are printed as well. With ``--trace 1`` a separate run records spans around
the library's public entry points and reports per-layer metrics plus the
tracing overhead; the spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

# builds per run behind setup_s; one build varies by about 20% across runs
SETUP_BUILDS = 3
# a traced run needs at least one traced and one untraced transfer
MIN_TRANSFERS = 3
# a p90 needs at least ten samples beyond it
P90_MIN_SAMPLES = 100
WORKLOADS = ("series-supermesh", "oneshot-supermesh-cli", "oneshot-quad-cli")
END_TO_END = ("setup_s", "transfer_ms_p50", "peak_rss_mb")
THREAD_VARS = ("FIELDXFER_THREADS", "FIELDXFER_PURE_PYTHON", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_program():
    """Import fieldxfer from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import fieldxfer
    if not Path(fieldxfer.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fieldxfer was imported from {fieldxfer.__file__}, not {src}")
    return fieldxfer


def environment(fieldxfer):
    import numpy
    import scipy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"kernel": fieldxfer.KERNEL_IMPLEMENTATION,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc,
            "vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def transfer_summary(times_s):
    """Median transfer time and sample count, plus p90 from 100 samples on."""
    ms = [1e3 * t for t in times_s]
    out = {"transfer_ms_p50": metric(statistics.median(ms), "ms"),
           "transfer_count": metric(len(ms), "count")}
    if len(ms) >= P90_MIN_SAMPLES:
        out["transfer_ms_p90"] = metric(statistics.quantiles(ms, n=10)[8], "ms")
    return out


def closed_loop(workload, seconds, tracer=None):
    """Run transfers back to back until their wall times add up to seconds.

    Returns ({traced: [seconds]}, attempted, failed). With a tracer, the
    even-numbered transfers are traced and the odd ones are not.
    """
    times = {True: [], False: []}
    failed = 0
    k = 0
    while sum(times[True]) + sum(times[False]) < seconds or k < MIN_TRANSFERS:
        req = workload.request(k)
        traced = tracer is not None and k % 2 == 0
        ok = True
        with tracer if traced else nullcontext():
            t0 = time.perf_counter()
            try:
                out = workload.transfer(req)
            except Exception:
                traceback.print_exc()
                ok = False
            times[traced].append(time.perf_counter() - t0)
        try:
            ok = ok and workload.check(req, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"transfer {k} failed its correctness check", file=sys.stderr)
            failed += 1
        k += 1
    return times, k, failed


def run(args, env):
    from perfbench import spans, workloads

    cls = workloads.WORKLOADS[args.workload]
    print(json.dumps({"workload": cls.name, "why": cls.why, "seed": args.seed, "env": env}))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = cls(args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        setup_times = []
        if isinstance(workload, workloads.SeriesSupermesh):
            with tracer or nullcontext():
                setup_times, workload.cache = workloads.series_builds(
                    args.seed, SETUP_BUILDS)
        times, attempted, failed = closed_loop(workload, args.seconds, tracer)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # the CLI workloads build the series pair only for setup_s, after
        # their loop, so the builds stay out of their peak memory
        if not setup_times and not args.trace:
            setup_times, _ = workloads.series_builds(args.seed, SETUP_BUILDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"failed_frac": metric(failed / attempted, "ratio")}
    if not args.trace:
        report["setup_s"] = metric(statistics.median(setup_times), "s")
        report["peak_rss_mb"] = metric(peak_mb, "MB")
        report.update(transfer_summary(times[False]))
        result = {k: report[k] for k in END_TO_END}
        correct = failed == 0
    else:
        t = tracer
        result = spans.layer_metrics(t.names, t.starts, t.ends, t.parents, t.counts)
        result["trace.overhead_pct"] = metric(
            100.0 * (statistics.median(times[True]) / statistics.median(times[False]) - 1.0),
            "%")
        gap, top = spans.accounting_error(t.starts, t.ends, t.parents)
        report["trace.top_level_s"] = metric(top, "s")
        report["trace.unaccounted_s"] = metric(gap, "s")
        if t.missing:
            print(f"not traced (entry point missing): {', '.join(t.missing)}",
                  file=sys.stderr)
        t.dump(OUT_DIR / f"spans-{args.workload}.json",
               {"workload": args.workload, "seed": args.seed, "env": env})
        correct = failed == 0 and gap <= 1e-9 * max(top, 1.0)
        report.update(result)
    for name, m in report.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}


def run_all(args):
    """Run every workload, each in a fresh process of its own."""
    codes = []
    for name in WORKLOADS:
        codes.append(subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode)
    return max(codes)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        fieldxfer = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    env = environment(fieldxfer)
    # the workloads run at the library's default thread count (serial)
    os.environ.pop("FIELDXFER_THREADS", None)
    result = run(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
