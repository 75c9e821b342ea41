#!/usr/bin/env python3
"""One-off calibration against the ROADMAP baseline, outside the workloads.

Runs the ROADMAP's default case, an un-jittered 40x40 ``rect_mesh`` on a
uniform 101x101 grid of the unit square, checks that the supermesh has
exactly 345,600 Gauss points, and prints the clip-kernel, setup and
execution times next to the baseline the ROADMAP quotes for the pure-Python
kernel. Exits 1 if the Gauss-point count differs.

Usage, from the repository root: ``python3 perfbench/calibrate.py``
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import environment, import_program  # noqa: E402

EXPECTED_GAUSS = 345_600
BUILDS = 3
EXECUTIONS = 20
ROADMAP = {"kernel_ms": 1047.0, "setup_ms": 1125.0, "execution_ms": "90-110"}


def main():
    fx = import_program()
    import numpy as np

    from fieldxfer import supermesh

    from perfbench import spans

    mesh = fx.rect_mesh(0.0, 0.0, 1.0, 1.0, 40, 40)
    grid = fx.StructuredGrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))
    field = fx.sample_field(grid, lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y))

    setup = []
    for _ in range(BUILDS):
        t0 = time.perf_counter()
        cache = supermesh.build_supermesh(mesh, grid)
        setup.append(time.perf_counter() - t0)
    tracer = spans.Tracer()
    with tracer:
        supermesh.build_supermesh(mesh, grid)
    layers = spans.layer_metrics(tracer.names, tracer.starts, tracer.ends,
                                 tracer.parents, tracer.counts)
    execution = []
    for _ in range(EXECUTIONS):
        t0 = time.perf_counter()
        supermesh.assemble_supermesh(cache, field, "lagrange:1")
        execution.append(time.perf_counter() - t0)

    result = {
        "gauss_points": cache.n_gauss,
        "kernel_ms": layers["_kernels.cut_cell_quadrature.self_ms"]["value"],
        "setup_ms": 1e3 * statistics.median(setup),
        "execution_ms": 1e3 * statistics.median(execution),
        "roadmap": ROADMAP,
        "env": environment(fx),
    }
    print(json.dumps(result))
    if cache.n_gauss != EXPECTED_GAUSS:
        print(f"error: expected {EXPECTED_GAUSS} Gauss points, got {cache.n_gauss}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
