"""The benchmark's workloads and their per-transfer correctness checks.

Each workload is a closed loop with one caller: the next transfer starts
when the previous one has returned and been checked, as in a solver that
waits for its load vector every timestep. ``request(k)`` builds the k-th
input outside the timed region, ``transfer`` is the timed call, and
``check`` decides whether the output is correct.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

from fieldxfer import (cli, read_rhs, supermesh, trapezoid_integral,
                       trapezoid_weights, write_fdf, write_qm1)

from . import inputs

# |sum(b) - trapezoid| / sum|w_ij f_ij| for the supermesh path, which
# conserves the trapezoidal integral exactly up to roundoff
SUPERMESH_REL_TOL = 1e-12
# the cubic B-spline integral differs from the trapezoidal one by the
# interpolation error; observed up to about 1e-6 on these fields
QUAD_REL_TOL = 1e-4
# distinct field files the quadrature workload cycles through
QUAD_POOL = 4


class Request:
    """One transfer's input with its conservation reference.

    ``scale`` is sum|w_ij f_ij|, which bounds the roundoff of the sum.
    """

    def __init__(self, field, n_nodes, argv=None):
        self.field = field
        self.n_nodes = n_nodes
        self.argv = argv
        self.reference = trapezoid_integral(field)
        self.scale = float(np.sum(np.abs(trapezoid_weights(field.grid) * field.values)))


def conserved(b, req, rel_tol) -> bool:
    b = np.asarray(b)
    return (b.shape == (req.n_nodes,) and bool(np.all(np.isfinite(b)))
            and abs(float(b.sum()) - req.reference) <= rel_tol * req.scale)


def series_builds(seed: int, n: int):
    """Build the series-supermesh pair n times; return (seconds, last cache)."""
    mesh, grid = inputs.series_pair(seed)
    times = []
    cache = None
    for _ in range(n):
        t0 = time.perf_counter()
        cache = supermesh.build_supermesh(mesh, grid)
        times.append(time.perf_counter() - t0)
    return times, cache


class SeriesSupermesh:
    name = "series-supermesh"
    why = ("the paper's amortised case: one supermesh setup, then a time series "
           "of distinct fields that pays only for evaluation and scatter")

    def __init__(self, seed, workdir):
        self.seed = seed
        # the cache of the last setup build from series_builds
        self.cache = None

    def request(self, k):
        field = inputs.series_field(self.seed, self.cache.grid, k)
        return Request(field, self.cache.mesh.n_nodes)

    def transfer(self, req):
        return supermesh.assemble_supermesh(self.cache, req.field, "bilinear")

    def check(self, req, b):
        return conserved(b, req, SUPERMESH_REL_TOL)


class _CliWorkload:
    """Runs ``fieldxfer transfer`` in-process and reads the RHS file back."""

    rel_tol = 0.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.output = os.path.join(workdir, "out.rhs")

    def path(self, name):
        return os.path.join(self.workdir, name)

    def transfer(self, req):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(req.argv + ["--output", self.output])

    def request(self, k):
        req = self.make_request(k)
        if os.path.exists(self.output):
            os.remove(self.output)
        return req

    def check(self, req, code):
        return code == 0 and conserved(read_rhs(self.output), req, self.rel_tol)


# Not in BENCHMARK.json: most of its request time is the pure-Python clip
# kernel, whose speed on a shared 2-core host differed by 20-60% between
# runs minutes apart, beyond the largest bound a gated metric may have.
# Run it by name or with "all".
class OneshotSupermeshCli(_CliWorkload):
    name = "oneshot-supermesh-cli"
    why = ("setup-dominated one-shot CLI requests: every request is a new "
           "mesh/grid/field triple, so no setup can be reused across requests")
    rel_tol = SUPERMESH_REL_TOL

    def make_request(self, k):
        mesh, field = inputs.cli_triple(self.seed, k)
        write_qm1(self.path("request.qm1"), mesh)
        write_fdf(self.path("request.fdf"), field)
        argv = ["transfer", "--method", "supermesh", "--mesh", self.path("request.qm1"),
                "--field", self.path("request.fdf")]
        return Request(field, mesh.n_nodes, argv=argv)


class OneshotQuadCli(_CliWorkload):
    name = "oneshot-quad-cli"
    why = ("text I/O and the B-spline quadrature path on a 601x601 grid; never "
           "runs the clip kernel, Newton or the supermesh code")
    rel_tol = QUAD_REL_TOL

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        mesh, grid = inputs.quad_pair(seed)
        write_qm1(self.path("mesh.qm1"), mesh)
        self.pool = []
        for i in range(QUAD_POOL):
            field = inputs.quad_field(seed, grid, i)
            write_fdf(self.path(f"field{i}.fdf"), field)
            argv = ["transfer", "--method", "quad", "--interp", "bspline:3",
                    "--gauss", "4", "--mesh", self.path("mesh.qm1"),
                    "--field", self.path(f"field{i}.fdf")]
            self.pool.append(Request(field, mesh.n_nodes, argv=argv))

    def make_request(self, k):
        return self.pool[k % QUAD_POOL]


WORKLOADS = {w.name: w for w in (SeriesSupermesh, OneshotSupermeshCli, OneshotQuadCli)}
