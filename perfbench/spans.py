"""Per-layer tracing from outside the library.

A :class:`Tracer` replaces public entry points of fieldxfer, as the calling
module sees them, with wrappers that record a span (layer name, start, end,
parent) and the counts visible in the call's arguments and return value.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its child spans; calls are serial, so children never
overlap and the self times of one tree sum to its root's duration.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

import fieldxfer
from fieldxfer import assemble, cli, interp, supermesh
from fieldxfer.grid import StructuredGrid

_MB = 1024.0 * 1024.0


def _kernel_counts(args, kwargs, result):
    i_lo, i_hi, j_lo, j_hi = args[3:7]
    return {"candidate_pairs": max(i_hi - i_lo + 1, 0) * max(j_hi - j_lo + 1, 0),
            "polygons": len(result[0])}


def _points_count(points_arg):
    return {"points": np.asarray(points_arg).size // 2}


def _cache_counts(args, kwargs, cache):
    arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
    return {"gauss_points": cache.n_gauss, "polygons": cache.n_polygons,
            "cache_bytes": sum(a.nbytes for a in arrays)}


def _execution_bytes(args, kwargs, result):
    """Bytes the execution phase reads, computed from array sizes."""
    cache, field = args[0], args[1]
    read = (cache.gauss_xy, cache.gauss_w, cache.gauss_element, cache.gauss_shape,
            cache.element_gauss_offsets, cache.mesh.elements, field.values)
    return {"bytes_computed": sum(a.nbytes for a in read)}


# (owner, attribute, layer, counts(args, kwargs, result) or None). Owners are
# the modules and classes whose attribute the caller looks up at call time.
PATCH_POINTS = [
    (fieldxfer._kernels, "cut_cell_quadrature", "_kernels.cut_cell_quadrature",
     _kernel_counts),
    (StructuredGrid, "candidate_cells", "grid.candidate_cells", None),
    (supermesh, "newton_inverse_batch", "fem.newton_inverse_batch",
     lambda a, k, r: _points_count(a[2])),
    (supermesh, "shape_functions", "fem.shape_functions", None),
    (assemble, "shape_functions", "fem.shape_functions", None),
    (supermesh, "build_supermesh", "supermesh.build_supermesh", _cache_counts),
    (cli, "build_supermesh", "supermesh.build_supermesh", _cache_counts),
    (supermesh, "assemble_supermesh", "supermesh.assemble_supermesh", _execution_bytes),
    (cli, "assemble_supermesh", "supermesh.assemble_supermesh", _execution_bytes),
    (interp.Interpolator, "evaluate", "interp.evaluate",
     lambda a, k, r: _points_count(a[1])),
    (supermesh, "make_interpolator", "interp.make_interpolator", None),
    (cli, "make_interpolator", "interp.make_interpolator", None),
    (assemble, "jacobian_all", "fem.jacobian_all", None),
    (cli, "assemble_quadrature", "assemble.assemble_quadrature", None),
    (cli, "read_fdf", "grid.read_fdf",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (cli, "read_qm1", "fem.read_qm1", None),
    (cli, "write_rhs", "assemble.write_rhs", None),
    (cli, "main", "cli.transfer", None),
]

LAYERS = sorted({layer for _, _, layer, _ in PATCH_POINTS})


class Tracer:
    """Records nested spans while installed (``with tracer:``)."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = {}
        # entry points a refactor removed: their layers report 0
        self.missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in PATCH_POINTS
                        if attr not in owner.__dict__]
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, layer, count in PATCH_POINTS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn, count))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, layer, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = len(self.names)
            self.names.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(k)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[k] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[k] = count(args, kwargs, result)
            return result
        return traced

    def dump(self, path, extra=None):
        """Write every span as ``[layer, start, end, parent]`` plus counts."""
        record = dict(extra or {})
        record["spans"] = [[n, s, e, p] for n, s, e, p in
                           zip(self.names, self.starts, self.ends, self.parents)]
        record["counts"] = {str(k): v for k, v in self.counts.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def self_times(starts, ends, parents):
    """Per-span duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for k, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[k] - starts[k]
    return own


def roots_of(parents):
    """Index of the top-level span each span belongs to."""
    roots = []
    for k, p in enumerate(parents):
        roots.append(k if p < 0 else roots[p])
    return roots


def layer_metrics(names, starts, ends, parents, counts):
    """Per-layer metrics from recorded spans.

    Times are means per top-level operation that runs the layer (a build, a
    transfer or a CLI request). Structural counts come from the first such
    operation, so they repeat exactly for a given seed. Rates divide run
    totals. Layers that never ran report 0.
    """
    own = self_times(starts, ends, parents)
    roots = roots_of(parents)
    by_layer = defaultdict(list)
    for k, name in enumerate(names):
        by_layer[name].append(k)

    def summary(layer):
        idx = by_layer.get(layer, [])
        n_ops = len({roots[k] for k in idx})
        first_root = roots[idx[0]] if idx else -1
        total = defaultdict(float)
        first_total = defaultdict(float)
        for k in idx:
            for key, v in counts.get(k, {}).items():
                total[key] += v
                if roots[k] == first_root:
                    first_total[key] += v
        self_s = sum(own[k] for k in idx)
        return {"ops": n_ops, "calls": len(idx), "self_s": self_s,
                "total": total, "first": first_total}

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    for layer in LAYERS:
        s = summary(layer)
        put(f"{layer}.self_ms", 1e3 * ratio(s["self_s"], s["ops"]), "ms")
        if layer in ("_kernels.cut_cell_quadrature", "grid.candidate_cells"):
            put(f"{layer}.calls", ratio(s["calls"], s["ops"]), "count")
        if layer == "_kernels.cut_cell_quadrature":
            pairs, polys = s["first"]["candidate_pairs"], s["first"]["polygons"]
            put(f"{layer}.candidate_pairs", pairs, "count")
            put(f"{layer}.polygons", polys, "count")
            put(f"{layer}.keep_ratio", ratio(polys, pairs), "ratio")
            put(f"{layer}.us_per_pair",
                1e6 * ratio(s["self_s"], s["total"]["candidate_pairs"]), "us")
        if layer in ("fem.newton_inverse_batch", "interp.evaluate"):
            put(f"{layer}.points", s["first"]["points"], "count")
            put(f"{layer}.ns_per_point", 1e9 * ratio(s["self_s"], s["total"]["points"]), "ns")
        if layer == "supermesh.build_supermesh":
            gauss, cache_bytes = s["first"]["gauss_points"], s["first"]["cache_bytes"]
            put("supermesh.gauss_points", gauss, "count")
            put("supermesh.polygons", s["first"]["polygons"], "count")
            put("supermesh.cache_mb", cache_bytes / _MB, "MB")
            put("supermesh.cache_bytes_per_gauss", ratio(cache_bytes, gauss), "B")
        if layer == "supermesh.assemble_supermesh":
            put(f"{layer}.bytes_computed", s["first"]["bytes_computed"], "B")
        if layer == "grid.read_fdf":
            put(f"{layer}.mb_per_s", ratio(s["total"]["bytes"] / _MB, s["self_s"]), "MB/s")
    return out


def accounting_error(starts, ends, parents):
    """|sum of self times - sum of top-level durations| in seconds."""
    own = self_times(starts, ends, parents)
    top = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
    return abs(sum(own) - top), top
