"""Tests of the benchmark's own code: inputs, span arithmetic, metrics.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
"""

import json
import re
from pathlib import Path

import pytest

from fieldxfer import build_supermesh, rect_mesh, supermesh, write_fdf, write_qm1
from perfbench import inputs, run, spans, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _generated(seed, tmp_path):
    """Every kind of generated input, as bytes."""
    mesh, grid = inputs.series_pair(seed)
    cli_mesh, cli_field = inputs.cli_triple(seed, 1)
    write_qm1(tmp_path / "m.qm1", cli_mesh)
    write_fdf(tmp_path / "f.fdf", cli_field)
    quad_mesh, quad_grid = inputs.quad_pair(seed)
    parts = [mesh.nodes, grid.xs, grid.ys, inputs.series_field(seed, grid, 3).values,
             quad_mesh.nodes, quad_grid.xs, inputs.quad_field(seed, quad_grid, 2).values]
    return ([a.tobytes() for a in parts]
            + [(tmp_path / "m.qm1").read_bytes(), (tmp_path / "f.fdf").read_bytes()])


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _generated(7, tmp_path / "a")
    assert first == _generated(7, tmp_path / "b")
    other = _generated(8, tmp_path / "c")
    assert all(x != y for x, y in zip(first, other))


@pytest.mark.parametrize("make", [inputs.series_pair, lambda s: inputs.cli_triple(s, 0)])
def test_mesh_covers_its_grid_exactly(make):
    mesh, grid_or_field = make(3)
    grid = getattr(grid_or_field, "grid", grid_or_field)
    lo = mesh.nodes.min(axis=0)
    hi = mesh.nodes.max(axis=0)
    assert (lo[0], lo[1], hi[0], hi[1]) == grid.bounds
    x0, y0, x1, y1 = grid.bounds
    assert mesh.element_areas().sum() == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-13)


def test_self_times_on_nested_spans():
    # root 0 [0, 10] -> child 1 [1, 4] -> grandchild 2 [2, 3]; child 3 [5, 9];
    # second root 4 [20, 22] -> child 5 [20.5, 21]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0, 20.5]
    ends = [10.0, 4.0, 3.0, 9.0, 22.0, 21.0]
    parents = [-1, 0, 1, 0, -1, 4]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0, 1.5, 0.5]
    assert spans.roots_of(parents) == [0, 0, 0, 0, 4, 4]
    gap, top = spans.accounting_error(starts, ends, parents)
    assert (gap, top) == (0.0, 12.0)

    names = ["cli.transfer", "grid.read_fdf", "interp.evaluate", "interp.evaluate",
             "cli.transfer", "interp.evaluate"]
    counts = {2: {"points": 10}, 3: {"points": 30}, 5: {"points": 7},
              1: {"bytes": 2 * 1024 * 1024}}
    m = spans.layer_metrics(names, starts, ends, parents, counts)
    # evaluate: self 1 + 4 in the first request, 0.5 in the second
    assert m["interp.evaluate.self_ms"]["value"] == pytest.approx(1e3 * 5.5 / 2)
    assert m["interp.evaluate.points"]["value"] == 40
    assert m["interp.evaluate.ns_per_point"]["value"] == pytest.approx(1e9 * 5.5 / 47)
    assert m["cli.transfer.self_ms"]["value"] == pytest.approx(1e3 * 4.5 / 2)
    assert m["grid.read_fdf.self_ms"]["value"] == pytest.approx(2e3)
    assert m["grid.read_fdf.mb_per_s"]["value"] == pytest.approx(1.0)
    assert m["_kernels.cut_cell_quadrature.calls"]["value"] == 0.0


def test_p90_only_from_100_samples():
    few = run.transfer_summary([0.001 * k for k in range(1, 100)])
    assert "transfer_ms_p90" not in few
    assert few["transfer_count"]["value"] == 99
    assert few["transfer_ms_p50"]["value"] == pytest.approx(50.0)
    enough = run.transfer_summary([0.001 * k for k in range(1, 101)])
    assert enough["transfer_ms_p90"]["value"] == pytest.approx(90.9)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = spans.layer_metrics([], [], [], [], {})
    traced["trace.overhead_pct"] = run.metric(0.0, "%")
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]}.items() <= {
        name: w.why for name, w in workloads.WORKLOADS.items()}.items()
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]] + ["transfer_ms_p90", "failed_frac"]
    assert all(NAME.fullmatch(n) for n in names)


def test_tracer_covers_every_entry_point_and_restores_it():
    mesh = rect_mesh(0.0, 0.0, 1.0, 1.0, 2, 2)
    grid = inputs.nonuniform_grid(inputs.UNIT_RECT, 5, 5, inputs.rng_for(0, 9))
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.PATCH_POINTS]
    tracer = spans.Tracer()
    assert tracer.missing == []
    with tracer:
        cache = supermesh.build_supermesh(mesh, grid)
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.PATCH_POINTS] == originals
    m = spans.layer_metrics(tracer.names, tracer.starts, tracer.ends, tracer.parents,
                            tracer.counts)
    assert m["_kernels.cut_cell_quadrature.calls"]["value"] == 4
    assert m["supermesh.gauss_points"]["value"] == cache.n_gauss == len(
        build_supermesh(mesh, grid).gauss_w)
    assert tracer.parents.count(-1) == 1
