"""Tests of the benchmark itself, on tiny inputs.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
import worker
from hmimos import precoding

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def tiny(request, tmp_path):
    wl = workloads.build(request.param, seed=7, tiny=True, tmp_root=tmp_path)
    yield wl
    wl.close()


def test_tiny_workload_runs_and_passes_its_gates(tiny):
    passes = worker.run_passes(tiny, seconds=0.0, min_passes=2)
    attempted, failed, problems = worker.judge(tiny, passes)
    assert attempted == 2 * len(tiny.ops)
    assert failed == 0, problems
    metrics, info = worker.end_to_end(passes, len(tiny.ops))
    assert set(metrics) | {"setup_s"} == set(run.UNITS)
    assert all(v > 0 for v in metrics.values())
    assert info["passes"] == 2


def test_traced_pass_reports_every_layer_and_keeps_outputs(tiny):
    plain = worker.run_pass(tiny)
    tracer = spans.Tracer()
    with spans.installed(tracer) as missing:
        traced = worker.run_pass(tiny, tracer)
    assert missing == []
    assert traced.digests == plain.digests
    summary = spans.layer_summary(tracer.spans, tracer.counts)
    assert set(summary) == set(spans.metric_names()) - {spans.OVERHEAD}
    assert summary["op.calls"] == len(tiny.ops)
    roots = sum(end - start for name, start, end, parent, _ in tracer.spans if parent < 0)
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9, abs=1e-9)


def test_trace_run_reports_every_per_layer_metric(tiny):
    passes, layers, info = worker.trace_run(tiny, seconds=0.0)
    assert set(layers) == set(spans.metric_names())
    assert info["missing_probes"] == []
    assert info["traced_digest"] == info["untraced_digest"]
    assert info["unattributed_s"] < 1e-3
    _, failed, problems = worker.judge(tiny, passes)
    assert failed == 0, problems


def test_probes_are_removed_after_tracing():
    original = precoding.svd_partition
    with spans.installed(spans.Tracer()):
        assert precoding.svd_partition is not original
    assert precoding.svd_partition is original


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ["op", 0.0, 10.0, -1, False],
        ["channel", 1.0, 4.0, 0, False],
        ["metrics.dof", 3.0, 6.0, 0, True],  # overlaps channel: together they cover [1, 6]
        ["geometry", 2.0, 3.0, 1, False],
        ["geometry", 8.0, 9.0, 0, False],
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 1.0])
    summary = spans.layer_summary(tree, {})
    assert summary["op.self_s"] == pytest.approx(4.0)
    assert summary["geometry.calls"] == 2
    assert summary["geometry.self_s"] == pytest.approx(2.0)
    assert summary["metrics.dof.errors"] == 1


def test_layer_summary_counts_calls_errors_and_ratio():
    tree = [["op", 0.0, 5.0, -1, False], ["numerics.svd", 1.0, 2.0, 0, True]]
    counts = {"numerics.svd.thin_elems": 30, "numerics.svd.full_elems": 120}
    summary = spans.layer_summary(tree, counts)
    assert summary["numerics.svd.calls"] == 1
    assert summary["numerics.svd.errors"] == 1
    assert summary["numerics.svd.self_s"] == pytest.approx(1.0)
    assert summary["op.self_s"] == pytest.approx(4.0)
    assert summary["numerics.svd.thin_ratio"] == pytest.approx(0.25)


def test_corrupted_sweep_output_is_counted_as_failed(tmp_path):
    wl = workloads.build("sweep", seed=7, tiny=True)
    passes = worker.run_passes(wl, seconds=0.0, min_passes=2)
    rows = passes[-1].outputs[0]
    scheme, pa, snr, value = rows[-1]
    rows[-1] = (scheme, pa, snr, float("nan"))
    attempted, failed, problems = worker.judge(wl, passes)
    assert failed == 2
    assert any("nan" in p for p in problems)


def test_sweep_gate_flags_falling_se_on_monotone_curves():
    rows = [("two-layer", "pa1", snr, 10.0) for snr in workloads.SWEEP_SNRS]
    rows[5] = ("two-layer", "pa1", workloads.SWEEP_SNRS[5], 9.0)
    found = workloads.check_sweep_rows(rows)
    assert any("falls" in p for p in found)


def test_changed_output_between_passes_is_counted_as_failed():
    wl = workloads.build("dof-grid", seed=7, tiny=True)
    passes = worker.run_passes(wl, seconds=0.0, min_passes=2)
    passes[0].digests[1] = "0" * 64
    _, failed, problems = worker.judge(wl, passes)
    assert failed == 1
    assert "digest changed" in problems[0]


def test_corrupted_dof_value_is_counted_as_failed():
    wl = workloads.build("dof-grid", seed=7, tiny=True)
    passes = worker.run_passes(wl, seconds=0.0, min_passes=1)
    passes[-1].outputs[0] *= 1.0 + 1e-6
    _, failed, problems = worker.judge(wl, passes)
    assert failed == 1
    assert "participation ratio" in problems[0]


def test_corrupted_csv_is_counted_as_failed(tmp_path):
    wl = workloads.build("export", seed=7, tiny=True, tmp_root=tmp_path)
    try:
        passes = worker.run_passes(wl, seconds=0.0, min_passes=1)
        op = wl.ops[0]
        lines = op.out_path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[-1] = "inf"
        lines[2] = ",".join(fields)
        op.out_path.write_text("\n".join(lines[:-1]) + "\n")
        _, failed, problems = worker.judge(wl, passes)
    finally:
        wl.close()
    assert failed == 1
    assert any("non-finite" in p for p in problems)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.build("sweep", seed=3)
    b = workloads.build("sweep", seed=3)
    c = workloads.build("sweep", seed=4)
    assert [op.scenario for op in a.ops] == [op.scenario for op in b.ops]
    assert [op.scenario for op in a.ops] != [op.scenario for op in c.ops]
    for op in a.ops:
        for user in op.scenario.users:
            cx, cy, _ = user.surface.center
            assert min(abs(cx), abs(cy)) >= workloads.MIN_LATERAL


def test_scenario_file_round_trips(tmp_path):
    from hmimos.config import load_scenario

    scenario = workloads.multi_user_scenario(np.random.default_rng(5), 10, 3, (3, 2))
    path = tmp_path / "s.cfg"
    path.write_text(workloads.scenario_file_text(scenario))
    assert load_scenario(path) == scenario


def test_tail_percentile_leaves_ten_samples_above():
    values = list(range(1, 61))
    pct = worker.tail_percentile(60)
    tail = worker.nearest_rank(values, pct)
    assert sum(v > tail for v in values) == worker.TAIL_ABOVE
    assert worker.tail_percentile(5) == 100.0


def test_benchmark_json_names_match_what_the_runs_print():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {name: spans.unit(name) for name in spans.metric_names()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.xfail(strict=True, reason="known finding: BD leakage near the capacity limit "
                   "exceeds the 1e-10 acceptance tolerance on the seed code")
def test_near_capacity_precoder_meets_the_leakage_tolerance():
    # 12x12 transmitter, K=6 users with 4x3 grids: (6K - 1) * 12 = 420 of 432.
    scenario = workloads.multi_user_scenario(np.random.default_rng(0), 12, 6, (4, 3))
    assert workloads.check_precoder_physics(scenario) == []
