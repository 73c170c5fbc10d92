"""The benchmark's own tests: self-time arithmetic, a smoke run of each
workload, exact counts that repeat for a seed, and the metric list in
BENCHMARK.json."""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()

import spans  # noqa: E402
import workloads as W  # noqa: E402
from vissm import blocks as B  # noqa: E402

SMOKE = W.Sizes(train_count=64, val_count=16, test_count=8, infer_test_count=8,
                epochs={"vim": 1, "vssd": 1}, setups=2, min_passes=2, grad_samples=4,
                min_in_dist_acc=0.0)
COUNTS = ("tensor.graph_nodes", "selective.scan.calls", "selective.nc_ssd.calls",
          "scan2d.make_scan.calls")


def span(name, start, end, parent=-1):
    return spans.Span(name, start, end, parent, "step.0.")


def test_self_time_is_duration_minus_covered_part_of_children():
    tree = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),     # overlaps a: the union counts once
        span("c", 9.0, 12.0, parent=0),    # only [9, 10] lies inside the parent
        span("a.child", 1.5, 2.0, parent=1),
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])


def test_covered_ignores_pieces_outside_the_interval():
    assert spans.covered((0.0, 1.0), [(2.0, 3.0), (-1.0, -0.5)]) == 0.0
    assert spans.covered((0.0, 4.0), [(0.0, 1.0), (0.5, 2.0), (3.0, 3.5)]) == 2.5


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_smoke_run_and_exact_counts_repeat(workload, tmp_path):
    original = B.forward
    bench, untraced = W.run_workload(workload, 3, 0.0, False, str(tmp_path), SMOKE)
    assert bench.failures == []
    assert list(untraced.metrics) == list(W.END_TO_END)
    assert all(v > 0 for v in untraced.metrics.values()), untraced.metrics

    traced = []
    for _ in range(2):
        bench, outcome = W.run_workload(workload, 3, 0.0, True, str(tmp_path), SMOKE)
        assert bench.failures == [] and bench.attempted > 0
        assert list(outcome.metrics) == list(W.PER_LAYER)
        traced.append(outcome)
    assert B.forward is original, "the library was left patched"

    assert traced[0].metrics["trace.coverage_pct"] >= 90.0
    assert traced[0].metrics["trace.missing_routes"] == 0
    first, second = ({k: o.metrics[k] for k in COUNTS} for o in traced)
    assert first == second
    assert traced[0].report["calls_per_forward"] == traced[1].report["calls_per_forward"]
    if workload == "train-vssd":
        assert first["selective.scan.calls"] == 0
    if workload.startswith("train-"):
        assert first["tensor.graph_nodes"] > 0
    else:
        assert first["tensor.graph_nodes"] == 0 and first["scan2d.make_scan.calls"] > 0


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    for key, names in (("end_to_end", W.END_TO_END), ("per_layer", W.PER_LAYER)):
        assert [m["name"] for m in spec[key]] == list(names)
        assert all(m["unit"] == W.UNITS[m["name"]] for m in spec[key])


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-vim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
