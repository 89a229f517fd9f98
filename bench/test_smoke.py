"""Smoke test of the benchmark: every workload, untraced and traced, on the
smallest screen (5,3) with one-second runs.

    python -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["chain_repeat", "cli_cold"])
def test_traced_run_reports_layers_and_writes_spans(workload):
    result = run(workload, 1)
    assert result["correct"]
    metrics = result["metrics"]
    # the smoke ladder has only the (5,3) rung
    assert "mode_basis.build_basis_s.5x3" in metrics
    assert "trace_overhead_frac" in metrics
    shares = [v["value"] for k, v in metrics.items()
              if k.startswith("self_share.")]
    assert len(shares) == 8 and abs(sum(shares) - 1.0) < 1e-6
    counts = {k.rsplit(".", 1)[-1]: v["value"] for k, v in metrics.items()
              if k.startswith("special_functions.little_d_")
              and not k.startswith("special_functions.little_d_us")}
    assert 0 < counts["little_d_distinct"] <= counts["little_d_requests"]
    spans = json.loads((ROOT / ".bench_out" /
                        f"spans-{workload}-seed7.json").read_text())
    assert spans["columns"][:2] == ["name", "layer"] and spans["spans"]


def test_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in RUN.parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chain_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
