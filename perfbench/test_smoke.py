"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced and checks that every
metric named in BENCHMARK.json is reported with its unit and that no
operation failed. Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PRINTED = ("setup_s", "wall_s", "mc_path_steps_per_s", "calibrate_s", "peak_rss_mb", "failure_rate")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def check_metrics(declared: list[dict], reported: dict) -> None:
    assert set(reported) == {m["name"] for m in declared}
    for m in declared:
        assert reported[m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    lines, result = tiny(workload, 0)
    check_metrics(BENCHMARK["end_to_end"], result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in PRINTED:
        assert any(line.startswith(f"[{workload}] {name} = ") for line in lines), name
    assert f"[{workload}] failure_rate = 0.0 (0 failed" in "\n".join(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer(workload):
    _, result = tiny(workload, 1)
    check_metrics(BENCHMARK["per_layer"], result["metrics"])
    wall = result["metrics"]["trace.wall_s"]["value"]
    assert abs(result["metrics"]["trace.unattributed_s"]["value"]) <= 0.01 * wall


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def span(id, parent, start, end):
    return tracing.Span(id=id, name="s", layer="l", trace_id=1, parent=parent, thread=0, start=start, end=end)


def test_self_times_add_up_with_concurrent_children():
    # root [0, 10]; one stream child [1, 9]; two worker spans overlapping on [4, 5]
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 9.0), span(2, 1, 2.0, 5.0), span(3, 1, 4.0, 6.0)]
    self_time = tracing.attributed_self_times(spans)
    assert self_time[0] == pytest.approx(2.0)
    assert self_time[1] == pytest.approx(4.0)
    assert self_time[2] == pytest.approx(2.5)
    assert self_time[3] == pytest.approx(1.5)
    assert sum(self_time.values()) == pytest.approx(10.0)
