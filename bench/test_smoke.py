"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py

Checks that the metric names and units each run prints are the ones
BENCHMARK.json declares, that counts repeat exactly for a seed, and that
the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Units of per-layer metrics that are counts, not times, so repeat exactly.
EXACT_UNITS = {"count", "bits", "degree", "bytes"}


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name}: ") and line.split()[3] == unit for line in lines), name
    assert any(line.startswith(f"{workload} error_ratio: 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    counts = []
    for _ in range(2):
        proc = run_bench(workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in EXACT_UNITS})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
