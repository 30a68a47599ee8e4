"""Smoke tests for the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs at the ``tiny`` scale, untraced and traced, through
the same command line the benchmark is driven with; every metric name of
``BENCHMARK.json`` must come back with its unit, and the oracles must
pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "11", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_seed_determines_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    from workloads import QueryStream, repeat_cell_ratio, simulate_panel

    a = simulate_panel(np.random.default_rng([5, 1]), 100, 300)
    b = simulate_panel(np.random.default_rng([5, 1]), 100, 300)
    c = simulate_panel(np.random.default_rng([6, 1]), 100, 300)
    assert np.array_equal(a.words, b.words)
    assert not np.array_equal(a.words, c.words)
    ratio = repeat_cell_ratio(QueryStream(5, 4096), 200)
    assert ratio == repeat_cell_ratio(QueryStream(5, 4096), 200)
    assert 0.0 < ratio < 1.0


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = run_bench(
        tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
