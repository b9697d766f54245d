"""Smoke tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench``.  Every
workload runs at a tiny budget with and without tracing and must report
exactly the metrics, with the units, that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", str(trace),
         "--proposals", "30"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])


def test_tracer_self_time_excludes_children_and_restores():
    from tracer import Patch, Tracer

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        box.inner()
        return 7

    box = types.SimpleNamespace(inner=inner, outer=outer)

    plain_outer = box.outer
    with Tracer([Patch(box, "outer", "outer", lambda r: str(r)),
                 Patch(box, "inner", "inner")]) as tr:
        assert box.outer() == 7
    assert box.outer is plain_outer
    assert tr.calls("outer") == 1 and tr.calls("inner", under="outer") == 1
    assert tr.count("outer", "7") == 1
    assert tr.total_s("outer") >= tr.total_s("inner") >= 0.02
    assert tr.self_s("outer") == pytest.approx(
        tr.total_s("outer") - tr.total_s("inner"))
