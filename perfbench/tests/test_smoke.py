"""Smoke test of the benchmark: every workload at minimum size, both modes.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the listed workloads plus scenes, which run.py keeps runnable by name
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | {"scenes"})


def _run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    rc, result = _run(workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_missing_trace_target_is_absent_not_fatal():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    from tracing import Tracer

    tracer = Tracer()
    tracer.install([
        ("spotform.nmf", "no_such_step", "nmf.no_such_step", None, None),
        ("spotform.no_such_module", "f", "gone.f", None, None)])
    try:
        assert tracer.absent == ["nmf.no_such_step", "gone.f"]
    finally:
        tracer.uninstall()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for p in BENCH.glob("*.py"):
        (bare / "perfbench" / p.name).write_text(p.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scenes", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
