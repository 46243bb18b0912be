"""Self-test: every workload once at tiny scale, checks on, in both modes.

    python3 -m pytest perfbench

Asserts that the run is correct and that every metric BENCHMARK.json names
is emitted, with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    detail, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        kernel_calls = result["metrics"]["kernels.convex_combine.calls"]["value"]
        assert (kernel_calls > 0) == (workload in ("init-clp-plus", "init-focus-vec"))
        assert result["metrics"]["cli.run.s"]["value"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert all(detail["identity"].values())
        if workload == "init-clp-plus":
            assert detail["identity"]["threads_2_identical"]


def test_bare_directory_fails_without_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's files: no program to measure.
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCH), encoding="utf-8")
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
