"""Smoke test of the benchmark: every workload at a tiny scale factor.

Run from the repository root (about ten minutes on 4 cores):

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each metric prints with its name and unit, that the result
line is well formed, and that no operation failed.
"""
import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKLOADS = [*spec.GATED_WORKLOADS, *spec.UNGATED_WORKLOADS]


def _run(workload: str, trace: int) -> tuple[dict[str, tuple[float, str]], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = (float(value), unit)
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    printed, result = _run(workload, trace)
    if trace:
        expected = {n: u for n, (u, _) in spec.PER_LAYER.items()}
    else:
        expected = {n: u for n, (u, *_) in spec.END_TO_END.items()}
        expected |= spec.EXTRA
        for n in spec.UNTRACED_FROM_PER_LAYER:
            if workload == "kv_mixed" or not n.startswith("kv_"):
                expected[n] = spec.PER_LAYER[n][0]
    for name, unit in expected.items():
        assert name in printed, f"{name} not printed"
        assert printed[name][1] == unit, f"{name} printed without unit {unit}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == set(names)
    if not trace:
        assert printed["failed_frac"][0] == 0.0


def test_write_spec_matches_committed_file():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_fails_without_program_sources(tmp_path):
    """In a checkout holding only the benchmark, the command must fail
    without printing a result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mot_bounded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
