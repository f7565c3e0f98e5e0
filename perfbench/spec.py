"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the file and the code
that prints the metrics cannot drift apart.
"""
from __future__ import annotations

import json
import pathlib

RUN_SECONDS = 15

# Workloads the regression gate runs. ``tpch_suite`` is run by the same
# command but is not gated: one pass of its 44 queries takes ~200 s on
# 4 cores, which does not fit the gate's per-run budget (README.md).
GATED_WORKLOADS = {
    "mot_bounded": (
        "MOT-lite SF 0.01, bounded scan-free q4 and q6 with 1-3-key frontiers "
        "through Zidian and the baseline: per-fetch Spark overhead in "
        "nosql.kvstore dominates"
    ),
    "kv_mixed": (
        "MOT-lite SF 0.01, Exp-4 2000-key fetch and puts into every mottest "
        "KV instance beside bounded q1 and q5: write-side costs of a read "
        "speed-up show here"
    ),
}
UNGATED_WORKLOADS = {
    "tpch_suite": (
        "TPC-H-lite SF 0.1, all 11 templates: large frontiers, scans and "
        "Spark SQL materialization"
    ),
}

# name -> (unit, better, bound). A run measures 2-3 passes of 2 Zidian
# queries, and a whole run on a shared 4-core machine can be 15% slower
# than the next, so wall-clock and memory bounds are 0.25. The meter
# counts are exact and repeat for every seed; 0.1 lets a plan trade
# some #data for time without passing unnoticed.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "zidian_p50_ms": ("ms", "lower", 0.25),
    "zidian_qps": ("1/s", "higher", 0.25),
    "baseline_p50_ms": ("ms", "lower", 0.25),
    "baseline_qps": ("1/s", "higher", 0.25),
    "pass_s": ("s", "lower", 0.25),
    "zidian_data_per_query": ("values", "lower", 0.1),
    "zidian_gets_per_query": ("gets", "lower", 0.1),
    "baseline_data_per_query": ("values", "lower", 0.1),
    "peak_rss_mb": ("MB", "lower", 0.25),
}

# Printed beside the end-to-end metrics but not in the untraced result:
# failed_frac reads 0 on a correct run (the result line carries
# attempted and failed), and the three metrics the untraced run takes
# from PER_LAYER are not end-to-end gates: the modelled storage time is
# a function of the exact meter counts, so it never varies between runs,
# and the kv_* throughputs exist only on kv_mixed.
EXTRA: dict[str, str] = {"failed_frac": "ratio"}
UNTRACED_FROM_PER_LAYER = (
    "zidian_storage_model_ms", "kv_read_values_per_s", "kv_write_rows_per_s"
)

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "kvstore.fetch.calls_per_query": ("calls", "lower"),
    "kvstore.fetch.self_ms_per_query": ("ms", "lower"),
    "kvstore.fetch.ms_per_call_p50": ("ms", "lower"),
    "kvstore.fetch.jobs_per_call": ("jobs", "lower"),
    "kvstore.fetch.keys_per_call": ("keys", "lower"),
    "kvstore.fetch.rows_per_key": ("rows", "lower"),
    "kvstore.fetch.persisted_rdds_per_call": ("rdds", "lower"),
    "plangen.self_ms_per_query": ("ms", "lower"),
    "zidian.bound_check.ms_per_query": ("ms", "lower"),
    "zidian.bound_check.jobs_per_query": ("jobs", "lower"),
    "plan.execute.self_ms_per_query": ("ms", "lower"),
    "plan.execute.jobs_per_query": ("jobs", "lower"),
    "zidian.materialize.self_ms_per_query": ("ms", "lower"),
    "zidian.materialize.jobs_per_query": ("jobs", "lower"),
    "kvstore.scan.calls_per_query": ("calls", "lower"),
    "kvstore.scan.values_per_query": ("values", "lower"),
    "sqllayer.self_ms_per_query": ("ms", "lower"),
    "sqllayer.jobs_per_query": ("jobs", "lower"),
    "kvstore.put.ms_per_call": ("ms", "lower"),
    "kvstore.put.jobs_per_call": ("jobs", "lower"),
    "kvstore.put.values_rewritten_per_row": ("values", "lower"),
    "kvstore.put.visible_frac": ("ratio", "higher"),
    "zidian.values_per_result_row": ("values", "lower"),
    "baseline.values_per_result_row": ("values", "lower"),
    "runner.build_s": ("s", "lower"),
    "runner.warm_s": ("s", "lower"),
    "runner.warm_jobs": ("jobs", "lower"),
    "spark.persisted_rdds_delta": ("rdds/pass", "lower"),
    "spark.jobs_per_query": ("jobs", "lower"),
    "zidian_storage_model_ms": ("ms", "lower"),
    "kv_read_values_per_s": ("values/s", "higher"),
    "kv_write_rows_per_s": ("rows/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_frac": ("ratio", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": n, "why": why} for n, why in GATED_WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()
        ],
    }


def write_benchmark_json(root: pathlib.Path) -> pathlib.Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return path
