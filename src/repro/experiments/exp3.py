"""Exp-3 (paper Fig 4 summary): parallel scalability and communication.

Paper claims (§9 Exp-3): varying p from 4 to 12 workers improves
SoH+Zidian by 2.0–2.5x (ideal 3x, Thm 8); Zidian's communication is a
small fraction of the baseline's (0.03%–22.7%).

Ours is measured. ``run`` times each pick at the session's own
parallelism (median wall of a few repeats after one warm-up) beside the
exact meter counts. ``sweep`` calls ``run`` once per p, each in a fresh
spawned process with its own ``local[p]`` session, because a JVM's
parallelism is fixed when it starts. ``main`` reports the measured
speedup wall(p=1) / wall(p=4), whatever it is.
"""
from __future__ import annotations

import statistics
from multiprocessing import get_context

import pandas as pd
from pyspark.sql import SparkSession

from ..runner import build_context, run_baseline, run_zidian, warm
from ..workloads import WORKLOADS
from ._session import get_session, print_table

PAPER_CLAIMS = pd.DataFrame(
    {
        "claim": [
            "speedup p=4 -> p=12 (SoH+Zidian)",
            "comm ratio Zidian/baseline (MOT)",
            "comm ratio Zidian/baseline (TPC-H)",
        ],
        "paper": ["2.0x-2.5x (vs ideal 3x)", "0.03%", "22.7%"],
    }
)


REPEATS = 3  # timed runs per query and system, after one warm-up


def run(
    spark: SparkSession,
    *,
    sf: float = 0.05,
    picks: tuple[tuple[str, str], ...] = (
        ("mot", "q1"),
        ("mot", "q10"),
        ("tpch", "q11"),
        ("tpch", "q4"),
    ),
) -> pd.DataFrame:
    """One row per pick at this session's parallelism: Zidian's exact
    meter counts, the comm ratio to the baseline, and the measured wall
    of both systems."""
    p = spark.sparkContext.defaultParallelism
    rows = []
    for wl_name in dict.fromkeys(wl for wl, _ in picks):
        ctx = build_context(spark, WORKLOADS[wl_name], sf=sf)
        try:
            warm(ctx)
            for t_name in (t for wl, t in picks if wl == wl_name):
                q = ctx.workload.template(t_name).instantiate()
                zrs = [run_zidian(ctx, q) for _ in range(1 + REPEATS)][1:]
                brs = [run_baseline(ctx, q) for _ in range(1 + REPEATS)][1:]
                zm, bm = zrs[-1].meter, brs[-1].meter
                rows.append(
                    {
                        "query": f"{wl_name}.{t_name}",
                        "p": p,
                        "scan_free": zrs[-1].scan_free,
                        "scans": zm["scans"],
                        "gets": zm["gets"],
                        "n_data": zm["data_values"],
                        "comm_B": zm["comm_bytes"],
                        "comm_ratio_%": 100 * zm["comm_bytes"] / max(bm["comm_bytes"], 1),
                        "zidian_wall_s": statistics.median(r.wall_s for r in zrs),
                        "base_wall_s": statistics.median(r.wall_s for r in brs),
                    }
                )
        finally:
            ctx.close()
    return pd.DataFrame(rows)


def _run_at(p: int, kwargs: dict) -> pd.DataFrame:
    """``run`` in a fresh ``local[p]`` session (body of a spawned process)."""
    spark = get_session("exp3", cores=p)
    try:
        return run(spark, **kwargs)
    finally:
        spark.stop()


def sweep(ps: tuple[int, ...] = (1, 2, 4), **kwargs) -> pd.DataFrame:
    """``run`` once per p, each in its own spawned process."""
    frames = []
    for p in ps:
        with get_context("spawn").Pool(1) as pool:
            frames.append(pool.apply(_run_at, (p, kwargs)))
    return pd.concat(frames, ignore_index=True)


def main() -> None:  # pragma: no cover
    df = sweep()
    print_table("Exp-3 — paper claims", PAPER_CLAIMS)
    print_table("Exp-3 — ours (SF=0.05, one spawned local[p] process per p; "
                f"*_wall_s measured, median of {REPEATS} after 1 warm-up)", df)
    wall = df.set_index(["query", "p"])[["zidian_wall_s", "base_wall_s"]]
    speedup = wall.xs(1, level="p") / wall.xs(4, level="p")
    print_table(
        "Exp-3 — measured speedup wall(p=1) / wall(p=4)",
        speedup.set_axis(["zidian_speedup", "base_speedup"], axis=1).reset_index(),
    )


if __name__ == "__main__":
    main()
