"""Table 3 (Exp-1 overall): average evaluation time per workload.

Paper numbers (128 GB, 8 workers), average seconds over each workload's
query suite:

    |        | SoH     | SoH+Z | SoK     | SoK+Z | SoC     | SoC+Z |
    | MOT    | 3.3e3   | 1.4   | 4.3e2   | 0.3   | 7.6e2   | 0.3   |
    | AIRCA  | 1.0e3   | 1.1   | 1.2e2   | 0.4   | 1.8e3   | 0.4   |
    | TPC-H  | 1.5e3   | 96.1  | 1.9e2   | 52.2  | 3.1e2   | 1.2e2 |

Ours has one row per (workload, system): ``wall_s`` is the average of
each query's measured wall time (the median of 3 runs after a warm-up)
and ``<backend>_storage_s`` the average modelled storage time at p=8
(DESIGN.md §5); the two are never added.
Shape to check: Zidian's modelled storage time is below the baseline's
in every (workload, backend) cell. The paper's win is 2–3 orders of
magnitude on the skewed MOT/AIRCA data and markedly smaller (1 order)
on uniform TPC-H — its §9 observation about skew-free data.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..runner import build_context, warm
from ..workloads import WORKLOADS
from ._session import STORAGE, WORKERS, get_session, measure, print_table

PAPER = pd.DataFrame(
    {
        "workload": ["MOT", "AIRCA", "TPC-H"],
        "SoH": [3.3e3, 1.0e3, 1.5e3],
        "SoH+Zidian": [1.4, 1.1, 96.1],
        "SoK": [4.3e2, 1.2e2, 1.9e2],
        "SoK+Zidian": [0.3, 0.4, 52.2],
        "SoC": [7.6e2, 1.8e3, 3.1e2],
        "SoC+Zidian": [0.3, 0.4, 1.2e2],
    }
)

_LABEL = {"mot": "MOT", "airca": "AIRCA", "tpch": "TPC-H"}


def run_workload(spark: SparkSession, wl_name: str, *, sf: float) -> pd.DataFrame:
    """One row per (template, system) over one workload's suite: its
    scan-free class, measured wall and modelled storage time."""
    wl = WORKLOADS[wl_name]
    ctx = build_context(spark, wl, sf=sf)
    try:
        warm(ctx)
        frames = [
            measure(ctx, t.instantiate(), WORKERS).assign(
                workload=_LABEL[wl_name],
                **{"class": "scan-free" if t.scan_free else "non-scan-free"},
            )
            for t in wl.templates
        ]
        return pd.concat(frames)[["workload", "class", "system", "wall_s", *STORAGE]]
    finally:
        ctx.close()


# SF=0.1 TPC-H-lite; SF=0.05 for the real-life stand-ins keeps the full
# suite run within minutes.
DEFAULT_SFS = {"tpch": 0.1, "mot": 0.05, "airca": 0.05}


def run(
    spark: SparkSession,
    *,
    sfs: dict[str, float] | None = None,
    workloads: tuple[str, ...] = ("mot", "airca", "tpch"),
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """(averages per workload and system, the same per scan-free class)."""
    sfs = sfs or DEFAULT_SFS
    per_query = pd.concat(
        [run_workload(spark, wl, sf=sfs[wl]) for wl in workloads]
    )

    def avg(by: list[str]) -> pd.DataFrame:
        return per_query.groupby(by, sort=False).mean(numeric_only=True).reset_index()

    return avg(["workload", "system"]), avg(["workload", "class", "system"])


def main() -> None:  # pragma: no cover
    spark = get_session("table3")
    overall, by_class = run(spark)
    print_table("Table 3 (average time, s) — paper (measured on its cluster)", PAPER)
    print_table("Table 3 (average time, s) — ours (SF=0.1 TPC-H / 0.05 MOT+AIRCA; "
                "wall_s measured, *_storage_s modelled at p=8)", overall)
    print_table("Table 3 breakdown — ours, by scan-free class", by_class)


if __name__ == "__main__":
    main()
