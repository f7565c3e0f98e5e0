"""Table 2 (Exp-1 case study): Q1 of paper Example 3 on TPC-H.

Paper numbers (128 GB, 8 workers):

    |            | SoH     | SoH+Z  | SoK     | SoK+Z  | SoC     | SoC+Z  |
    | time (s)   | 1.3e2   | 12.4   | 40.5    | 5.4    | 88.1    | 9.9    |
    | #data      | 5.2e8   | 8.4e6  | 5.2e8   | 8.4e6  | 5.2e8   | 8.4e6  |
    | #get       | 1.0e8   | 5.2e4  | 1.0e8   | 5.2e4  | 1.0e8   | 5.2e4  |
    | comm (MB)  | 4.6e2   | 16.7   | 4.5e2   | 15.4   | 4.5e2   | 15.7   |

We reproduce it at SF=0.1 with one row per system: ``wall_s`` is the
measured wall time (median of 3 runs after an untimed warm-up run, the
same for every backend), ``<backend>_storage_s`` the modelled storage
time of the metered accesses at p=8 (DESIGN.md §5), and #data/#get/comm
the exact meter.
The *shape* to check: Zidian has ~3 orders fewer gets, 1–2 orders fewer
values and less communication, hence less modelled storage time on
every backend; measured wall is reported as it is.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..runner import build_context, warm
from ..workloads import tpch
from ._session import STORAGE, WORKERS, get_session, measure, print_table

PAPER = pd.DataFrame(
    {
        "metric": ["time_s", "n_data", "n_get", "comm_MB"],
        "SoH": [1.3e2, 5.2e8, 1.0e8, 4.6e2],
        "SoH+Zidian": [12.4, 8.4e6, 5.2e4, 16.7],
        "SoK": [40.5, 5.2e8, 1.0e8, 4.5e2],
        "SoK+Zidian": [5.4, 8.4e6, 5.2e4, 15.4],
        "SoC": [88.1, 5.2e8, 1.0e8, 4.5e2],
        "SoC+Zidian": [9.9, 8.4e6, 5.2e4, 15.7],
    }
)


def run(spark: SparkSession, *, sf: float = 0.1) -> pd.DataFrame:
    """Reproduce Table 2 at the given scale factor."""
    ctx = build_context(spark, tpch.WORKLOAD, sf=sf)
    try:
        warm(ctx)
        q = tpch.WORKLOAD.template("q11").instantiate("GERMANY")
        df = measure(ctx, q, WORKERS)
        df["comm_MB"] = df["comm_B"] / 1e6
        return df[["system", "wall_s", *STORAGE, "n_data", "n_get", "comm_MB"]]
    finally:
        ctx.close()


def main() -> None:  # pragma: no cover
    spark = get_session("table2")
    print_table("Table 2 (case study Q1) — paper (measured on its cluster)", PAPER)
    print_table("Table 2 (case study Q1) — ours (SF=0.1; wall_s measured, "
                "*_storage_s modelled at p=8)", run(spark))


if __name__ == "__main__":
    main()
