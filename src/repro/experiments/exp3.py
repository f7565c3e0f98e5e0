"""Exp-3 (paper Fig 4 summary): parallel scalability and communication.

Paper claims (§9 Exp-3): varying p from 4 to 12 workers improves
SoH+Zidian by 2.0–2.5x (ideal 3x, Thm 8); Zidian's communication is a
small fraction of the baseline's (0.03%–22.7%).

Ours is measured. ``run`` reports, per pick, Zidian's exact meter
counts, its comm ratio to the baseline and the measured wall of both
systems (``_session.measure``: median of 3 runs after one warm-up).
The speedup claim is not reproduced: Zidian's plans run in the driver
process over an unsharded store, so no parallelism of this machine
serves them (ROADMAP item 3).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..runner import build_context, warm
from ..workloads import WORKLOADS
from ._session import get_session, measure, print_table

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
    """One row per pick: Zidian's exact meter counts, the comm ratio to
    the baseline, and the measured wall of both systems."""
    rows = []
    for wl_name in dict.fromkeys(wl for wl, _ in picks):
        ctx = build_context(spark, WORKLOADS[wl_name], sf=sf)
        try:
            warm(ctx)
            for t_name in (t for wl, t in picks if wl == wl_name):
                q = ctx.workload.template(t_name).instantiate()
                # p only scales the modelled storage time, not reported here.
                m = measure(ctx, q, p=8).set_index("system")
                z, b = m.loc["Zidian"], m.loc["baseline"]
                rows.append(
                    {"query": f"{wl_name}.{t_name}"}
                    | z[["scan_free", "scans", "n_get", "n_data", "comm_B"]].to_dict()
                    | {
                        "comm_ratio_%": 100 * z["comm_B"] / max(b["comm_B"], 1),
                        "zidian_wall_s": z["wall_s"],
                        "base_wall_s": b["wall_s"],
                    }
                )
        finally:
            ctx.close()
    return pd.DataFrame(rows)


def main() -> None:  # pragma: no cover
    spark = get_session("exp3")
    print_table("Exp-3 — paper claims", PAPER_CLAIMS)
    print_table("Exp-3 — ours (SF=0.05; *_wall_s measured, median of 3 "
                "after 1 warm-up)", run(spark))


if __name__ == "__main__":
    main()
