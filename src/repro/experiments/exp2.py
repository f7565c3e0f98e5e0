"""Exp-2 (paper Fig 3 summary): bounded queries cost the same as |D|
grows; baseline cost grows linearly.

Paper claim (§9 Exp-2): "The evaluation time of bounded queries by
SoH+Zidian is indifferent to |D|: 0.7 s on 1 GB and 0.7 s on 16 GB of
MOT, while SoH increases from 12.9 s to 1.2e2 s."
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..runner import build_context, warm
from ..workloads import mot
from ._session import STORAGE, get_session, measure, print_table

PAPER = pd.DataFrame(
    {
        "scale": ["1GB", "16GB"],
        "SoH": [12.9, 1.2e2],
        "SoH+Zidian": [0.7, 0.7],
    }
)


def run(
    spark: SparkSession,
    *,
    sfs: tuple[float, ...] = (0.01, 0.02, 0.04, 0.08),
) -> pd.DataFrame:
    """Sweep |D| for the bounded MOT q1 (1 worker, as in Exp-2): one row
    per (sf, system) with measured wall, modelled storage time and the
    exact meter."""
    frames = []
    for sf in sfs:
        ctx = build_context(spark, mot.WORKLOAD, sf=sf)
        try:
            warm(ctx)
            df = measure(ctx, mot.WORKLOAD.template("q1").instantiate(), 1)
            assert df.set_index("system").at["Zidian", "bounded"], "exp2 requires a bounded query"
            frames.append(df.assign(sf=sf))
        finally:
            ctx.close()
    return pd.concat(frames, ignore_index=True)[
        ["sf", "system", "wall_s", *STORAGE, "n_data", "n_get"]
    ]


def main() -> None:  # pragma: no cover
    spark = get_session("exp2")
    print_table("Exp-2 boundedness — paper claim (MOT bounded queries)", PAPER)
    print_table("Exp-2 boundedness — ours (MOT q1; wall_s measured, "
                "*_storage_s modelled at p=1)", run(spark))


if __name__ == "__main__":
    main()
