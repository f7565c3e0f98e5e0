"""Session, time-column and printing helpers for the experiment drivers."""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..core.query import Query
from ..nosql.backends import BACKENDS
from ..nosql.kvstore import Meter
from ..nosql.sqllayer import BaselineResult
from ..nosql.zidian import ZidianResult
from ..runner import RunContext, run_baseline, run_zidian


def get_session(name: str, cores: int | str = "*") -> SparkSession:
    """Build (or reuse) a ``local[cores]`` session mirroring conftest.py
    settings. The 4 GB driver heap applies when this call starts the JVM;
    Spark's 1 GB default runs out of memory in Exp-3 at SF=0.05."""
    spark = (
        SparkSession.builder.appName(f"repro-{name}")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", "4g")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def timed_pair(ctx: RunContext, q: Query) -> tuple[BaselineResult, ZidianResult]:
    """One baseline and one Zidian run of ``q``, each after one untimed
    warm-up run of its own, so that no timed run pays for Spark's code
    generation."""
    run_baseline(ctx, q)
    br = run_baseline(ctx, q)
    run_zidian(ctx, q)
    return br, run_zidian(ctx, q)


def time_columns(res: BaselineResult | ZidianResult, p: int) -> dict[str, float]:
    """Measured wall time and, per backend, the modelled storage time of
    one metered run at storage parallelism ``p`` (DESIGN.md §5). The two
    are separate columns and are never added."""
    m = Meter(**res.meter)
    return {"wall_s": res.wall_s} | {
        f"{b.name}_storage_s": b.storage_time(m, p) for b in BACKENDS
    }


def print_table(title: str, df: pd.DataFrame) -> None:
    """Print ``df`` as a markdown table (the format EXPERIMENTS.md uses),
    floats to 4 significant digits."""
    def cell(v: object) -> str:
        return f"{v:.4g}" if isinstance(v, float) else str(v)

    print(f"\n## {title}\n")
    print("| " + " | ".join(map(str, df.columns)) + " |")
    print("|" + "---|" * len(df.columns))
    for row in df.itertuples(index=False):
        print("| " + " | ".join(map(cell, row)) + " |")
    print()
