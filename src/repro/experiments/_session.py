"""Session, measurement and printing helpers for the experiment drivers."""
from __future__ import annotations

import statistics

import pandas as pd
from pyspark.sql import SparkSession

from ..core.query import Query
from ..nosql.backends import BACKENDS
from ..nosql.kvstore import Meter
from ..runner import RunContext, run_baseline, run_zidian

REPEATS = 3  # timed runs per query and system, after one untimed warm-up
WORKERS = 8  # storage parallelism of Tables 2 and 3: the paper's 8 workers

STORAGE = [f"{b.name}_storage_s" for b in BACKENDS]


def get_session(name: str) -> SparkSession:
    """Build (or reuse) a ``local[*]`` session mirroring conftest.py
    settings. The 4 GB driver heap applies when this call starts the JVM."""
    spark = (
        SparkSession.builder.appName(f"repro-{name}")
        .master("local[*]")
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


def measure(ctx: RunContext, q: Query, p: int) -> pd.DataFrame:
    """One row per system (baseline, then Zidian) for ``q``: the median
    measured ``wall_s`` of ``REPEATS`` runs after one untimed warm-up
    run, so that no timed run pays for Spark's code generation; per
    backend, the modelled storage time of the metered accesses at
    storage parallelism ``p`` (DESIGN.md §5; never added to the wall);
    and the exact meter and plan flags. The baseline scans every
    relation, so its flags are all false. Raises if a meter snapshot
    differs between repeats."""
    rows = []
    for system, run in (("baseline", run_baseline), ("Zidian", run_zidian)):
        run(ctx, q)
        results = [run(ctx, q) for _ in range(REPEATS)]
        snap = results[0].meter
        if any(r.meter != snap for r in results[1:]):
            raise RuntimeError(f"{system} meter differs between repeats of {q.to_sql()}")
        m = Meter(**snap)
        rows.append(
            {"system": system, "wall_s": statistics.median(r.wall_s for r in results)}
            | {s: b.storage_time(m, p) for s, b in zip(STORAGE, BACKENDS)}
            | {"n_data": m.data_values, "n_get": m.gets, "comm_B": m.comm_bytes, "scans": m.scans}
            | {f: getattr(results[0], f, False) for f in ("scan_free", "bounded", "fallback")}
        )
    return pd.DataFrame(rows)


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
