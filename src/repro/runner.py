"""Experiment runner: build stores for a workload and run queries
through both systems (baseline SQL-over-NoSQL and Zidian).

This is the shared harness behind the tests, the experiment drivers
(``repro.experiments``) and perfbench. ``RunContext`` owns the pandas
ground truth (for the DuckDB oracle) and the two stores built from it:
the metered TaaV store, whose relations are persisted in Spark
(baseline), and the driver-side BaaV store (Zidian).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .core.query import Query
from .nosql.kvstore import BaaVStore, TaaVStore
from .nosql.sqllayer import BaselineResult, evaluate_baseline
from .nosql.zidian import Zidian, ZidianResult
from .workloads.common import Workload


@dataclass
class RunContext:
    workload: Workload
    pdfs: dict[str, pd.DataFrame]
    taav: TaaVStore
    store: BaaVStore
    zidian: Zidian

    def close(self) -> None:
        self.taav.close()


def build_context(
    spark: SparkSession, workload: Workload, *, sf: float = 0.01, seed: int = 0
) -> RunContext:
    """Materialize one workload at a scale factor: pandas ground truth,
    metered TaaV + BaaV stores built from it, Zidian middleware."""
    pdfs = workload.pdfs(sf=sf, seed=seed)
    taav = TaaVStore(spark, pdfs)
    store = BaaVStore(workload.baav, pdfs)
    zidian = Zidian(spark, workload.catalog, store, taav)
    return RunContext(workload, pdfs, taav, store, zidian)


def warm(ctx: RunContext) -> None:
    """Materialize the persisted TaaV relations outside timed regions:
    one ``count()`` job per relation (the BaaV block indexes are built
    with the store)."""
    for df in ctx.taav.dfs.values():
        df.count()


def run_baseline(ctx: RunContext, q: Query) -> BaselineResult:
    return evaluate_baseline(ctx.zidian.spark, q, ctx.taav)


def run_zidian(ctx: RunContext, q: Query) -> ZidianResult:
    return ctx.zidian.answer(q)


def oracle_check(ctx: RunContext, q: Query, df: DataFrame) -> None:
    """Assert a result DataFrame matches DuckDB over the pandas ground
    truth (repro.oracle)."""
    from .oracle import assert_equivalent

    tables = {a.relation: ctx.pdfs[a.relation] for a in q.atoms}
    assert_equivalent(df, q.to_sql(), **tables)

