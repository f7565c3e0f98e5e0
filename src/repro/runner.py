"""Experiment runner: build stores for a workload and run queries
through both systems (baseline SQL-over-NoSQL and Zidian).

This is the shared harness behind the tests, the experiment drivers
(``repro.experiments``) and perfbench. ``RunContext`` owns the pandas
ground truth (for the DuckDB oracle), the Spark relations, the metered
TaaV store (baseline) and the driver-side BaaV store (Zidian).
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .core.query import Query
from .nosql.kvstore import BaaVStore, TaaVStore
from .nosql.sqllayer import BaselineResult, evaluate_baseline
from .nosql.zidian import Zidian, ZidianResult
from .workloads.common import Template, Workload


@dataclass
class RunContext:
    workload: Workload
    pdfs: dict[str, pd.DataFrame]
    sdfs: dict[str, DataFrame]
    taav: TaaVStore
    store: BaaVStore
    zidian: Zidian

    def close(self) -> None:
        for df in self.sdfs.values():
            df.unpersist()


def build_context(
    spark: SparkSession, workload: Workload, *, sf: float = 0.01, seed: int = 0
) -> RunContext:
    """Materialize one workload at a scale factor: pandas ground truth,
    Spark relations, metered TaaV + BaaV stores, Zidian middleware."""
    pdfs = workload.pdfs(sf=sf, seed=seed)
    sdfs = {name: spark.createDataFrame(pdf).persist() for name, pdf in pdfs.items()}
    taav = TaaVStore(sdfs)
    store = BaaVStore(workload.baav, sdfs)
    zidian = Zidian(
        spark, workload.catalog, workload.baav, store, taav_fallback=taav
    )
    return RunContext(workload, pdfs, sdfs, taav, store, zidian)


def warm(ctx: RunContext) -> None:
    """Precompute the TaaV row counts outside timed regions (the BaaV
    block indexes are built with the store)."""
    for name in ctx.taav.relation_names():
        ctx.taav.n_rows(name)


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


def run_template_both(
    ctx: RunContext, t: Template, param: object | None = None
) -> tuple[BaselineResult, ZidianResult, Query]:
    q = t.instantiate(param)
    return run_baseline(ctx, q), run_zidian(ctx, q), q
