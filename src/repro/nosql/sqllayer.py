"""The baseline SQL-over-NoSQL evaluation path (paper §3, Fig 1a).

Upon receiving a query, the storage layer *retrieves all relations
involved in the query* (full TaaV scans — one ``get`` per tuple) and
moves them to the SQL layer, which then runs a parallel plan (Spark SQL,
broadcast joins disabled so joins shuffle, as in the real systems).

This is the un-Zidian column of every experiment: correct, but with
heavy data access and communication.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from ..core.query import Query
from .kvstore import TaaVStore


@dataclass
class BaselineResult:
    df: DataFrame
    wall_s: float
    meter: dict[str, float]


def evaluate_baseline(
    spark: SparkSession, q: Query, store: TaaVStore
) -> BaselineResult:
    """Scan every relation the query mentions, then run its SQL."""
    store.meter.reset()
    t0 = time.perf_counter()
    for rel in sorted({a.relation for a in q.atoms}):
        store.scan(rel).createOrReplaceTempView(rel)
    # Force execution for timing.
    out = spark.sql(q.to_sql()).localCheckpoint(eager=True)
    wall = time.perf_counter() - t0
    return BaselineResult(out, wall, store.meter.snapshot())
