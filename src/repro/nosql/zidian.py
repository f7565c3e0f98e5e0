"""Zidian: the BaaV middleware (paper §5.1, Fig 1b, modules M1–M3).

- **M1** — check whether the query can be answered over the available
  BaaV store: plan generation's single-cover check (every atom of
  ``min(Q)`` fits in one KV schema), which implies result
  preservability (Condition II / Thm 3) but not the reverse. A query
  that fails it (:class:`NotAnswerable`) falls back to the plain SQL
  layer over the TaaV store.
- **M2** — generate a KBA plan, scan-free whenever the query is
  scan-free (Condition III / Thms 4–6).
- **M3** — execute the plan with interleaved data access (§7.2): the
  frontier's keys are looked up in the keyed-block store, only matching
  blocks return. The plan runs in the driver process on Arrow tables;
  the finished answer is shipped into Spark once, with the store's
  column types even when it is empty, so a Zidian result is a Spark
  DataFrame like the baseline's.

M4 (BaaV schema design) lives in ``repro.core.t2b``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from ..core import plan as planmod
from ..core.plangen import NotAnswerable, generate_plan, plan_is_bounded
from ..core.query import Query
from ..core.schema import Catalog
from .kvstore import BaaVStore, TaaVStore
from .sqllayer import evaluate_baseline

# The degree bound c of a bounded plan (§6.2): every fetched instance
# has blocks of at most c tuples.
BOUND_C = 50


@dataclass
class ZidianResult:
    df: DataFrame
    wall_s: float  # the whole ``answer`` call: plan, bound check, execute, ship
    meter: dict[str, float]
    scan_free: bool
    bounded: bool
    fallback: bool  # answered by the plain SQL layer (M1 reject)
    plan: planmod.KBAPlan | None


class Zidian:
    """Middleware instance bound to one catalog and BaaV store, falling
    back to the SQL layer over the TaaV store ``taav``."""

    def __init__(
        self, spark: SparkSession, catalog: Catalog, store: BaaVStore, taav: TaaVStore
    ) -> None:
        store.schema.validate_against(catalog)
        self.spark = spark
        self.catalog = catalog
        self.store = store
        self.taav = taav

    # -- M1 + M2 -----------------------------------------------------
    def plan(self, q: Query) -> planmod.KBAPlan:
        return generate_plan(q, self.catalog, self.store.schema)

    def degrees(self) -> dict:
        return {kv: inst.degree for kv, inst in self.store.instances.items()}

    # -- M3 ----------------------------------------------------------
    def answer(self, q: Query) -> ZidianResult:
        """Answer ``q`` over the BaaV store; metered, and timed from
        planning to the answer's arrival in Spark."""
        t0 = time.perf_counter()
        try:
            p = self.plan(q)
        except NotAnswerable:
            base = evaluate_baseline(self.spark, q, self.taav)
            wall = time.perf_counter() - t0
            return ZidianResult(base.df, wall, base.meter, False, False, True, None)
        bounded = plan_is_bounded(p, self.degrees(), BOUND_C)
        self.store.meter.reset()
        ans = planmod.execute(p, self.store)
        out = self.spark.createDataFrame(ans)
        wall = time.perf_counter() - t0
        meter = self.store.meter.snapshot()
        return ZidianResult(out, wall, meter, p.scan_free, bounded, False, p)
