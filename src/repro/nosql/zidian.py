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
  blocks return. The plan runs in the driver process; the finished
  answer is shipped into Spark once, so a Zidian result is a Spark
  DataFrame like the baseline's.

M4 (BaaV schema design) lives in ``repro.core.t2b``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from ..core import plan as planmod
from ..core.plangen import NotAnswerable, generate_plan, plan_is_bounded
from ..core.query import GroupByQuery, Query, attr_name
from ..core.schema import Attr, Catalog
from .kvstore import BaaVStore, TaaVStore, to_spark
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
        out = to_spark(self.spark, ans, self._typed_schema(q, ans))
        wall = time.perf_counter() - t0
        meter = self.store.meter.snapshot()
        return ZidianResult(out, wall, meter, p.scan_free, bounded, False, p)

    def _typed_schema(self, q: Query, ans: pd.DataFrame) -> pa.Schema | None:
        """None if Arrow types no column of ``ans`` as ``null``; else the
        answer's Arrow schema with each such column (an empty answer's
        strings, say) typed as the store column its values come from."""
        null = {c for c, col in ans.items() if col.dtype == object and col.isna().all()}
        if not null:
            return None
        relation = {a.alias: a.relation for a in q.atoms}
        types = {(kv.relation, c): inst.arrow.field(c).type
                 for kv, inst in self.store.instances.items() for c in kv.columns}
        schema = pa.Schema.from_pandas(ans, preserve_index=False)
        for c, (alias, col) in _source_attrs(q).items():
            if c in null:
                i = schema.get_field_index(c)
                schema = schema.set(i, pa.field(c, types[relation[alias], col]))
        return schema


def _source_attrs(q: Query) -> dict[str, Attr]:
    """Answer column -> the query attribute whose values it holds: a
    projected or grouped attribute, or the argument of a min/max."""
    if not isinstance(q, GroupByQuery):
        return {attr_name(a): a for a in q.projection}
    out = {attr_name(a): a for a in q.group_by}
    return out | {g.alias: g.attr for g in q.aggs if g.func in ("min", "max") and g.expr is None}
