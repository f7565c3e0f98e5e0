"""BaaV mapping: relational DataFrames ↔ keyed-block KV instances.

The *mapping* of a database ``D`` on a BaaV schema ``~R`` (paper §4.1)
projects each relation instance on ``XY`` and groups by ``X``; the
store's form of it, with its block index, is ``nosql.kvstore.KVInstance``.
These are the paper's §8.2 block operations over a Spark relational
version (key columns first): explicit blocks (:func:`blocks`), block
splitting, the counter representation of set-blocks (:func:`compress`),
per-block statistics and incremental maintenance. Per DESIGN.md they
keep *bag* semantics so SQL bag results round-trip.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .schema import KVSchema


def blocks(df: DataFrame, kv: KVSchema) -> DataFrame:
    """Materialize keyed blocks: one row per key with ``block`` =
    array<struct<value cols>> (the paper's physical realization §8.2:
    the block is a single value)."""
    return df.groupBy(*kv.key).agg(
        F.collect_list(F.struct(*[F.col(c) for c in kv.value])).alias("block")
    )


def split_blocks(df: DataFrame, kv: KVSchema, threshold: int) -> DataFrame:
    """Split oversized blocks into segments of at most ``threshold``
    tuples, appending an internal ``__segment`` id to the key (§8.2:
    decomposed blocks share X-values with distinct ID segments and
    logically appear as one block)."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    w = Window.partitionBy(*[F.col(c) for c in kv.key]).orderBy(
        *[F.col(c) for c in kv.value] or [F.lit(1)]
    )
    return df.withColumn(
        "__segment",
        ((F.row_number().over(w) - F.lit(1)) / F.lit(threshold)).cast("long"),
    )


def unsplit_blocks(df: DataFrame) -> DataFrame:
    """Drop the internal segment id — the logical keyed-block view."""
    return df.drop("__segment")


def compress(df: DataFrame, kv: KVSchema) -> DataFrame:
    """§8.2 compression: distinct value-tuples per key + a multiplicity
    counter ``__mult``."""
    return df.groupBy(*kv.columns).agg(F.count(F.lit(1)).alias("__mult"))


def decompress(df: DataFrame, kv: KVSchema) -> DataFrame:
    """Inverse of :func:`compress` (restores the bag)."""
    return (
        df.withColumn("__rep", F.expr("sequence(1, __mult)"))
        .withColumn("__x", F.explode("__rep"))
        .select(*kv.columns)
    )


def block_stats(df: DataFrame, kv: KVSchema, numeric_cols: list[str]) -> DataFrame:
    """§8.2 per-block statistics: count plus min/max/sum/avg of numeric
    value attributes, grouped by the block key. Zidian uses these to
    answer aggregates grouped by ``X`` without touching the blocks."""
    aggs = [F.count(F.lit(1)).alias("__count")]
    for c in numeric_cols:
        if c not in kv.value:
            raise ValueError(f"{c} is not a value attribute of {kv.name}")
        aggs += [
            F.min(c).alias(f"{c}__min"),
            F.max(c).alias(f"{c}__max"),
            F.sum(c).alias(f"{c}__sum"),
            F.avg(c).alias(f"{c}__avg"),
        ]
    return df.groupBy(*kv.key).agg(*aggs)


def apply_updates(
    df: DataFrame,
    kv: KVSchema,
    inserts: DataFrame | None = None,
    deletes: DataFrame | None = None,
) -> DataFrame:
    """Incremental maintenance of a KV instance under tuple updates Δ
    (paper §8.2: ``O(|Δ| · deg(~D))`` work — here only the touched keys'
    blocks are rewritten; untouched blocks pass through).

    ``inserts``/``deletes`` are relational tuples over ``kv.columns``.
    Deletes remove one matching occurrence per delete tuple (bag
    semantics).
    """
    out = df
    if deletes is not None:
        d = deletes.select(*kv.columns)
        # Bag difference via per-tuple occurrence numbering.
        w = Window.partitionBy(*[F.col(c) for c in kv.columns]).orderBy(F.lit(1))
        lhs = out.withColumn("__occ", F.row_number().over(w))
        cnt = d.groupBy(*kv.columns).agg(F.count(F.lit(1)).alias("__del"))
        out = (
            lhs.join(cnt, on=list(kv.columns), how="left")
            .where(F.col("__del").isNull() | (F.col("__occ") > F.col("__del")))
            .select(*kv.columns)
        )
    if inserts is not None:
        out = out.unionByName(inserts.select(*kv.columns))
    return out
