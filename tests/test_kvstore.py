"""Tests for the metered KV substrate (nosql.kvstore; DESIGN.md §5)."""
import pandas as pd
import pytest
from pyspark.sql import types as T

from repro.core.schema import BaaVSchema, KVSchema
from repro.nosql.kvstore import (
    BaaVStore,
    KVInstance,
    Meter,
    TaaVStore,
    col_width,
    row_width,
)

KV = KVSchema("r", ("k",), ("v", "w"))


@pytest.fixture(scope="module")
def rel(spark):
    pdf = pd.DataFrame(
        {
            "k": [1, 1, 1, 2, 2, 3],
            "v": [10.0, 11.0, 12.0, 20.0, 21.0, 30.0],
            "w": ["a", "a", "b", "c", "c", "d"],
        }
    )
    return spark.createDataFrame(pdf).persist()


def test_col_width_by_type():
    assert col_width(T.StringType()) == 16.0
    assert col_width(T.DoubleType()) == 8.0
    assert col_width(T.DateType()) == 8.0


def test_row_width(rel):
    assert row_width(rel) == 8 + 8 + 16
    assert row_width(rel, ["k"]) == 8


def test_meter_reset_and_snapshot():
    m = Meter(gets=5, comm_bytes=3.0)
    snap = m.snapshot()
    assert snap["gets"] == 5 and snap["comm_bytes"] == 3.0
    m.reset()
    assert m.gets == 0 and m.comm_bytes == 0.0


def test_instance_stats(spark, rel):
    inst = KVInstance(KV, rel, Meter())
    assert inst.block_sizes == {(1,): 3, (2,): 2, (3,): 1}
    assert inst.n_rows == 6
    assert inst.n_keys == 3
    assert inst.degree == 3
    assert inst.size_bytes == 6 * 32
    # The null key is one block like any other.
    inst = KVInstance(KV, _with_null_keys(spark), Meter())
    assert inst.block_sizes == {(1,): 1, (None,): 2}
    assert (inst.n_rows, inst.n_keys, inst.degree) == (3, 2, 2)


def _with_null_keys(spark):
    return spark.createDataFrame(
        [(1, 10.0, "a"), (None, 11.0, "b"), (None, 12.0, "c")],
        "k long, v double, w string",
    )


def _keys(spark, rows: list[tuple], schema: str = "k long"):
    """The same keys as a Spark frame (the form perfbench passes) and as
    a pandas frame (the form the plan executor passes)."""
    sdf = spark.createDataFrame(rows, schema)
    return sdf, sdf.toPandas()


def _n_rows(out) -> int:
    return len(out) if isinstance(out, pd.DataFrame) else out.count()


def test_fetch_meters_one_get_per_distinct_key(spark, rel):
    for keys in _keys(spark, [(1,), (1,), (2,)]):
        m = Meter()
        inst = KVInstance(KV, rel, m)
        out = inst.fetch(keys)
        assert type(out) is type(keys)
        assert _n_rows(out) == 5  # blocks of keys 1 and 2
        assert m.gets == 2  # distinct keys only
        assert m.keys_shipped == 2
        assert m.data_values == 5 * 3
        assert m.scans == 0
        # comm = keys down + block bytes back
        assert m.comm_bytes == 2 * 8 + 5 * 32


def test_fetch_returns_whole_blocks(spark, rel):
    """A multi-get returns every tuple of each block asked for, in any
    key order, with the instance's columns."""
    inst = KVInstance(KV, rel, Meter())
    sdf, pdf = _keys(spark, [(3,), (1,)])
    out = inst.fetch(pdf)
    assert list(out.columns) == ["k", "v", "w"]
    assert sorted(out.itertuples(index=False, name=None)) == [
        (1, 10.0, "a"), (1, 11.0, "a"), (1, 12.0, "b"), (3, 30.0, "d"),
    ]
    spark_out = inst.fetch(sdf)
    assert spark_out.schema == inst.df.schema
    assert sorted(map(tuple, spark_out.collect())) == sorted(
        out.itertuples(index=False, name=None)
    )


def test_fetch_missing_key_costs_a_get(spark, rel):
    for keys in _keys(spark, [(99,)]):
        m = Meter()
        out = KVInstance(KV, rel, m).fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 1 and m.data_values == 0
    # No key: no get, nothing back.
    for keys in _keys(spark, []):
        m = Meter()
        out = KVInstance(KV, rel, m).fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 0 and m.data_values == 0 and m.comm_bytes == 0
    # A null key costs a get but matches no block, not even a null one.
    for keys in _keys(spark, [(None,), (None,)]):
        for target in (rel, _with_null_keys(spark)):
            m = Meter()
            out = KVInstance(KV, target, m).fetch(keys)
            assert _n_rows(out) == 0
            assert m.gets == 1 and m.data_values == 0
    # Beside a present key, a null key still costs its get.
    for keys in _keys(spark, [(None,), (2,)]):
        m = Meter()
        out = KVInstance(KV, _with_null_keys(spark), m).fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 2 and m.data_values == 0
    for keys in _keys(spark, [(None,), (1,)]):
        m = Meter()
        out = KVInstance(KV, _with_null_keys(spark), m).fetch(keys)
        assert _n_rows(out) == 1
        assert m.gets == 2 and m.data_values == 3


def test_fetch_multi_column_key(spark, rel):
    """A composite key is looked up as a whole: (k, w) = (1, 'a') is
    one block of two tuples."""
    kv = KVSchema("r", ("k", "w"), ("v",))
    for keys in _keys(spark, [(1, "a"), (1, "z"), (None, "a")], "k long, w string"):
        m = Meter()
        out = KVInstance(kv, rel, m).fetch(keys)
        assert _n_rows(out) == 2
        assert m.gets == 3 and m.data_values == 2 * 3


def test_fetch_rejects_wrong_key_columns(spark, rel):
    inst = KVInstance(KV, rel, Meter())
    for keys in _keys(spark, [(10.0,)], "v double"):
        with pytest.raises(ValueError):
            inst.fetch(keys)


def test_scan_meters_one_get_per_block(rel):
    """Under BaaV a scan costs one get per *block* (data locality)."""
    m = Meter()
    inst = KVInstance(KV, rel, m)
    out = inst.scan()
    assert len(out) == 6
    assert m.scans == 1
    assert m.gets == 3  # 3 blocks, not 6 tuples
    assert m.data_values == 6 * 3


def test_put_meters_block_rewrite(spark, rel):
    one = pd.DataFrame({"k": [1], "v": [99.0], "w": ["z"]})
    for rows in (spark.createDataFrame(one), one):
        m = Meter()
        inst = KVInstance(KV, rel, m)
        inst.put(rows)
        assert m.puts == 1
        # a BaaV put rewrites the existing block (3 tuples) + the new one
        assert m.data_values == (3 + 1) * 3
        assert m.comm_bytes == (3 + 1) * 32
    # Two tuples for existing key 2, one for new key 7: block 2 is
    # rewritten once, a new block is written whole.
    three = pd.DataFrame({"k": [2, 2, 7], "v": [1.0, 2.0, 3.0], "w": ["x", "y", "z"]})
    for rows in (spark.createDataFrame(three), three):
        m = Meter()
        KVInstance(KV, rel, m).put(rows)
        assert m.puts == 3
        assert m.data_values == (2 + 3) * 3
        assert m.comm_bytes == (2 + 3) * 32
    # A tuple with a null key is a new block: nothing is rewritten.
    null = pd.DataFrame({"k": [None], "v": [1.0], "w": ["x"]})
    m = Meter()
    KVInstance(KV, _with_null_keys(spark), m).put(null)
    assert m.puts == 1 and m.data_values == 1 * 3
    # An empty batch writes nothing.
    m = Meter()
    KVInstance(KV, rel, m).put(one.iloc[:0])
    assert m.snapshot() == Meter().snapshot()


def test_taav_scan_costs_one_get_per_tuple(rel):
    """Under TaaV a scan costs |R| gets (paper §3) — the baseline's
    fundamental handicap."""
    store = TaaVStore({"r": rel})
    out = store.scan("r")
    assert out.count() == 6
    assert store.meter.gets == 6
    assert store.meter.scans == 1
    assert store.meter.data_values == 18


def test_baav_store_builds_all_instances(rel):
    schema = BaaVSchema.of(KV, KVSchema("r", ("w",), ("k", "v")))
    store = BaaVStore(schema, {"r": rel})
    assert len(store.instances) == 2
    assert store.degree == 3  # max over instances


def test_baav_store_shared_meter(spark, rel):
    schema = BaaVSchema.of(KV)
    store = BaaVStore(schema, {"r": rel})
    store[KV].fetch(pd.DataFrame({"k": [1]}))
    store[KV].scan()
    assert store.meter.gets == 1 + 3


def test_baav_store_missing_relation():
    with pytest.raises(ValueError):
        BaaVStore(BaaVSchema.of(KV), {})


def test_baav_scan_vs_taav_scan_get_ratio(rel):
    """The BaaV get saving on scans = average block size."""
    taav = TaaVStore({"r": rel})
    taav.scan("r")
    m = Meter()
    inst = KVInstance(KV, rel, m)
    inst.scan()
    assert taav.meter.gets / m.gets == 2.0  # 6 tuples / 3 blocks
