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
    make_spark_keys,
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


def test_fetch_meters_one_get_per_distinct_key(spark, rel):
    m = Meter()
    inst = KVInstance(KV, rel, m)
    keys = make_spark_keys(spark, ("k",), [(1,), (1,), (2,)])
    out = inst.fetch(keys)
    assert out.count() == 5  # blocks of keys 1 and 2
    assert m.gets == 2  # distinct keys only
    assert m.keys_shipped == 2
    assert m.data_values == 5 * 3
    assert m.scans == 0
    # comm = keys down + block bytes back
    assert m.comm_bytes == 2 * 8 + 5 * 32


def test_fetch_missing_key_costs_a_get(spark, rel):
    m = Meter()
    inst = KVInstance(KV, rel, m)
    out = inst.fetch(make_spark_keys(spark, ("k",), [(99,)]))
    assert out.count() == 0
    assert m.gets == 1 and m.data_values == 0
    # No key: no get, nothing back.
    m.reset()
    out = inst.fetch(spark.createDataFrame([], "k long"))
    assert out.count() == 0
    assert m.gets == 0 and m.data_values == 0 and m.comm_bytes == 0
    # A null key costs a get but matches no block, not even a null one.
    null_key = spark.createDataFrame([(None,), (None,)], "k long")
    for target in (rel, _with_null_keys(spark)):
        m.reset()
        out = KVInstance(KV, target, m).fetch(null_key)
        assert out.count() == 0
        assert m.gets == 1 and m.data_values == 0


def test_fetch_rejects_wrong_key_columns(spark, rel):
    inst = KVInstance(KV, rel, Meter())
    with pytest.raises(ValueError):
        inst.fetch(make_spark_keys(spark, ("v",), [(10.0,)]))


def test_scan_meters_one_get_per_block(rel):
    """Under BaaV a scan costs one get per *block* (data locality)."""
    m = Meter()
    inst = KVInstance(KV, rel, m)
    out = inst.scan()
    assert out.count() == 6
    assert m.scans == 1
    assert m.gets == 3  # 3 blocks, not 6 tuples
    assert m.data_values == 6 * 3


def test_put_meters_block_rewrite(spark, rel):
    m = Meter()
    inst = KVInstance(KV, rel, m)
    rows = spark.createDataFrame(pd.DataFrame({"k": [1], "v": [99.0], "w": ["z"]}))
    inst.put(rows)
    assert m.puts == 1
    # a BaaV put rewrites the existing block (3 tuples) + the new one
    assert m.data_values == (3 + 1) * 3
    assert m.comm_bytes == (3 + 1) * 32
    # Two tuples for existing key 2, one for new key 7: block 2 is
    # rewritten once, a new block is written whole.
    m.reset()
    rows = spark.createDataFrame(
        pd.DataFrame({"k": [2, 2, 7], "v": [1.0, 2.0, 3.0], "w": ["x", "y", "z"]})
    )
    inst.put(rows)
    assert m.puts == 3
    assert m.data_values == (2 + 3) * 3
    assert m.comm_bytes == (2 + 3) * 32


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
    store.unpersist()


def test_baav_store_shared_meter(spark, rel):
    schema = BaaVSchema.of(KV)
    store = BaaVStore(schema, {"r": rel})
    store[KV].fetch(make_spark_keys(spark, ("k",), [(1,)]))
    store[KV].scan()
    assert store.meter.gets == 1 + 3
    store.unpersist()


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
