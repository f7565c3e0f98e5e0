"""Tests for the metered KV substrate (nosql.kvstore; DESIGN.md §5) and
the mapping of a relation on a KV schema (paper §4.1).

The stores are built from pandas frames, and a KV instance holds an
Arrow table, so only the tests of the Spark boundary (``fetch``/``put``
with Spark frames, the TaaV store) start a JVM.
"""
import datetime as dt
import os
import pathlib
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.core.schema import BaaVSchema, KVSchema
from repro.nosql.kvstore import (
    BaaVStore,
    KVInstance,
    Meter,
    TaaVStore,
    col_width,
    row_width,
)
from repro.workloads import mot

KV = KVSchema("r", ("k",), ("v", "w"))


REL = pd.DataFrame(
    {
        "k": [1, 1, 1, 2, 2, 3],
        "v": [10.0, 11.0, 12.0, 20.0, 21.0, 30.0],
        "w": ["a", "a", "b", "c", "c", "d"],
    }
)
# The null key is one block like any other.
NULL_KEYS = pd.DataFrame(
    {"k": pd.array([1, None, None], dtype="Int64"), "v": [10.0, 11.0, 12.0], "w": ["a", "b", "c"]}
)


def _arrow(pdf: pd.DataFrame) -> pa.Table:
    return pa.Table.from_pandas(pdf, preserve_index=False)


def _rows(table: pa.Table) -> list[tuple]:
    return list(zip(*table.to_pydict().values()))


def test_col_width_by_type():
    assert col_width(pa.string()) == 16.0
    assert col_width(pa.int64()) == 8.0
    assert col_width(pa.float64()) == 8.0
    assert col_width(pa.date32()) == 8.0
    assert col_width(pa.timestamp("ns")) == 8.0


def test_row_width():
    assert row_width(_arrow(REL).schema) == 8 + 8 + 16
    assert row_width(_arrow(REL).schema, ["k"]) == 8
    # A date column is stored as ``object`` like a string column, but
    # only the string is charged 16 bytes.
    ev = _arrow(pd.DataFrame({"d": [dt.date(2020, 1, 1), None], "s": ["x", "y"]})).schema
    assert row_width(ev, ["d"]) == 8
    assert row_width(ev) == 8 + 16


def test_meter_reset_and_snapshot():
    m = Meter(gets=5, comm_bytes=3.0)
    snap = m.snapshot()
    assert snap["gets"] == 5 and snap["comm_bytes"] == 3.0
    m.reset()
    assert m.gets == 0 and m.comm_bytes == 0.0


def test_map_relation_projects_key_first():
    out = KVInstance(KV, _arrow(REL[["w", "v", "k"]].assign(extra=0)), Meter())
    assert out.table.column_names == ["k", "v", "w"]
    assert out.n_rows == 6  # bag semantics: no dedup


def test_map_relation_keeps_duplicates():
    out = KVInstance(KV, pa.table({"k": [1, 1], "v": [5, 5], "w": ["x", "x"]}), Meter())
    assert out.n_rows == 2 and out.block_sizes == {(1,): 2}


def test_degree():
    """deg(~D) is the largest block size."""
    assert KVInstance(KV, _arrow(REL), Meter()).degree == 3


def test_degree_empty():
    out = KVInstance(KV, _arrow(REL.iloc[:0]), Meter())
    assert out.block_sizes == {}
    assert (out.degree, out.n_keys, out.n_rows) == (0, 0, 0)


def test_block_sizes():
    assert KVInstance(KV, _arrow(REL), Meter()).block_sizes == {(1,): 3, (2,): 2, (3,): 1}


def test_instance_stats():
    inst = KVInstance(KV, _arrow(REL), Meter())
    assert inst.block_sizes == {(1,): 3, (2,): 2, (3,): 1}
    assert inst.n_rows == 6
    assert inst.n_keys == 3
    assert inst.degree == 3
    assert inst.size_bytes == 6 * 32
    inst = KVInstance(KV, _arrow(NULL_KEYS), Meter())
    assert inst.block_sizes == {(1,): 1, (None,): 2}
    assert (inst.n_rows, inst.n_keys, inst.degree) == (3, 2, 2)


def test_instance_copies_its_relation():
    """The store sorts a copy: the caller's frame (the oracle's ground
    truth) is never aliased or reordered."""
    pdf = REL.iloc[::-1].reset_index(drop=True)
    before = pdf.copy()
    inst = BaaVStore(BaaVSchema.of(KV), {"r": pdf})[KV]
    assert inst.table["k"].to_pylist() == [1, 1, 1, 2, 2, 3]
    pd.testing.assert_frame_equal(pdf, before)
    pdf.loc[0, "v"] = -1.0
    assert -1.0 not in inst.table["v"].to_pylist()


def test_baav_store_builds_without_spark():
    """Building the BaaV store needs no SparkSession: in a fresh
    interpreter every MOT instance is built and no JVM starts."""
    code = (
        "from pyspark import SparkContext\n"
        "from repro.nosql.kvstore import BaaVStore\n"
        "from repro.workloads import mot\n"
        "store = BaaVStore(mot.WORKLOAD.baav, mot.WORKLOAD.pdfs(sf=0.001))\n"
        "assert len(store.instances) == len(mot.WORKLOAD.baav) > 0\n"
        "assert SparkContext._gateway is None\n"
    )
    src = str(pathlib.Path(repro.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


_ARROW_TYPES = {"long": pa.int64(), "double": pa.float64(), "string": pa.string()}


def _keys(rows: list[tuple], schema: str = "k long", spark=None) -> list:
    """The keys as an Arrow table (the form the plan executor passes)
    and, given a session, as a Spark frame too (the form perfbench
    passes)."""
    fields = [c.split() for c in schema.split(",")]
    arrow = pa.schema([(name, _ARROW_TYPES[t]) for name, t in fields])
    forms = [pa.Table.from_pylist([dict(zip(arrow.names, r)) for r in rows], arrow)]
    if spark is not None:
        forms.append(spark.createDataFrame(rows, schema))
    return forms


def _n_rows(out) -> int:
    return out.num_rows if isinstance(out, pa.Table) else out.count()


def test_fetch_meters_one_get_per_distinct_key(spark):
    for keys in _keys([(1,), (1,), (2,)], spark=spark):
        m = Meter()
        inst = KVInstance(KV, _arrow(REL), m)
        out = inst.fetch(keys)
        assert type(out) is type(keys)
        assert _n_rows(out) == 5  # blocks of keys 1 and 2
        assert m.gets == 2  # distinct keys only
        assert m.keys_shipped == 2
        assert m.data_values == 5 * 3
        assert m.scans == 0
        # comm = keys down + block bytes back
        assert m.comm_bytes == 2 * 8 + 5 * 32


@pytest.mark.parametrize(
    "kv, rel, keys, expected",
    [
        (KV, REL, ([(3,), (1,)], "k long"),
         [(1, 10.0, "a"), (1, 11.0, "a"), (1, 12.0, "b"), (3, 30.0, "d")]),
        # String keys stored out of order: the block index follows the
        # instance's sort, which a group-by's key order need not match.
        (KVSchema("r", ("w",), ("k", "v")), REL.iloc[[5, 2, 3, 0, 4, 1]],
         ([("c",), ("a",)], "w string"),
         [("a", 1, 10.0), ("a", 1, 11.0), ("c", 2, 20.0), ("c", 2, 21.0)]),
    ],
    ids=["int_key", "string_key"],
)
def test_fetch_returns_whole_blocks(spark, kv, rel, keys, expected):
    """A multi-get returns every tuple of each block asked for, in any
    key order, with the instance's columns."""
    inst = KVInstance(kv, _arrow(rel), Meter())
    table, sdf = _keys(*keys, spark=spark)
    out = inst.fetch(table)
    assert out.column_names == list(kv.columns)
    assert sorted(_rows(out)) == expected
    spark_out = inst.fetch(sdf)
    assert spark_out.schema == inst.df.schema
    assert sorted(map(tuple, spark_out.collect())) == expected


def test_fetch_missing_key_costs_a_get(spark):
    for keys in _keys([(99,)], spark=spark):
        m = Meter()
        inst = KVInstance(KV, _arrow(REL), m)
        out = inst.fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 1 and m.data_values == 0
        if not isinstance(out, pa.Table):  # the instance's types, not void ones
            assert out.schema == inst.df.schema
    # No key: no get, nothing back.
    for keys in _keys([], spark=spark):
        m = Meter()
        inst = KVInstance(KV, _arrow(REL), m)
        out = inst.fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 0 and m.data_values == 0 and m.comm_bytes == 0
        if not isinstance(out, pa.Table):
            assert out.schema == inst.df.schema
    # A null key costs a get but matches no block, not even a null one.
    for keys in _keys([(None,), (None,)], spark=spark):
        for target in (REL, NULL_KEYS):
            m = Meter()
            out = KVInstance(KV, _arrow(target), m).fetch(keys)
            assert _n_rows(out) == 0
            assert m.gets == 1 and m.data_values == 0
    # Beside a present key, a null key still costs its get.
    for keys in _keys([(None,), (2,)], spark=spark):
        m = Meter()
        out = KVInstance(KV, _arrow(NULL_KEYS), m).fetch(keys)
        assert _n_rows(out) == 0
        assert m.gets == 2 and m.data_values == 0
    for keys in _keys([(None,), (1,)], spark=spark):
        m = Meter()
        out = KVInstance(KV, _arrow(NULL_KEYS), m).fetch(keys)
        assert _n_rows(out) == 1
        assert m.gets == 2 and m.data_values == 3


def test_fetch_multi_column_key():
    """A composite key is looked up as a whole: (k, w) = (1, 'a') is
    one block of two tuples. A stored (1, None) sorts between (1, 'b')
    and (2, 'c') and changes nothing."""
    kv = KVSchema("r", ("k", "w"), ("v",))
    (keys,) = _keys([(1, "a"), (1, "z"), (None, "a")], "k long, w string")
    for rel in (REL, pd.concat([REL, pd.DataFrame({"k": [1], "v": [13.0], "w": [None]})])):
        m = Meter()
        out = KVInstance(kv, _arrow(rel), m).fetch(keys)
        assert _n_rows(out) == 2
        assert m.gets == 3 and m.data_values == 2 * 3


# -- differential check of get against a brute-force filter ----------

# Stored ints lie in 0..5 and stored strings are at most two letters, so
# probes also sort before, between and after them, or are longer.
_KEY_TYPES = {
    "int": (pa.int64(), st.integers(0, 5), st.integers(-2, 8)),
    "str": (pa.string(), st.text("bd", max_size=2), st.text("abcde", max_size=4)),
}
_KEY_SHAPES = {"int": ("int",), "str": ("str",), "int_str": ("int", "str")}


@st.composite
def _instances(draw):
    """A small relation keyed on int, string or composite keys whose parts
    may be null, a batch of probe keys and a batch of written rows."""
    shape = _KEY_SHAPES[draw(st.sampled_from(sorted(_KEY_SHAPES)))]
    names = [f"k{i}" for i in range(len(shape))]
    stored = st.tuples(*(st.none() | _KEY_TYPES[t][1] for t in shape))
    keys = draw(st.lists(stored, max_size=12))
    probe = st.tuples(*(st.none() | _KEY_TYPES[t][1] | _KEY_TYPES[t][2] for t in shape))
    probes = draw(st.lists(st.sampled_from(keys) | probe if keys else probe, max_size=8))
    written = draw(st.lists(st.sampled_from(keys) | probe if keys else probe, max_size=4))
    schema = pa.schema([(n, _KEY_TYPES[t][0]) for n, t in zip(names, shape)])
    return KVSchema("r", tuple(names), ("v",)), schema, keys, probes, written


def _table(schema: pa.Schema, keys: list[tuple], with_value: bool) -> pa.Table:
    cols = dict(zip(schema.names, zip(*keys))) if keys else {n: [] for n in schema.names}
    table = pa.table(cols, schema)
    return table.append_column("v", pa.array(range(len(keys)), pa.int64())) if with_value else table


# 3,000 rows over about 1,000 string keys: enough that a group-by's output
# is not in key order, so the block index must be sorted like the rows.
_LARGE = (
    KVSchema("r", ("k0",), ("v",)),
    pa.schema([("k0", pa.string())]),
    [(f"{i:03d}",) for i in np.random.default_rng(0).integers(0, 1000, 3000)],
    [("000",), ("123",), ("500",), ("999",), ("5",), ("zzz",), (None,)],
    [("500",), ("xyz",)],
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_instances())
@example(_LARGE)
def test_get_matches_brute_force(case):
    """``fetch``, ``put``, the meters and the size stats of a KV instance
    agree with a plain Python filter over the relation sorted on its key
    (nulls last), for absent, out-of-range, longer and null probes."""
    kv, schema, keys, probes, written = case
    m = Meter()
    inst = KVInstance(kv, _table(schema, keys, True), m)
    rows = sorted(  # the table order: stable, each key part nulls last
        ((*k, v) for v, k in enumerate(keys)),
        key=lambda r: [(p is None, p) for p in r[: len(schema)]],
    )
    assert _rows(inst.table) == rows
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    assert inst.block_sizes == counts
    assert (inst.n_keys, inst.degree) == (len(counts), max(counts.values(), default=0))
    key_w = row_width(schema)
    row_w = key_w + 8

    wanted = {p for p in probes if None not in p}
    expected = [r for r in rows if r[: len(schema)] in wanted]
    assert _rows(inst.fetch(_table(schema, probes, False))) == expected
    n = len(set(probes))
    assert (m.gets, m.keys_shipped) == (n, n)
    assert m.data_values == len(expected) * len(kv.columns)
    assert m.comm_bytes == n * key_w + len(expected) * row_w

    m.reset()
    inst.put(_table(schema, written, True))
    touched = sum(counts.get(k, 0) for k in {w for w in written if None not in w})
    assert m.puts == len(written)
    assert m.data_values == (touched + len(written)) * len(kv.columns)
    assert m.comm_bytes == (touched + len(written)) * row_w


def test_fetch_rejects_wrong_key_columns(spark):
    inst = KVInstance(KV, _arrow(REL), Meter())
    for keys in _keys([(10.0,)], "v double", spark=spark):
        with pytest.raises(ValueError):
            inst.fetch(keys)


def test_scan_meters_one_get_per_block():
    """Under BaaV a scan costs one get per *block* (data locality)."""
    m = Meter()
    inst = KVInstance(KV, _arrow(REL), m)
    out = inst.scan()
    assert out.num_rows == 6
    assert m.scans == 1
    assert m.gets == 3  # 3 blocks, not 6 tuples
    assert m.data_values == 6 * 3


def test_put_meters_block_rewrite(spark):
    one = pd.DataFrame({"k": [1], "v": [99.0], "w": ["z"]})
    for rows in (spark.createDataFrame(one), _arrow(one)):
        m = Meter()
        inst = KVInstance(KV, _arrow(REL), m)
        inst.put(rows)
        assert m.puts == 1
        # a BaaV put rewrites the existing block (3 tuples) + the new one
        assert m.data_values == (3 + 1) * 3
        assert m.comm_bytes == (3 + 1) * 32
    # Two tuples for existing key 2, one for new key 7: block 2 is
    # rewritten once, a new block is written whole.
    three = pd.DataFrame({"k": [2, 2, 7], "v": [1.0, 2.0, 3.0], "w": ["x", "y", "z"]})
    for rows in (spark.createDataFrame(three), _arrow(three)):
        m = Meter()
        KVInstance(KV, _arrow(REL), m).put(rows)
        assert m.puts == 3
        assert m.data_values == (2 + 3) * 3
        assert m.comm_bytes == (2 + 3) * 32
    # A tuple with a null key is a new block: nothing is rewritten.
    null = pd.DataFrame({"k": [None], "v": [1.0], "w": ["x"]})
    m = Meter()
    KVInstance(KV, _arrow(NULL_KEYS), m).put(_arrow(null))
    assert m.puts == 1 and m.data_values == 1 * 3
    # An empty batch writes nothing.
    m = Meter()
    KVInstance(KV, _arrow(REL), m).put(_arrow(one.iloc[:0]))
    assert m.snapshot() == Meter().snapshot()


def test_taav_scan_costs_one_get_per_tuple(spark):
    """Under TaaV a scan costs |R| gets (paper §3) — the baseline's
    fundamental handicap."""
    store = TaaVStore(spark, {"r": REL})
    out = store.scan("r")
    assert out.count() == 6
    assert store.meter.gets == 6
    assert store.meter.scans == 1
    assert store.meter.data_values == 18
    assert store.meter.comm_bytes == 6 * (8 + 8 + 16)
    store.close()
    assert not out.is_cached


def test_baav_store_builds_all_instances():
    schema = BaaVSchema.of(KV, KVSchema("r", ("w",), ("k", "v")))
    store = BaaVStore(schema, {"r": REL})
    assert len(store.instances) == 2
    assert max(inst.degree for inst in store.instances.values()) == 3


def test_baav_store_shared_meter():
    schema = BaaVSchema.of(KV)
    store = BaaVStore(schema, {"r": REL})
    store[KV].fetch(pa.table({"k": [1]}))
    store[KV].scan()
    assert store.meter.gets == 1 + 3


def test_baav_store_missing_relation():
    with pytest.raises(ValueError):
        BaaVStore(BaaVSchema.of(KV), {})


def test_taav_is_special_case_of_baav(spark):
    """§4.1: TaaV is BaaV keyed on the primary key with the rest of the
    tuple as the value. Every block is one tuple, so a scan of the
    instance costs what a TaaV scan of the relation costs."""
    rel = mot.CATALOG["vehicle"]
    kv = KVSchema("vehicle", rel.pk, tuple(c for c in rel.columns if c not in rel.pk))
    pdf = mot.WORKLOAD.pdfs(sf=0.01)["vehicle"]
    m = Meter()
    inst = KVInstance(kv, _arrow(pdf), m)
    assert inst.degree == 1
    assert inst.n_keys == inst.n_rows == len(pdf)
    inst.scan()
    taav = TaaVStore(spark, {"vehicle": pdf})
    taav.scan("vehicle")
    taav.close()
    for f in ("gets", "scans", "data_values", "comm_bytes"):
        assert getattr(m, f) == getattr(taav.meter, f), f


def test_baav_scan_vs_taav_scan_get_ratio(spark):
    """The BaaV get saving on scans = average block size."""
    taav = TaaVStore(spark, {"r": REL})
    taav.scan("r")
    m = Meter()
    inst = KVInstance(KV, _arrow(REL), m)
    inst.scan()
    assert taav.meter.gets / m.gets == 2.0  # 6 tuples / 3 blocks
    taav.close()
