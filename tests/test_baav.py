"""Tests for the BaaV mapping layer (core.baav; paper §4.1, §8.2)."""
import pandas as pd
import pytest

from repro.core import baav
from repro.core.schema import KVSchema
from repro.nosql.kvstore import KVInstance, Meter

KV = KVSchema("r", ("k",), ("v", "w"))
REL = pd.DataFrame(
    {
        "k": [1, 1, 1, 2, 2, 3],
        "v": [10, 11, 12, 20, 21, 30],
        "w": ["a", "a", "b", "c", "c", "d"],
        "extra": [0, 0, 0, 0, 0, 0],
    }
)


@pytest.fixture(scope="module")
def inst(spark):
    return spark.createDataFrame(REL)


def _mapped(pdf: pd.DataFrame) -> KVInstance:
    """The KV instance of ``pdf`` under ``KV`` (the mapping of §4.1)."""
    return KVInstance(KV, pdf, Meter())


def test_map_relation_projects_key_first():
    out = _mapped(REL)
    assert list(out.rel.columns) == ["k", "v", "w"]
    assert out.n_rows == 6  # bag semantics: no dedup


def test_map_relation_keeps_duplicates():
    out = _mapped(pd.DataFrame({"k": [1, 1], "v": [5, 5], "w": ["x", "x"]}))
    assert out.n_rows == 2 and out.block_sizes == {(1,): 2}


def test_degree():
    """deg(~D) is the largest block size."""
    assert _mapped(REL).degree == 3


def test_degree_empty():
    out = _mapped(pd.DataFrame({"k": [1], "v": [1], "w": ["x"]}).iloc[:0])
    assert out.block_sizes == {}
    assert (out.degree, out.n_keys, out.n_rows) == (0, 0, 0)


def test_block_sizes():
    assert _mapped(REL).block_sizes == {(1,): 3, (2,): 2, (3,): 1}


def test_blocks_materialization(inst):
    out = baav.blocks(inst, KV)
    rows = {r["k"]: r["block"] for r in out.collect()}
    assert len(rows) == 3
    assert len(rows[1]) == 3 and len(rows[3]) == 1
    assert {tuple(b) for b in rows[2]} == {(20, "c"), (21, "c")}


def test_split_blocks_respects_threshold(inst):
    out = baav.split_blocks(inst, KV, threshold=2)
    sizes = (
        out.groupBy("k", "__segment").count().select("count").toPandas()["count"]
    )
    assert sizes.max() <= 2


def test_split_unsplit_roundtrip(inst):
    mapped = inst.select(*KV.columns)
    out = baav.unsplit_blocks(baav.split_blocks(mapped, KV, threshold=1))
    assert sorted(map(tuple, out.collect())) == sorted(
        map(tuple, mapped.collect())
    )


def test_split_blocks_rejects_bad_threshold(inst):
    with pytest.raises(ValueError):
        baav.split_blocks(inst, KV, threshold=0)


def test_compress_decompress_roundtrip(spark):
    pdf = pd.DataFrame({"k": [1, 1, 1, 2], "v": [5, 5, 6, 7], "w": ["x", "x", "y", "z"]})
    df = spark.createDataFrame(pdf)
    comp = baav.compress(df, KV)
    mult = {(r["k"], r["v"], r["w"]): r["__mult"] for r in comp.collect()}
    assert mult[(1, 5, "x")] == 2 and mult[(1, 6, "y")] == 1
    back = baav.decompress(comp, KV)
    assert sorted(map(tuple, back.collect())) == sorted(map(tuple, df.collect()))


def test_block_stats(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [10, 20, 5], "w": ["a", "b", "c"]})
    df = spark.createDataFrame(pdf)
    stats = {r["k"]: r for r in baav.block_stats(df, KV, ["v"]).collect()}
    assert stats[1]["__count"] == 2
    assert stats[1]["v__min"] == 10 and stats[1]["v__max"] == 20
    assert stats[1]["v__sum"] == 30 and stats[1]["v__avg"] == 15.0


def test_block_stats_rejects_non_value_column(inst):
    with pytest.raises(ValueError):
        baav.block_stats(inst, KV, ["k"])


def test_apply_updates_insert(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1], "v": [10], "w": ["a"]}))
    ins = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": [11, 20], "w": ["b", "c"]}))
    out = baav.apply_updates(df, KV, inserts=ins)
    assert _mapped(out.toPandas()).block_sizes == {(1,): 2, (2,): 1}


def test_apply_updates_delete_one_occurrence(spark):
    """Bag semantics: deleting a duplicated tuple removes one copy."""
    df = spark.createDataFrame(
        pd.DataFrame({"k": [1, 1, 1], "v": [10, 10, 11], "w": ["a", "a", "b"]})
    )
    dels = spark.createDataFrame(pd.DataFrame({"k": [1], "v": [10], "w": ["a"]}))
    out = baav.apply_updates(df, KV, deletes=dels)
    rows = sorted(map(tuple, out.collect()))
    assert rows == [(1, 10, "a"), (1, 11, "b")]


def test_apply_updates_delete_and_insert(spark):
    df = spark.createDataFrame(pd.DataFrame({"k": [1, 2], "v": [10, 20], "w": ["a", "b"]}))
    dels = spark.createDataFrame(pd.DataFrame({"k": [2], "v": [20], "w": ["b"]}))
    ins = spark.createDataFrame(pd.DataFrame({"k": [3], "v": [30], "w": ["c"]}))
    out = baav.apply_updates(df, KV, inserts=ins, deletes=dels)
    assert sorted(map(tuple, out.collect())) == [(1, 10, "a"), (3, 30, "c")]


def test_taav_is_special_case_of_baav(spark):
    """§8.2: TaaV = BaaV with block threshold 1 tuple — splitting by 1
    yields singleton blocks."""
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [10, 20, 5], "w": ["a", "b", "c"]})
    out = baav.split_blocks(spark.createDataFrame(pdf), KV, threshold=1)
    sizes = out.groupBy("k", "__segment").count().select("count").toPandas()["count"]
    assert (sizes == 1).all()
