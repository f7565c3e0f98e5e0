"""Unit tests for core.schema (RelSchema / KVSchema / BaaVSchema)."""
import pytest

from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema, qualify


def test_relschema_valid():
    r = RelSchema("r", ("a", "b", "c"), ("a",))
    assert r.attrs == {("r", "a"), ("r", "b"), ("r", "c")}


def test_relschema_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        RelSchema("r", ("a", "a"), ("a",))


def test_relschema_rejects_pk_outside_columns():
    with pytest.raises(ValueError):
        RelSchema("r", ("a", "b"), ("z",))


def test_kvschema_columns_key_first():
    kv = KVSchema("r", ("a",), ("b", "c"))
    assert kv.columns == ("a", "b", "c")
    assert kv.attrs == {("r", "a"), ("r", "b"), ("r", "c")}


def test_kvschema_rejects_empty_key():
    with pytest.raises(ValueError):
        KVSchema("r", (), ("b",))


def test_kvschema_rejects_key_value_overlap():
    with pytest.raises(ValueError):
        KVSchema("r", ("a",), ("a", "b"))


def test_kvschema_rejects_pk_outside_xy():
    with pytest.raises(ValueError):
        KVSchema("r", ("a",), ("b",), pk=("z",))


def test_kvschema_pk_defaults_to_all_columns():
    kv = KVSchema("r", ("a",), ("b",))
    assert kv.pk_cols == ("a", "b")


def test_kvschema_declared_pk():
    kv = KVSchema("r", ("a",), ("b", "c"), pk=("b",))
    assert kv.pk_cols == ("b",)


def test_kvschema_name_stable():
    kv = KVSchema("r", ("a",), ("b", "c"))
    assert kv.name == "~r<a|b,c>"


def test_catalog_lookup_and_iteration():
    c = Catalog.of(RelSchema("r", ("a",), ("a",)), RelSchema("s", ("x", "y"), ("x",)))
    assert c["s"].columns == ("x", "y")
    assert "r" in c and "t" not in c
    assert sum(len(r.columns) for r in c) == 3


def test_baav_for_relation_filters():
    s = BaaVSchema.of(
        KVSchema("r", ("a",), ("b",)),
        KVSchema("s", ("x",), ("y",)),
        KVSchema("r", ("b",), ("a",)),
    )
    assert len(s.for_relation("r")) == 2
    assert len(s) == 3


def test_baav_validate_against_catalog():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    BaaVSchema.of(KVSchema("r", ("a",), ("b",))).validate_against(cat)
    with pytest.raises(ValueError):
        BaaVSchema.of(KVSchema("r", ("a",), ("z",))).validate_against(cat)
    with pytest.raises(ValueError):
        BaaVSchema.of(KVSchema("t", ("a",), ("b",))).validate_against(cat)


def test_baav_without():
    kv1 = KVSchema("r", ("a",), ("b",))
    kv2 = KVSchema("r", ("b",), ("a",))
    s = BaaVSchema.of(kv1, kv2)
    assert list(s.without(kv1)) == [kv2]


def test_qualify():
    assert qualify("x", ["a", "b"]) == {("x", "a"), ("x", "b")}


@pytest.mark.parametrize("wl_name", ["tpch", "mot", "airca"])
def test_workload_schemas_validate(wl_name):
    from repro.workloads import WORKLOADS

    wl = WORKLOADS[wl_name]
    wl.baav.validate_against(wl.catalog)
