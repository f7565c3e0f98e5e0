"""Tests for the chase, clo() and Condition (I) data preservability
(paper §5.2)."""
import pytest

from repro.core.closure import chase, clo, is_data_preserving, preserved_relations
from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema

CAT = Catalog.of(RelSchema("r", ("a", "b", "c"), ("a",)))


def test_chase_fires_rules_in_order_until_fixpoint():
    """A rule fires once its premise is known, later rules see its
    conclusion in the same pass, and an earlier rule unlocked later
    fires on the next pass."""
    rules = [({"c"}, {"d"}, "c->d"), ({"a"}, {"b"}, "a->b"), ({"b"}, {"c"}, "b->c")]
    known, fired = chase({"a"}, rules)
    assert known == {"a", "b", "c", "d"}
    assert fired == ["a->b", "b->c", "c->d"]


def test_chase_fires_a_rule_once_even_if_it_adds_nothing():
    rules = [({"a"}, {"a"}, "noop"), ({"a"}, {"b"}, "a->b"), ({"z"}, {"y"}, "never")]
    known, fired = chase(["a"], rules)
    assert known == {"a", "b"}
    assert fired == ["noop", "a->b"]


def test_clo_starts_with_own_attrs():
    kv = KVSchema("r", ("a",), ("b",))
    assert clo(kv, [kv]) == {("r", "a"), ("r", "b")}


def test_clo_propagates_through_pk():
    """R(a,b,c) stored as <a|b> and <a|c> with pk(<a|c>) = a: knowing
    {a,b} we can recover c via the pk — closure reaches att(R)."""
    kv1 = KVSchema("r", ("a",), ("b",), pk=("a",))
    kv2 = KVSchema("r", ("a",), ("c",), pk=("a",))
    assert clo(kv1, [kv1, kv2]) == {("r", "a"), ("r", "b"), ("r", "c")}


def test_clo_does_not_propagate_without_pk():
    """Without a declared pk the trivial pk = XY blocks propagation."""
    kv1 = KVSchema("r", ("a",), ("b",))
    kv2 = KVSchema("r", ("a",), ("c",))
    assert clo(kv1, [kv1, kv2]) == {("r", "a"), ("r", "b")}


def test_clo_multi_hop():
    kv1 = KVSchema("r", ("a",), ("b",), pk=("a",))
    kv2 = KVSchema("r", ("b",), ("c",), pk=("b",))
    assert clo(kv1, [kv1, kv2]) == {("r", "a"), ("r", "b"), ("r", "c")}


def test_clo_stays_within_relation_scope():
    """Attributes are relation-scoped: another relation's pk never fires."""
    kv1 = KVSchema("r", ("a",), ("b",), pk=("a",))
    other = KVSchema("s", ("a",), ("z",), pk=("a",))
    cat = Catalog.of(
        RelSchema("r", ("a", "b"), ("a",)), RelSchema("s", ("a", "z"), ("a",))
    )
    assert ("s", "z") not in clo(kv1, [kv1, other])
    assert is_data_preserving(cat, BaaVSchema.of(kv1, other))


def test_condition_i_positive():
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b", "c")))
    assert is_data_preserving(CAT, schema)


def test_condition_i_negative_missing_attr():
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b",)))
    assert not is_data_preserving(CAT, schema)
    assert preserved_relations(CAT, schema) == {"r": False}


def test_condition_i_negative_missing_relation():
    cat = Catalog.of(
        RelSchema("r", ("a", "b"), ("a",)), RelSchema("s", ("x",), ("x",))
    )
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b",)))
    assert not is_data_preserving(cat, schema)


def test_example_4_tpch_schema_is_data_preserving():
    """Paper Example 4: the TPC-H BaaV schema is data preserving."""
    from repro.workloads import tpch

    assert is_data_preserving(tpch.CATALOG, tpch.BAAV)


def test_example_5_trimmed_schema_not_data_preserving():
    """Paper Example 5: dropping availqty from ~PARTSUPP loses data
    preservability (but keeps result preservability for Q'1, tested in
    test_preservation)."""
    from repro.workloads import tpch

    trimmed = tuple(
        kv
        for kv in tpch.BAAV
        if not (kv.relation == "partsupp")
    ) + (
        KVSchema(
            "partsupp",
            ("ps_suppkey",),
            ("ps_partkey", "ps_supplycost"),
            pk=("ps_partkey", "ps_suppkey"),
        ),
    )
    assert not is_data_preserving(tpch.CATALOG, BaaVSchema(trimmed))


@pytest.mark.parametrize("wl_name", ["tpch", "mot", "airca"])
def test_workload_schemas_data_preserving(wl_name):
    from repro.workloads import WORKLOADS

    wl = WORKLOADS[wl_name]
    assert is_data_preserving(wl.catalog, wl.baav)
