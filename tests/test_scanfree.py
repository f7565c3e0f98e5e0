"""Tests for GET / VC / Condition (III) scan-free characterization and
the bounded-query check on generated plans (paper §6.1, Thms 4–5)."""
import pytest

from repro.core.plangen import generate_plan, plan_is_bounded
from repro.core.query import Aggregate, Atom, Filter, GroupByQuery, SPCQuery
from repro.core.scanfree import (
    get_closure,
    is_scan_free,
    scan_free_report,
    vc,
)
from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema
from repro.workloads import WORKLOADS, tpch


def _q1_prime() -> SPCQuery:
    return SPCQuery(
        atoms=(Atom("N", "nation"), Atom("S", "supplier"), Atom("PS", "partsupp")),
        eq=(
            (("N", "n_nationkey"), ("S", "s_nationkey")),
            (("S", "s_suppkey"), ("PS", "ps_suppkey")),
        ),
        const=((("N", "n_name"), "GERMANY"),),
        projection=(("PS", "ps_suppkey"), ("PS", "ps_supplycost")),
    )


def test_example_6_get_closure():
    """Example 6: GET(Q'1, ~R1) contains exactly the chased attributes."""
    q = _q1_prime()
    get = get_closure(q, tpch.BAAV)
    for a in [
        ("N", "n_name"),
        ("N", "n_nationkey"),
        ("S", "s_nationkey"),
        ("S", "s_suppkey"),
        ("PS", "ps_suppkey"),
        ("PS", "ps_supplycost"),
    ]:
        assert get.contains(a), a


def test_example_6_vc_covers_all_three_atoms():
    q = _q1_prime()
    vcs = vc(q, tpch.BAAV)
    for alias in ("N", "S", "PS"):
        x = q.attrs_of_alias(alias)
        assert any(x <= w for w in vcs), alias


def test_example_6_scan_free():
    assert is_scan_free(_q1_prime(), tpch.CATALOG, tpch.BAAV)


def test_chase_trace_records_extension_steps():
    get = get_closure(_q1_prime(), tpch.BAAV)
    fetched = [(s.atom.alias, s.kv.relation) for s in get.trace]
    assert ("N", "nation") in fetched
    assert ("S", "supplier") in fetched
    assert ("PS", "partsupp") in fetched


def test_const_on_non_key_does_not_seed_rule_c():
    """A constant on an attribute that is no KV key cannot start the
    chase (MOT q7's defining property)."""
    cat = Catalog.of(RelSchema("r", ("a", "b", "c"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b", "c")))
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        const=((("R", "b"), 1),),
        projection=(("R", "c"),),
    )
    assert not is_scan_free(q, cat, schema)


def test_const_on_key_seeds_rule_c():
    cat = Catalog.of(RelSchema("r", ("a", "b", "c"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b", "c")))
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        const=((("R", "a"), 1),),
        projection=(("R", "c"),),
    )
    assert is_scan_free(q, cat, schema)


def test_in_list_seeds_like_constant():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b",)))
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        const=((("R", "a"), (1, 2, 3)),),
        projection=(("R", "b"),),
    )
    assert is_scan_free(q, cat, schema)


def test_equality_transitivity_rule_b():
    """GET rule (b): a constant propagates through join equalities."""
    cat = Catalog.of(
        RelSchema("r", ("a", "b"), ("a",)), RelSchema("s", ("b", "c"), ("b",))
    )
    schema = BaaVSchema.of(
        KVSchema("r", ("a",), ("b",)), KVSchema("s", ("b",), ("c",))
    )
    q = SPCQuery(
        atoms=(Atom("R", "r"), Atom("S", "s")),
        eq=((("R", "b"), ("S", "b")),),
        const=((("R", "a"), 1),),
        projection=(("S", "c"),),
    )
    assert is_scan_free(q, cat, schema)


def test_range_only_predicates_are_not_scan_free():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b",)))
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        filters=(Filter(("R", "a"), ">", 1),),
        projection=(("R", "b"),),
    )
    assert not is_scan_free(q, cat, schema)


def test_minimization_enables_scan_free():
    """A redundant copy whose attrs are unreachable disappears in
    min(Q), making the query scan-free (Condition III is on min(Q))."""
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ("b",)))
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
        ),
        const=((("R1", "a"), 1),),
        projection=(("R1", "b"),),
    )
    rep = scan_free_report(q, cat, schema)
    assert len(rep.minimized.atoms) == 1
    assert rep.scan_free


def test_theorem_5_groupby_uses_max_spc():
    g = GroupByQuery(
        _q1_prime(),
        group_by=(("PS", "ps_suppkey"),),
        aggs=(Aggregate("sum", ("PS", "ps_supplycost"), "s"),),
    )
    assert is_scan_free(g, tpch.CATALOG, tpch.BAAV)


def test_is_bounded_requires_scan_free_and_low_degree():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    kv = KVSchema("r", ("a",), ("b",))
    schema = BaaVSchema.of(kv)
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        const=((("R", "a"), 1),),
        projection=(("R", "b"),),
    )
    plan = generate_plan(q, cat, schema)
    assert plan_is_bounded(plan, {kv: 5}, c=10)
    assert not plan_is_bounded(plan, {kv: 50}, c=10)
    # non-scan-free is never bounded
    q2 = SPCQuery(atoms=(Atom("R", "r"),), projection=(("R", "b"),))
    assert not plan_is_bounded(generate_plan(q2, cat, schema), {kv: 1}, c=10)


# -- the paper's workload labels (§9) --------------------------------
@pytest.mark.parametrize(
    "wl_name,t_name",
    [
        (w, t.name)
        for w in ("tpch", "mot", "airca")
        for t in WORKLOADS[w].templates
    ],
)
def test_workload_template_scan_free_labels(wl_name, t_name):
    wl = WORKLOADS[wl_name]
    t = wl.template(t_name)
    assert is_scan_free(t.instantiate(), wl.catalog, wl.baav) == t.scan_free


@pytest.mark.parametrize(
    "wl_name,t_name",
    [
        (w, t.name)
        for w in ("tpch", "mot", "airca")
        for t in WORKLOADS[w].templates
        if t.param_choices
    ],
)
def test_scan_free_label_stable_across_params(wl_name, t_name):
    """The label is a property of the template, not the parameter."""
    wl = WORKLOADS[wl_name]
    t = wl.template(t_name)
    for p in t.param_choices:
        assert is_scan_free(t.instantiate(p), wl.catalog, wl.baav) == t.scan_free
