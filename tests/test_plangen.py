"""Tests for chase-based KBA plan generation (paper §6.2, Thm 6)."""
from dataclasses import replace

import pytest

from repro.core.minimize import minimize
from repro.core.plan import FetchOp, ScanOp, SeedOp
from repro.core.plangen import NotAnswerable, generate_plan, plan_is_bounded
from repro.core.preservation import is_result_preserving
from repro.core.query import Atom, SPCQuery
from repro.core.scanfree import get_closure, is_scan_free
from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema
from repro.workloads import WORKLOADS, mot, tpch


def test_example_7_plan_structure():
    """Example 7: the plan for Q1 is the chain
    ('GERMANY' ∝ ~NATION) ∝ ~SUPPLIER ∝ ~PARTSUPP + group-by."""
    q = tpch.q11("GERMANY")
    plan = generate_plan(q, tpch.CATALOG, tpch.BAAV)
    assert plan.scan_free
    kinds = [type(op).__name__ for op in plan.ops]
    assert kinds == ["SeedOp", "FetchOp", "FetchOp", "FetchOp"]
    order = [op.kv.relation for op in plan.ops if isinstance(op, FetchOp)]
    assert order == ["nation", "supplier", "partsupp"]
    # the seed is the constant keyed block 'GERMANY'
    seed = plan.ops[0]
    assert isinstance(seed, SeedOp)
    assert dict(seed.columns) == {"N__n_name": "GERMANY"}


def test_plan_keys_flow_through_equalities():
    q = tpch.q11("GERMANY")
    plan = generate_plan(q, tpch.CATALOG, tpch.BAAV)
    supplier_fetch = [
        op for op in plan.ops if isinstance(op, FetchOp) and op.kv.relation == "supplier"
    ][0]
    # supplier is fetched by s_nationkey, bound to nation's class column
    assert supplier_fetch.kv.key[0] == "s_nationkey"
    assert plan.col[("S", "s_nationkey")] == plan.col[("N", "n_nationkey")]


@pytest.mark.parametrize(
    "const,seed",
    [
        ((7, 7), 7),
        ((7, 8), ()),
        ((8, (7, 9)), ()),
        ((8, (7, 8)), 8),
        (((9, 7, 9, 8), (8, 9)), (9, 8)),
    ],
)
def test_seed_holds_the_values_all_class_constants_allow(const, seed):
    """Constants on one class (MOT q1's V and T vehicle_id) are
    intersected into one seed; contradicting ones seed nothing."""
    v, t = const
    q = replace(mot.q1(7), const=((("V", "vehicle_id"), v), (("T", "vehicle_id"), t)))
    plan = generate_plan(q, mot.WORKLOAD.catalog, mot.WORKLOAD.baav)
    assert plan.ops[0] == SeedOp((("V__vehicle_id", seed),))


@pytest.mark.parametrize(
    "wl_name,t_name",
    [
        (w, t.name)
        for w in ("tpch", "mot", "airca")
        for t in WORKLOADS[w].templates
    ],
)
def test_plan_scan_free_iff_query_scan_free(wl_name, t_name):
    """Theorem 6(2): the generated plan is scan-free exactly when the
    query is (for our single-cover workload schemas)."""
    wl = WORKLOADS[wl_name]
    t = wl.template(t_name)
    q = t.instantiate()
    plan = generate_plan(q, wl.catalog, wl.baav)
    assert plan.scan_free == is_scan_free(q, wl.catalog, wl.baav) == t.scan_free


@pytest.mark.parametrize(
    "wl_name,t_name",
    [(w, t.name) for w in ("tpch", "mot", "airca") for t in WORKLOADS[w].templates],
)
def test_plan_fetches_or_scans_every_min_atom_once(wl_name, t_name):
    """Each atom of min(Q) is touched by exactly one Fetch/Scan op (the
    single-cover invariant that keeps bag multiplicities exact)."""
    wl = WORKLOADS[wl_name]
    plan = generate_plan(wl.template(t_name).instantiate(), wl.catalog, wl.baav)
    touched = [
        op.atom.alias for op in plan.ops if isinstance(op, (FetchOp, ScanOp))
    ]
    assert sorted(touched) == sorted(a.alias for a in plan.minq.atoms)


def test_scan_free_plan_has_constant_leaves_only():
    """§4.2: a scan-free KBA plan's leaves are constants."""
    for t in (t for t in WORKLOADS["mot"].templates if t.scan_free):
        plan = generate_plan(t.instantiate(), WORKLOADS["mot"].catalog, WORKLOADS["mot"].baav)
        assert isinstance(plan.ops[0], SeedOp)
        assert not any(isinstance(op, ScanOp) for op in plan.ops)


def test_non_scan_free_plan_interleaves_scan_then_fetch():
    """§5.1: non-scan-free queries get scan-free sub-plans — mot q7
    scans mottest then *fetches* vehicle blocks keyed by vehicle_id."""
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q7").instantiate(), wl.catalog, wl.baav)
    kinds = [type(op).__name__ for op in plan.ops if not isinstance(op, SeedOp)]
    assert kinds == ["ScanOp", "FetchOp"]
    scan = [op for op in plan.ops if isinstance(op, ScanOp)][0]
    assert scan.atom.relation == "mottest"


def test_not_answerable_raises():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ()))  # b not stored
    q = SPCQuery(atoms=(Atom("R", "r"),), projection=(("R", "b"),))
    with pytest.raises(NotAnswerable):
        generate_plan(q, cat, schema)


def test_single_cover_gate_is_stricter_than_condition_ii():
    """M1 is the single-cover check: r(a,b,c) stored as <a|b> and <a|c>
    (pk a) is result preserving and scan-free for ``a = 1, project b, c``
    through clo, but no single KV schema holds {a, b, c}, so plan
    generation refuses and the query falls back to the SQL layer."""
    cat = Catalog.of(RelSchema("r", ("a", "b", "c"), ("a",)))
    schema = BaaVSchema.of(
        KVSchema("r", ("a",), ("b",), pk=("a",)),
        KVSchema("r", ("a",), ("c",), pk=("a",)),
    )
    q = SPCQuery(
        atoms=(Atom("R", "r"),),
        const=((("R", "a"), 1),),
        projection=(("R", "b"), ("R", "c")),
    )
    assert is_result_preserving(q, cat, schema)
    assert is_scan_free(q, cat, schema)
    with pytest.raises(NotAnswerable, match="no single KV schema covers"):
        generate_plan(q, cat, schema)


def test_tpch_q5_fetches_lineitem_through_narrowest_cover():
    """Plans take each atom's narrowest cover, not GET's schema order:
    for tpch q5 the GET trace reaches lineitem through ~lineitem keyed
    by l_orderkey first, while the plan fetches the narrower instance
    keyed by l_suppkey (joined to supplier)."""
    q = tpch.q5()
    plan = generate_plan(q, tpch.CATALOG, tpch.BAAV)
    (fetch,) = [
        op for op in plan.ops if isinstance(op, FetchOp) and op.atom.relation == "lineitem"
    ]
    assert fetch.kv.name == "~lineitem<l_suppkey|l_orderkey,l_linenumber,l_extendedprice,l_discount>"
    get = get_closure(minimize(q, tpch.CATALOG), tpch.BAAV)
    first = next(st for st in get.trace if st.atom.relation == "lineitem")
    assert first.kv.key == ("l_orderkey",)


def test_plan_is_bounded_checks_fetched_degrees():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q1").instantiate(), wl.catalog, wl.baav)
    degs_low = {kv: 5 for kv in plan.fetch_schemas}
    degs_high = dict(degs_low)
    degs_high[plan.fetch_schemas[-1]] = 10_000
    assert plan_is_bounded(plan, degs_low, c=50)
    assert not plan_is_bounded(plan, degs_high, c=50)


def test_plan_is_bounded_false_for_scans():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q8").instantiate(), wl.catalog, wl.baav)
    assert not plan_is_bounded(plan, {}, c=10**9)


def test_in_list_seed_becomes_multi_key_get():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q5").instantiate((1, 2, 3)), wl.catalog, wl.baav)
    seed = plan.ops[0]
    assert isinstance(seed, SeedOp)
    (col, val), = seed.columns
    assert val == (1, 2, 3)


def test_plan_describe_mentions_all_ops():
    q = tpch.q11("GERMANY")
    desc = generate_plan(q, tpch.CATALOG, tpch.BAAV).describe()
    assert "SEED" in desc and "FETCH" in desc and "SCAN-FREE" in desc


_Q1 = mot.q1(7)


@pytest.mark.parametrize(
    "q",
    [
        replace(_Q1, projection=_Q1.projection + (("V", "no_such_column"),)),
        replace(_Q1, projection=_Q1.projection + (("X", "make"),)),
        replace(_Q1, atoms=(Atom("V", "vehicle"), Atom("T", "mottests"))),
        replace(_Q1, atoms=(Atom("V", "vehicle"), Atom("V", "vehicle"))),
    ],
    ids=["unknown_column", "unknown_alias", "unknown_relation", "duplicate_alias"],
)
def test_invalid_query_fails_before_planning(q):
    """An invalid query raises ``ValueError`` from plan generation, so
    Zidian neither plans it nor falls back to scanning for it."""
    with pytest.raises(ValueError):
        generate_plan(q, mot.WORKLOAD.catalog, mot.WORKLOAD.baav)
