"""KBA operators as the plan executor realises them (paper §4.2,
Example 2).

The executor in ``core.plan`` is the algebra the query IR can express:
a ``FetchOp`` is extension ``∝``, the frontier merge is ``⋈``, pushed-down
filters are ``σ`` and finalisation is ``π`` / group-by. These tests run
Example 2's instances (Fig. 2: ~R1<A,B>, ~R2<B,C>, ~R3<A,C>) through
``generate_plan`` + ``execute`` and check every result against DuckDB.
"""
import pandas as pd
import pytest

from repro.core.plan import FetchOp, ScanOp, SeedOp, execute, rep_col
from repro.core.plangen import generate_plan
from repro.core.query import Aggregate, Atom, Filter, GroupByQuery, SPCQuery
from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema
from repro.nosql.kvstore import BaaVStore
from repro.oracle import assert_equivalent
from repro.workloads import WORKLOADS

CATALOG = Catalog.of(
    RelSchema("r1", ("A", "B"), ("A", "B")),
    RelSchema("r2", ("B", "C"), ("B",)),
    RelSchema("r3", ("A", "C"), ("A",)),
    RelSchema("g", ("A", "B"), ("A", "B")),
)
R1 = KVSchema("r1", ("A",), ("B",))
R2 = KVSchema("r2", ("B",), ("C",))
R3 = KVSchema("r3", ("A",), ("C",))
SCHEMA = BaaVSchema.of(R1, R2, R3, KVSchema("g", ("A",), ("B",)))
PDFS = {
    "r1": pd.DataFrame({"A": [1, 1, 2], "B": [1, 2, 3]}),
    "r2": pd.DataFrame({"B": [1, 3, 4], "C": [1, 3, 4]}),
    "r3": pd.DataFrame({"A": [1, 2], "C": [1, 3]}),
    "g": pd.DataFrame({"A": [1, 1, 2], "B": [10, 20, 30]}),
}


@pytest.fixture(scope="module")
def store(spark):
    s = BaaVStore(SCHEMA, {n: spark.createDataFrame(p) for n, p in PDFS.items()})
    yield s
    s.unpersist()


def _run(store, q):
    """Plan and execute ``q``; check the result against DuckDB."""
    plan = generate_plan(q, CATALOG, SCHEMA)
    df = execute(plan, store)
    assert_equivalent(df, q.to_sql(), **{a.relation: PDFS[a.relation] for a in q.atoms})
    return plan, {tuple(r) for r in df.collect()}


def _steps(plan) -> list[tuple]:
    out = []
    for op in plan.ops:
        if isinstance(op, FetchOp):
            out.append(("FETCH", op.kv, tuple(k for k, _ in op.key_cols)))
        elif isinstance(op, ScanOp):
            out.append(("SCAN", op.kv))
    return out


def _r1_r2() -> SPCQuery:
    return SPCQuery(
        atoms=(Atom("R1", "r1"), Atom("R2", "r2")),
        eq=((("R1", "B"), ("R2", "B")),),
        projection=(("R1", "A"), ("R1", "B"), ("R2", "C")),
    )


def test_example2_extension(store):
    """~R1 ∝ ~R2 = instance of ~R4<AB, C>: scan ~R1, fetch ~R2 by B."""
    plan, rows = _run(store, _r1_r2())
    assert _steps(plan) == [("SCAN", R1), ("FETCH", R2, ("B",))]
    assert rows == {(1, 1, 1), (2, 3, 3)}


def test_extension_does_not_invent_rows(store):
    """∝ is a join: keys of r1 with no block in r2 drop out."""
    store.meter.reset()
    _, rows = _run(store, _r1_r2())
    assert len(rows) == 2  # B=2 has no block in r2
    # scan: one get per r1 block (A=1, A=2), 3 rows x 2 values; fetch:
    # one get per distinct B shipped (1, 2, 3), 2 rows x 2 values back
    assert store.meter.gets == 2 + 3
    assert store.meter.data_values == 6 + 4


def test_example2_join(store):
    """(~R1 ∝ ~R2) ⋈_AC ~R3 = {(1,{(1,1)}), (2,{(3,3)})}: the chase
    scans ~R1 and extends by ~R2 on B, then by ~R3 on A; the frontier
    merge enforces R2.C = R3.C."""
    q = SPCQuery(
        atoms=(Atom("R1", "r1"), Atom("R2", "r2"), Atom("R3", "r3")),
        eq=(
            (("R1", "B"), ("R2", "B")),
            (("R1", "A"), ("R3", "A")),
            (("R2", "C"), ("R3", "C")),
        ),
        projection=(("R1", "A"), ("R1", "B"), ("R2", "C")),
    )
    plan, rows = _run(store, q)
    assert _steps(plan) == [
        ("SCAN", R1),
        ("FETCH", R2, ("B",)),
        ("FETCH", R3, ("A",)),
    ]
    assert rows == {(1, 1, 1), (2, 3, 3)}


def test_extension_requires_key_subset():
    """``d1 ∝ d2`` needs key(d2) ⊆ att(d1): every generated FetchOp keys
    on frontier columns that earlier ops already produced."""
    cases = [(CATALOG, SCHEMA, _r1_r2())] + [
        (wl.catalog, wl.baav, t.instantiate())
        for wl in WORKLOADS.values()
        for t in wl.templates
    ]
    for catalog, schema, q in cases:
        plan = generate_plan(q, catalog, schema)
        produced: set[str] = set()
        for op in plan.ops:
            if isinstance(op, SeedOp):
                produced |= {c for c, _ in op.columns}
                continue
            if isinstance(op, FetchOp):
                assert {fc for _, fc in op.key_cols} <= produced, op
            produced |= {rep_col(plan.ec.find((op.atom.alias, c))) for c in op.kv.columns}


def test_select(store):
    """σ: a residual filter is pushed down onto the scanned frontier."""
    q = SPCQuery(
        atoms=(Atom("R1", "r1"),),
        filters=(Filter(("R1", "B"), ">", 1),),
        projection=(("R1", "A"), ("R1", "B")),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 2), (2, 3)}


def test_project(store):
    """π with set semantics (DISTINCT) in finalisation."""
    q = SPCQuery(atoms=(Atom("R1", "r1"),), projection=(("R1", "A"),), distinct=True)
    _, rows = _run(store, q)
    assert rows == {(1,), (2,)}


def test_group_by(store):
    q = GroupByQuery(
        SPCQuery(atoms=(Atom("G", "g"),)),
        group_by=(("G", "A"),),
        aggs=(Aggregate("sum", ("G", "B"), "total"), Aggregate("count", None, "n")),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 30, 2), (2, 30, 1)}


def test_self_join_equates_only_query_equalities(store):
    """The frontier merge joins on equality-class columns only: in a
    self-join on A, the two occurrences' B stay apart (a natural join on
    bare column names would also equate them)."""
    q = SPCQuery(
        atoms=(Atom("X", "r1"), Atom("Y", "r1")),
        eq=((("X", "A"), ("Y", "A")),),
        projection=(("X", "A"), ("X", "B"), ("Y", "B")),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 3, 3)}
