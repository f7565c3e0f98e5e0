"""KBA operators as the plan executor realises them (paper §4.2,
Example 2).

The executor in ``core.plan`` is the algebra the query IR can express:
a ``FetchOp`` is extension ``∝``, the frontier merge is ``⋈``, pushed-down
filters are ``σ`` and finalisation is ``π`` / group-by. These tests run
Example 2's instances (Fig. 2: ~R1<A,B>, ~R2<B,C>, ~R3<A,C>) through
``generate_plan`` + ``execute`` and check every result against DuckDB.

``n1``/``n2``/``n3``/``ng`` are the same instances with null rows
added; no workload relation has a null, so these pin the executor's SQL
null semantics: a null key fetches no block and joins nothing, a
comparison with a null is not true, and aggregates skip nulls.
"""
import datetime as dt

import pandas as pd
import pytest

from repro.core.plan import FetchOp, ScanOp, SeedOp, execute
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
    RelSchema("n1", ("A", "B"), ("A", "B")),
    RelSchema("n2", ("B", "C"), ("B",)),
    RelSchema("n3", ("A", "C"), ("A",)),
    RelSchema("ng", ("A", "B"), ("A", "B")),
    RelSchema("ev", ("A", "D", "T"), ("A",)),
)
R1 = KVSchema("r1", ("A",), ("B",))
R2 = KVSchema("r2", ("B",), ("C",))
R3 = KVSchema("r3", ("A",), ("C",))
N2 = KVSchema("n2", ("B",), ("C",))
SCHEMA = BaaVSchema.of(
    R1, R2, R3, KVSchema("g", ("A",), ("B",)),
    KVSchema("n1", ("A",), ("B",)), N2, KVSchema("n3", ("A",), ("C",)),
    KVSchema("ng", ("A",), ("B",)), KVSchema("ev", ("A",), ("D", "T")),
)


def _ints(*xs) -> pd.Series:
    return pd.array(xs, dtype="Int64")


PDFS = {
    "r1": pd.DataFrame({"A": [1, 1, 2], "B": [1, 2, 3]}),
    "r2": pd.DataFrame({"B": [1, 3, 4], "C": [1, 3, 4]}),
    "r3": pd.DataFrame({"A": [1, 2], "C": [1, 3]}),
    "g": pd.DataFrame({"A": [1, 1, 2], "B": [10, 20, 30]}),
    "n1": pd.DataFrame({"A": _ints(1, 1, 2, 2, 3, None), "B": _ints(1, 2, 3, 5, None, 1)}),
    "n2": pd.DataFrame({"B": _ints(1, 3, 4, 5, None), "C": _ints(1, 3, 4, None, 1)}),
    "n3": pd.DataFrame({"A": _ints(1, 2, 3, None), "C": _ints(1, None, 3, 1)}),
    "ng": pd.DataFrame({"A": _ints(1, 1, 2, 3, None), "B": _ints(10, None, None, 30, 40)}),
    "ev": pd.DataFrame({
        "A": [1, 2, 3],
        "D": [dt.date(2020, 1, 1), dt.date(2021, 6, 1), None],
        "T": pd.to_datetime(["2020-01-01 10:00", "2021-06-01 12:30", None]),
    }),
}


@pytest.fixture(scope="module")
def store():
    return BaaVStore(SCHEMA, PDFS)


def _run(store, q):
    """Plan and execute ``q``; check the result against DuckDB."""
    plan = generate_plan(q, CATALOG, SCHEMA)
    df = execute(plan, store).to_pandas()
    assert_equivalent(df, q.to_sql(), **{a.relation: PDFS[a.relation] for a in q.atoms})
    rows = df.astype(object).where(df.notna(), None)  # NaN reads as None
    return plan, set(rows.itertuples(index=False, name=None))


def _steps(plan) -> list[tuple]:
    out = []
    for op in plan.ops:
        if isinstance(op, FetchOp):
            out.append(("FETCH", op.kv, op.kv.key))
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
                assert {plan.col[(op.atom.alias, k)] for k in op.kv.key} <= produced, op
            produced |= {plan.col[(op.atom.alias, c)] for c in op.kv.columns}


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
    """With an arithmetic aggregate: SQL's ``/`` does not truncate."""
    q = GroupByQuery(
        SPCQuery(atoms=(Atom("G", "g"),)),
        group_by=(("G", "A"),),
        aggs=(
            Aggregate("sum", ("G", "B"), "total"),
            Aggregate("count", None, "n"),
            Aggregate("sum", None, "quarter", expr=("(1 - {0} / 4)", (("G", "B"),))),
        ),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 30, 2, -5.5), (2, 30, 1, -6.5)}


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


def _n1_n2(extra: tuple = ()) -> SPCQuery:
    return SPCQuery(
        atoms=(Atom("N1", "n1"), Atom("N2", "n2"), *extra),
        eq=((("N1", "B"), ("N2", "B")),),
        projection=(("N1", "A"), ("N1", "B"), ("N2", "C")),
    )


def test_null_fetch_key_costs_a_get_and_joins_nothing(store):
    """n1's null B is shipped as a key: it costs a get and fetches no
    block, not even n2's null-keyed one."""
    store.meter.reset()
    plan, rows = _run(store, _n1_n2())
    assert _steps(plan)[1] == ("FETCH", N2, ("B",))
    assert rows == {(1, 1, 1), (2, 3, 3), (2, 5, None), (None, 1, 1)}
    # scan n1: 4 blocks (A = 1, 2, 3, null); fetch n2: B = 1, 2, 3, 5, null
    assert store.meter.gets == 4 + 5


def test_null_frontier_join_column_joins_nothing(store):
    """The frontier merge on the C class: n2's C is null beside n1's
    A = 2, and n3's C for A = 2 is null too; SQL does not equate them."""
    q = SPCQuery(
        atoms=(Atom("N1", "n1"), Atom("N2", "n2"), Atom("N3", "n3")),
        eq=(
            (("N1", "B"), ("N2", "B")),
            (("N1", "A"), ("N3", "A")),
            (("N2", "C"), ("N3", "C")),
        ),
        projection=(("N1", "A"), ("N1", "B"), ("N2", "C")),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 1, 1)}


def test_not_equal_filter_skips_null(store):
    """``C <> 3`` is not true for a null C."""
    q = SPCQuery(
        atoms=(Atom("N2", "n2"),),
        filters=(Filter(("N2", "C"), "<>", 3),),
        projection=(("N2", "B"), ("N2", "C")),
    )
    _, rows = _run(store, q)
    assert rows == {(1, 1), (4, 4), (None, 1)}


def test_distinct_keeps_one_null(store):
    q = SPCQuery(atoms=(Atom("N1", "n1"),), projection=(("N1", "B"),), distinct=True)
    _, rows = _run(store, q)
    assert len(rows) == 5  # 1, 2, 3, 5 and one null


def test_sum_over_all_null_group_is_null(store):
    """Group A = 2 holds only a null B: its sum, avg, min and count(B)
    are NULL, NULL, NULL and 0, while count(*) counts the row; the null
    A is a group of its own."""
    q = GroupByQuery(
        SPCQuery(atoms=(Atom("G", "ng"),)),
        group_by=(("G", "A"),),
        aggs=(
            Aggregate("sum", ("G", "B"), "total"),
            Aggregate("avg", ("G", "B"), "mean"),
            Aggregate("min", ("G", "B"), "low"),
            Aggregate("count", ("G", "B"), "n_b"),
            Aggregate("count", None, "n"),
        ),
    )
    plan = generate_plan(q, CATALOG, SCHEMA)
    out = execute(plan, store).to_pandas()
    assert_equivalent(out, q.to_sql(), ng=PDFS["ng"])
    row = out[out["G_A"] == 2].iloc[0]
    assert pd.isna(row["total"]) and pd.isna(row["mean"]) and pd.isna(row["low"])
    assert (row["n_b"], row["n"]) == (0, 1)
    assert out["G_A"].isna().sum() == 1


def test_having_skips_null_aggregate(store):
    q = GroupByQuery(
        SPCQuery(atoms=(Atom("G", "ng"),)),
        group_by=(("G", "A"),),
        aggs=(Aggregate("sum", ("G", "B"), "total"),),
        having=(("total", "<>", 30),),
    )
    _, rows = _run(store, q)
    assert {r[1] for r in rows} == {10, 40}


@pytest.mark.parametrize(
    "base",
    [
        # a scan whose filter keeps nothing
        SPCQuery(atoms=(Atom("G", "ng"),), filters=(Filter(("G", "B"), ">", 1000),)),
        # a constant key with no block: an empty frontier after a fetch
        SPCQuery(atoms=(Atom("G", "ng"),), const=((("G", "A"), 99),)),
    ],
)
def test_global_aggregate_over_empty_input(store, base):
    """One row: count 0, sum and max NULL."""
    q = GroupByQuery(
        base,
        group_by=(),
        aggs=(
            Aggregate("count", None, "n"),
            Aggregate("count", ("G", "B"), "n_b"),
            Aggregate("sum", ("G", "B"), "total"),
            Aggregate("max", ("G", "B"), "high"),
        ),
    )
    plan = generate_plan(q, CATALOG, SCHEMA)
    out = execute(plan, store).to_pandas()
    assert_equivalent(out, q.to_sql(), ng=PDFS["ng"])
    assert len(out) == 1
    assert (out["n"].iloc[0], out["n_b"].iloc[0]) == (0, 0)
    assert pd.isna(out["total"].iloc[0]) and pd.isna(out["high"].iloc[0])


def test_global_aggregate_skips_nulls(store):
    q = GroupByQuery(
        SPCQuery(atoms=(Atom("G", "ng"),)),
        group_by=(),
        aggs=(
            Aggregate("count", None, "n"),
            Aggregate("count", ("G", "B"), "n_b"),
            Aggregate("avg", ("G", "B"), "mean"),
        ),
    )
    _, rows = _run(store, q)
    assert rows == {(5, 3, 80 / 3)}
    # count(*) alone: the group is every frontier row
    q = GroupByQuery(q.base, group_by=(), aggs=q.aggs[:1])
    _, rows = _run(store, q)
    assert rows == {(5,)}


@pytest.mark.parametrize(
    "f",
    [
        Filter(("E", "D"), ">=", dt.date(2021, 1, 1)),
        Filter(("E", "D"), "<>", dt.date(2020, 1, 1)),
        Filter(("E", "T"), "<", dt.datetime(2021, 6, 1, 12, 30)),
        Filter(("E", "T"), ">", dt.datetime(2020, 1, 1, 10, 0)),
    ],
)
def test_date_and_timestamp_filters(store, f):
    """Each filter keeps exactly one of the two dated rows; the row
    with no date never passes."""
    q = SPCQuery(atoms=(Atom("E", "ev"),), filters=(f,), projection=(("E", "A"),))
    _, rows = _run(store, q)
    assert len(rows) == 1 and (3,) not in rows
