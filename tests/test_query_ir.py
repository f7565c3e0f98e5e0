"""Unit tests for the query IR and its SQL generation (no Spark)."""
import datetime as dt

import duckdb
import pandas as pd
import pytest

from repro.core.query import (
    Aggregate,
    Atom,
    EqClasses,
    Filter,
    GroupByQuery,
    SPCQuery,
    attr_name,
    spc_of,
)
from repro.core.schema import Catalog, RelSchema

CAT = Catalog.of(
    RelSchema("r", ("a", "b"), ("a",)),
    RelSchema("s", ("b", "c"), ("b",)),
)


def _q(**kw) -> SPCQuery:
    base = dict(
        atoms=(Atom("R", "r"), Atom("S", "s")),
        eq=(((("R", "b")), ("S", "b")),),
        projection=(("R", "a"), ("S", "c")),
    )
    base.update(kw)
    return SPCQuery(**base)


def test_to_sql_basic():
    sql = _q().to_sql()
    assert sql == (
        "SELECT R.a AS R_a, S.c AS S_c FROM r AS R, s AS S WHERE R.b = S.b"
    )


def test_to_sql_runs_on_duckdb():
    r = pd.DataFrame({"a": [1, 2], "b": [10, 20]})
    s = pd.DataFrame({"b": [10, 10, 30], "c": ["x", "y", "z"]})
    con = duckdb.connect()
    con.register("r", r), con.register("s", s)
    out = con.execute(_q().to_sql()).fetchdf()
    assert sorted(out["S_c"]) == ["x", "y"]


def test_to_sql_const_and_filters():
    q = _q(
        const=((("R", "a"), 1),),
        filters=(Filter(("S", "c"), ">", 5),),
    )
    sql = q.to_sql()
    assert "R.a = 1" in sql and "S.c > 5" in sql


def test_to_sql_in_list():
    q = _q(const=((("R", "a"), (1, 2, 3)),))
    assert "R.a IN (1, 2, 3)" in q.to_sql()


def test_to_sql_string_escaping():
    q = _q(const=((("R", "a"), "O'Hare"),))
    assert "'O''Hare'" in q.to_sql()


def test_to_sql_timestamp_and_date_literals():
    q = _q(filters=(Filter(("R", "a"), ">=", dt.datetime(1995, 3, 15)),))
    assert "TIMESTAMP '1995-03-15 00:00:00'" in q.to_sql()
    q2 = _q(filters=(Filter(("R", "a"), ">=", dt.date(1995, 3, 15)),))
    assert "DATE '1995-03-15'" in q2.to_sql()


def test_distinct_rendering():
    assert _q(distinct=True).to_sql().startswith("SELECT DISTINCT")


def test_groupby_sql_and_having():
    q = GroupByQuery(
        _q(projection=()),
        group_by=(("R", "a"),),
        aggs=(Aggregate("count", None, "n"), Aggregate("sum", ("S", "c"), "total")),
        having=(("n", ">", 1),),
    )
    sql = q.to_sql()
    assert "GROUP BY R.a" in sql
    assert "count(*) AS n" in sql and "sum(S.c) AS total" in sql
    assert "HAVING count(*) > 1" in sql


def test_groupby_global_aggregate_no_group_by_clause():
    q = GroupByQuery(
        _q(projection=()), group_by=(), aggs=(Aggregate("count", None, "n"),)
    )
    assert "GROUP BY" not in q.to_sql()


def test_aggregate_expr_template():
    g = Aggregate(
        "sum", ("R", "a"), "rev", expr=("({0} * (1 - {1}))", (("R", "a"), ("R", "b")))
    )
    assert g.to_sql() == "sum((R.a * (1 - R.b))) AS rev"
    assert set(g.attrs) == {("R", "a"), ("R", "b")}


def test_aggregate_validation():
    with pytest.raises(ValueError):
        Aggregate("median", ("R", "a"), "m")
    with pytest.raises(ValueError):
        Aggregate("sum", None, "s")


def test_filter_validation():
    with pytest.raises(ValueError):
        Filter(("R", "a"), "~", 1)


def test_output_columns():
    """The SQL's output columns: projected or grouped attributes by
    ``attr_name``, then the aggregate aliases."""
    con = duckdb.connect()
    con.register("r", pd.DataFrame({"a": [1], "b": [10]}))
    con.register("s", pd.DataFrame({"b": [10], "c": [5]}))
    g = GroupByQuery(
        _q(projection=()), group_by=(("R", "a"),), aggs=(Aggregate("count", None, "n"),)
    )
    for q, cols in ((_q(), ["R_a", "S_c"]), (g, ["R_a", "n"])):
        assert list(con.execute(q.to_sql()).fetchdf().columns) == cols


def test_attr_name():
    assert attr_name(("R", "a")) == "R_a"


def test_max_spc_subquery_widens_projection():
    g = GroupByQuery(
        _q(projection=()),
        group_by=(("R", "a"),),
        aggs=(Aggregate("sum", ("S", "c"), "t"),),
    )
    spc = g.max_spc_subquery()
    assert set(spc.projection) == {("R", "a"), ("S", "c")}
    assert spc_of(g) == spc


def test_attrs_of_alias():
    q = _q(const=((("R", "a"), 1),), filters=(Filter(("S", "c"), ">", 5),))
    assert q.attrs_of_alias("R") == {("R", "a"), ("R", "b")}
    assert q.attrs_of_alias("S") == {("S", "b"), ("S", "c")}


def test_validate_catches_bad_alias_and_column():
    with pytest.raises(ValueError):
        _q(projection=(("X", "a"),)).validate(CAT)
    with pytest.raises(ValueError):
        _q(projection=(("R", "zzz"),)).validate(CAT)
    with pytest.raises(ValueError):  # no attribute of the atom is mentioned
        SPCQuery(atoms=(Atom("X", "nope"),)).validate(CAT)
    _q().validate(CAT)  # clean query passes


def test_validate_catches_duplicate_aliases():
    q = SPCQuery(atoms=(Atom("R", "r"), Atom("R", "s")))
    with pytest.raises(ValueError):
        q.validate(CAT)


# -- equality classes -------------------------------------------------
def test_eq_classes_transitivity():
    ec = EqClasses.build([(("A", "x"), ("B", "y")), (("B", "y"), ("C", "z"))], [])
    assert ec.find(("A", "x")) == ec.find(("C", "z"))
    assert ec.find(("A", "x")) != ec.find(("D", "w"))


def test_eq_classes_constant_propagation():
    ec = EqClasses.build([(("A", "x"), ("B", "y"))], [(("B", "y"), 7)])
    assert ec.const_of(("A", "x")) == 7
    assert ec.const_of(("C", "z")) is None


@pytest.mark.parametrize(
    "consts,values",
    [
        ((7, 7), 7),  # scalar ∩ scalar, equal
        ((7, 8), ()),  # scalar ∩ scalar, contradicting
        ((8, (7, 8, 9)), 8),  # scalar ∩ IN
        (((7, 8, 9), 8), 8),
        ((8, (7, 9)), ()),
        (((9, 7, 8), (8, 9, 10)), (9, 8)),  # IN ∩ IN, first list's order
        (((7, 8), (9,)), ()),
        (((7, 7, 8),), (7, 8)),  # a duplicate IN value
    ],
)
def test_eq_classes_intersect_constants(consts, values):
    """A class's constant is the values all its constants allow; the
    constants sit on either member of the class."""
    members = [("A", "x"), ("B", "y")]
    ec = EqClasses.build([tuple(members)], [(members[i % 2], v) for i, v in enumerate(consts)])
    got = ec.const_of(("A", "x"))
    assert got == values and type(got) is type(values)


def test_eq_classes_members():
    universe = [("A", "x"), ("B", "y"), ("C", "z")]
    ec = EqClasses.build([(("A", "x"), ("B", "y"))], [])
    members = {a for a in universe if ec.find(a) == ec.find(("A", "x"))}
    assert members == {("A", "x"), ("B", "y")}


@pytest.mark.parametrize("wl_name", ["tpch", "mot", "airca"])
def test_all_workload_queries_validate(wl_name):
    from repro.workloads import WORKLOADS

    wl = WORKLOADS[wl_name]
    for t in wl.templates:
        t.instantiate().validate(wl.catalog)


@pytest.mark.parametrize("wl_name", ["tpch", "mot", "airca"])
def test_all_workload_sql_parses_on_duckdb(wl_name):
    """Every template's SQL must at least parse in DuckDB (empty tables)."""
    from repro.workloads import WORKLOADS

    wl = WORKLOADS[wl_name]
    pdfs = wl.pdfs(sf=0.001)
    con = duckdb.connect()
    for name, pdf in pdfs.items():
        con.register(name, pdf.head(5))
    for t in wl.templates:
        con.execute(t.instantiate().to_sql()).fetchdf()
