"""End-to-end integration: every workload template through both systems,
checked against the DuckDB oracle (DESIGN.md §6).

For each template:
- the baseline (TaaV scans + Spark SQL) result equals DuckDB,
- the Zidian (KBA plan over the BaaV store) result equals DuckDB,
- scan-free templates execute with zero scans (Proposition 7a),
- classifier labels match the intended suite labels.
"""
from dataclasses import replace

import pytest

from repro.core.query import Aggregate, Atom, GroupByQuery, SPCQuery
from repro.runner import oracle_check, run_baseline, run_zidian
from repro.workloads import WORKLOADS, mot

ALL = [
    (w, t.name) for w in ("tpch", "mot", "airca") for t in WORKLOADS[w].templates
]


@pytest.fixture()
def ctx_of(contexts):
    return lambda wl_name: contexts[wl_name]


@pytest.mark.parametrize("wl_name,t_name", ALL)
def test_zidian_matches_oracle(ctx_of, wl_name, t_name):
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    q = t.instantiate()
    zr = run_zidian(ctx, q)
    oracle_check(ctx, q, zr.df)


@pytest.mark.parametrize("wl_name,t_name", ALL)
def test_baseline_matches_oracle(ctx_of, wl_name, t_name):
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    q = t.instantiate()
    br = run_baseline(ctx, q)
    oracle_check(ctx, q, br.df)


@pytest.mark.parametrize("wl_name,t_name", ALL)
def test_scan_free_queries_never_scan(ctx_of, wl_name, t_name):
    """Proposition 7(a): parallel scan-free plans incur no scans."""
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    zr = run_zidian(ctx, t.instantiate())
    assert zr.scan_free == t.scan_free
    if t.scan_free:
        assert zr.meter["scans"] == 0
    else:
        assert zr.meter["scans"] >= 1


@pytest.mark.parametrize("wl_name,t_name", ALL)
def test_bounded_labels(ctx_of, wl_name, t_name):
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    zr = run_zidian(ctx, t.instantiate())
    assert zr.bounded == t.bounded


@pytest.mark.parametrize("wl_name,t_name", ALL)
def test_zidian_reads_no_more_data_than_baseline(ctx_of, wl_name, t_name):
    """Zidian's access counts never exceed the baseline's (it fetches a
    subset of what a full scan moves)."""
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    q = t.instantiate()
    zr = run_zidian(ctx, q)
    br = run_baseline(ctx, q)
    assert zr.meter["gets"] <= br.meter["gets"]
    assert zr.meter["data_values"] <= br.meter["data_values"] * 1.01 + 100


@pytest.mark.parametrize(
    "wl_name,t_name",
    [
        ("tpch", "q11"),
        ("tpch", "q3"),
        ("mot", "q1"),
        ("mot", "q5"),
        ("airca", "q6"),
    ],
)
def test_alternate_parameters_also_correct(ctx_of, wl_name, t_name):
    """Guard against plans that only work for the default parameter."""
    ctx = ctx_of(wl_name)
    t = ctx.workload.template(t_name)
    for p in t.param_choices[:2]:
        q = t.instantiate(p)
        zr = run_zidian(ctx, q)
        oracle_check(ctx, q, zr.df)


def test_scan_free_gets_far_fewer_than_baseline(ctx_of):
    """The Table 2 mechanism: orders of magnitude fewer gets for the
    case-study query."""
    ctx = ctx_of("tpch")
    q = ctx.workload.template("q11").instantiate()
    zr = run_zidian(ctx, q)
    br = run_baseline(ctx, q)
    assert br.meter["gets"] > 100 * zr.meter["gets"]


def test_fallback_to_sql_layer_when_not_answerable(contexts):
    """M1: a query outside the BaaV store's coverage falls back to the
    plain SQL layer and still returns correct results."""
    from repro.core.schema import BaaVSchema, KVSchema
    from repro.nosql.zidian import Zidian

    ctx = contexts["mot"]
    # a schema that stores only part of `vehicle`
    schema = BaaVSchema.of(KVSchema("vehicle", ("vehicle_id",), ("make",)))
    from repro.nosql.kvstore import BaaVStore

    store = BaaVStore(schema, {"vehicle": ctx.pdfs["vehicle"]})
    z = Zidian(ctx.zidian.spark, ctx.workload.catalog, store, ctx.taav)
    q = SPCQuery(
        atoms=(Atom("V", "vehicle"),),
        const=((("V", "vehicle_id"), 7),),
        projection=(("V", "make"), ("V", "fuel")),  # fuel is not stored
    )
    res = z.answer(q)
    assert res.fallback
    oracle_check(ctx, q, res.df)


def test_empty_answer_keeps_store_column_types(ctx_of):
    """An absent vehicle gives an empty q1 answer; its string columns
    still arrive in Spark as strings, as for a vehicle that exists."""
    from pyspark.sql.types import StringType

    ctx = ctx_of("mot")
    t = ctx.workload.template("q1")
    empty = run_zidian(ctx, t.instantiate(10**9)).df
    full = run_zidian(ctx, t.instantiate(7)).df
    assert empty.count() == 0 and full.count() > 0
    assert empty.schema == full.schema
    for c in ("V_make", "V_model", "T_result"):
        assert empty.schema[c].dataType == StringType()


_V, _T = ("V", "vehicle_id"), ("T", "vehicle_id")
ODD_CONSTANTS = {
    "contradicting": replace(mot.q1(7), const=((_V, 7), (_T, 8))),
    "scalar_outside_in": replace(mot.q1(7), const=((_V, 8), (_T, (7, 9)))),
    "duplicate_in": replace(mot.q1(7), const=((_T, (7, 7)),)),
    "empty_in": mot.q5(()),
    # min(Q) folds T3 onto T1 (set semantics); the constant must still bind T2
    "folded_self_join": SPCQuery(
        atoms=(Atom("T1", "mottest"), Atom("T2", "mottest"), Atom("T3", "mottest")),
        const=tuple(((t, "vehicle_id"), 7) for t in ("T1", "T2", "T3")),
        projection=(("T1", "test_id"), ("T2", "test_id")),
        distinct=True,
    ),
}


@pytest.mark.parametrize("case", ODD_CONSTANTS)
def test_odd_constants_match_oracle(ctx_of, case):
    """Constants on one class are intersected and de-duplicated, an empty
    IN-list holds for no row, and minimization keeps every constant: both
    systems agree with DuckDB, and an empty seed fetches nothing."""
    ctx = ctx_of("mot")
    q = ODD_CONSTANTS[case]
    zr = run_zidian(ctx, q)
    oracle_check(ctx, q, zr.df)
    oracle_check(ctx, q, run_baseline(ctx, q).df)
    if case == "empty_in":
        assert zr.df.count() == 0 and zr.meter["gets"] == 0


def test_bag_self_join_keeps_every_atom(ctx_of):
    """Without DISTINCT, T3 multiplies each (T1, T2) pair by vehicle 7's
    test count, so min(Q) keeps it, and a count(*) per T1 sees it too:
    Zidian, the baseline and DuckDB agree."""
    ctx = ctx_of("mot")
    q = replace(ODD_CONSTANTS["folded_self_join"], distinct=False)
    n = int((ctx.pdfs["mottest"]["vehicle_id"] == 7).sum())
    count = GroupByQuery(q, group_by=(("T1", "test_id"),), aggs=(Aggregate("count", None, "n"),))
    for query, rows in ((q, n**3), (count, n)):
        zr = run_zidian(ctx, query)
        assert len(zr.plan.minq.atoms) == 3 and zr.df.count() == rows
        oracle_check(ctx, query, zr.df)
        oracle_check(ctx, query, run_baseline(ctx, query).df)
