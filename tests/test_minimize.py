"""Tests for SPC minimization min(Q) (paper §5.2)."""
import duckdb
import pandas as pd
import pytest

from repro.core.minimize import minimize
from repro.core.query import Aggregate, Atom, Filter, GroupByQuery, SPCQuery
from repro.core.schema import Catalog, RelSchema

CAT = Catalog.of(
    RelSchema("r", ("a", "b"), ("a",)),
    RelSchema("s", ("b", "c"), ("b",)),
)


def _semantics_equal(q1: SPCQuery, q2: SPCQuery) -> bool:
    """Compare the two queries on concrete data via DuckDB."""
    r = pd.DataFrame({"a": [1, 2, 3, 3], "b": [10, 20, 10, 30]})
    s = pd.DataFrame({"b": [10, 10, 20, 40], "c": [5, 6, 7, 8]})
    con = duckdb.connect()
    con.register("r", r), con.register("s", s)
    d1 = con.execute(q1.to_sql()).fetchdf()
    d2 = con.execute(q2.to_sql()).fetchdf()
    # Minimization may rename projected attrs (remapped aliases); the
    # projection order is preserved, so compare positionally.
    d2.columns = list(d1.columns)
    key = list(d1.columns)
    return d1.sort_values(key).reset_index(drop=True).equals(
        d2.sort_values(key).reset_index(drop=True)
    )


def test_redundant_self_join_removed():
    """The paper's example: π_A(R1(A,B) ⋈ R2(A,B)) with R1, R2 renaming
    R — one copy is removed."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
        ),
        projection=(("R1", "a"),),
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 1
    assert _semantics_equal(q, m)


def test_non_redundant_join_kept():
    q = SPCQuery(
        atoms=(Atom("R", "r"), Atom("S", "s")),
        eq=((("R", "b"), ("S", "b")),),
        projection=(("R", "a"), ("S", "c")),
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 2


def test_self_join_with_distinct_projections_kept():
    """R1.b and R2.b both projected but only joined on a — both copies
    are needed (no hom fixing both distinguished b's)."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=((("R1", "a"), ("R2", "a")),),
        projection=(("R1", "b"), ("R2", "b")),
    )
    assert len(minimize(q, CAT).atoms) == 2


def test_filter_attr_is_distinguished():
    """A copy that carries a filter may not be folded away blindly; our
    conservative rule keeps filtered attrs distinguished, and since both
    copies agree on all terms the fold is still allowed."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
        ),
        filters=(Filter(("R2", "b"), ">", 15),),
        projection=(("R1", "a"),),
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 1
    assert len(m.filters) == 1  # the filter survives, remapped
    assert _semantics_equal(q, m)


def test_minimization_remaps_projection():
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
        ),
        projection=(("R2", "a"),),
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 1
    assert len(m.projection) == 1
    assert _semantics_equal(q, m)


def test_constants_preserved():
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
        ),
        const=((("R2", "b"), 10),),
        projection=(("R1", "a"),),
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 1
    assert len(m.const) == 1
    assert _semantics_equal(q, m)


def test_differing_constants_block_fold():
    """R1.b=10 and R2.b=20 (unjoined copies): no hom can fold them."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r")),
        const=((("R1", "b"), 10), (("R2", "b"), 20)),
        projection=(("R1", "a"), ("R2", "a")),
    )
    assert len(minimize(q, CAT).atoms) == 2


def test_constant_binds_every_surviving_atom():
    """R3 folds onto R1 (set semantics: DISTINCT); b = 10 must still bind
    R1 and R2, whose projected attributes keep both of them."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r"), Atom("R3", "r")),
        const=((("R1", "b"), 10), (("R2", "b"), 10), (("R3", "b"), 10)),
        projection=(("R1", "a"), ("R2", "a")),
        distinct=True,
    )
    m = minimize(q, CAT)
    assert len(m.atoms) == 2
    assert m.eq_classes().const_of(("R2", "b")) == 10
    assert _semantics_equal(q, m)


def test_minimize_idempotent():
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r"), Atom("S", "s")),
        eq=(
            (("R1", "a"), ("R2", "a")),
            (("R1", "b"), ("R2", "b")),
            (("R1", "b"), ("S", "b")),
        ),
        projection=(("R1", "a"), ("S", "c")),
    )
    m1 = minimize(q, CAT)
    m2 = minimize(m1, CAT)
    assert len(m1.atoms) == len(m2.atoms) == 2


def test_single_atom_untouched():
    q = SPCQuery(atoms=(Atom("R", "r"),), projection=(("R", "a"),))
    assert minimize(q, CAT) == q


def test_paper_example_5_q2_minimizes_to_q1prime():
    """Example 5: Q2 adds a renamed PARTSUPP copy PS' with
    PS.availqty = PS'.availqty; min(Q2) removes PS' — making the
    trimmed ~R'1 result preserving for Q2 too."""
    from repro.workloads import tpch

    q2 = SPCQuery(
        atoms=(
            Atom("N", "nation"),
            Atom("S", "supplier"),
            Atom("PS", "partsupp"),
            Atom("PS2", "partsupp"),
        ),
        eq=(
            (("N", "n_nationkey"), ("S", "s_nationkey")),
            (("S", "s_suppkey"), ("PS", "ps_suppkey")),
            (("PS", "ps_suppkey"), ("PS2", "ps_suppkey")),
            (("PS", "ps_partkey"), ("PS2", "ps_partkey")),
            (("PS", "ps_supplycost"), ("PS2", "ps_supplycost")),
            (("PS", "ps_availqty"), ("PS2", "ps_availqty")),
        ),
        const=((("N", "n_name"), "GERMANY"),),
        projection=(("PS", "ps_suppkey"), ("PS", "ps_supplycost")),
    )
    m = minimize(q2, tpch.CATALOG)
    assert len(m.atoms) == 3
    assert {a.relation for a in m.atoms} == {"nation", "supplier", "partsupp"}


def test_bag_query_keeps_a_foldable_atom():
    """A homomorphism folds R3 onto R1, but without DISTINCT R3
    multiplies each (R1, R2) pair by the rows with b = 10 (Chaudhuri &
    Vardi: bag equivalence needs isomorphism). So R3 stays, also under a
    count(*); only min/max aggregates make duplicates irrelevant."""
    q = SPCQuery(
        atoms=(Atom("R1", "r"), Atom("R2", "r"), Atom("R3", "r")),
        const=((("R1", "b"), 10), (("R2", "b"), 10), (("R3", "b"), 10)),
        projection=(("R1", "a"), ("R2", "a")),
    )
    assert minimize(q, CAT) == q
    count = GroupByQuery(q, group_by=(("R1", "a"),), aggs=(Aggregate("count", None, "n"),))
    assert len(minimize(count, CAT).atoms) == 3
    low = GroupByQuery(q, group_by=(("R1", "a"),), aggs=(Aggregate("min", ("R2", "a"), "lo"),))
    assert len(minimize(low, CAT).atoms) == 2
