"""KBA plans and their metered, interleaved executor (paper §6.2, §7.2).

A :class:`KBAPlan` is an ordered list of operations over a *frontier*
frame that holds **one column per equality class** of ``min(Q)``. The
planner (``core.plangen``) names those columns and fixes each constant
class's values; ``KBAPlan.col`` maps every attribute the plan reads to
its frontier column, so the executor works from column names alone:

- :class:`SeedOp` — constant keyed blocks (the plan's leaf constants);
- :class:`FetchOp` — extension ``∝``: look the frontier's distinct keys
  up in the KV instance, fetch only the matching blocks, natural-join
  them back in (§7.2 interleaving — data access and computation
  interleave);
- :class:`ScanOp` — a leaf KV instance for atoms that are not scan-free
  (rule (3) of §7.2).

Natural joins on the shared frontier columns enforce exactly the
query's equality predicates; residual filters are applied as soon as
their column exists. A plan with no :class:`ScanOp` is scan-free: its
only leaves are constants (§4.2).

:func:`execute` runs a plan in the driver process on pandas frames, over
the keyed-block store of ``nosql.kvstore``, with SQL semantics: null
join keys match nothing, a comparison with a null is not true, and
aggregates skip nulls.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import pandas as pd

from ..nosql.kvstore import BaaVStore
from .query import Aggregate, Atom, GroupByQuery, Query, SPCQuery, attr_name
from .schema import Attr, KVSchema


@dataclass(frozen=True)
class SeedOp:
    """Constant seed: one frontier column per constant class; IN-list
    constants produce one row per combination (multi-key get seeds), and
    an empty one no row."""

    columns: tuple[tuple[str, object], ...]  # (frontier col, value|tuple)


@dataclass(frozen=True)
class FetchOp:
    """Extension ``∝`` of the frontier with one KV instance, keyed on the
    frontier columns of its atom's key attributes."""

    atom: Atom
    kv: KVSchema


@dataclass(frozen=True)
class ScanOp:
    """Full-instance leaf for a non-scan-free atom."""

    atom: Atom
    kv: KVSchema


PlanOp = SeedOp | FetchOp | ScanOp


@dataclass
class KBAPlan:
    """An executable KBA plan for one query."""

    query: Query
    minq: SPCQuery
    ops: tuple[PlanOp, ...]
    # frontier column of each attribute of minq's atoms and of each
    # projected attribute of ``query``
    col: dict[Attr, str]

    @property
    def scan_free(self) -> bool:
        return not any(isinstance(op, ScanOp) for op in self.ops)

    @property
    def fetch_schemas(self) -> tuple[KVSchema, ...]:
        return tuple(op.kv for op in self.ops if isinstance(op, FetchOp))

    def describe(self) -> str:
        lines = []
        for op in self.ops:
            if isinstance(op, SeedOp):
                lines.append(f"SEED {dict(op.columns)}")
            elif isinstance(op, FetchOp):
                keys = ", ".join(f"{k}<-{self.col[(op.atom.alias, k)]}" for k in op.kv.key)
                lines.append(f"FETCH {op.atom.alias}:{op.kv.name} on ({keys})")
            else:
                lines.append(f"SCAN  {op.atom.alias}:{op.kv.name}")
        lines.append("SCAN-FREE" if self.scan_free else "NOT SCAN-FREE")
        return "\n".join(lines)


# SQL comparison operators of filters and ``having`` clauses.
_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "<>": operator.ne,
    "=": operator.eq,
}


def _where(df: pd.DataFrame, col: str, op: str, value: object) -> pd.DataFrame:
    """Rows where ``col op value`` is true; a null compares to nothing,
    ``<>`` included, as in SQL."""
    c = df[col]
    return df[_CMP[op](c, value) & c.notna()]


def _merge(frontier: pd.DataFrame | None, other: pd.DataFrame) -> pd.DataFrame:
    """Natural join on the shared class columns; SQL never equates two
    nulls, so rows with a null join key drop out first."""
    if frontier is None:
        return other
    shared = sorted(set(frontier.columns) & set(other.columns))
    if not shared:
        return frontier.merge(other, how="cross")
    return frontier.dropna(subset=shared).merge(
        other.dropna(subset=shared), on=shared, how="inner"
    )


def _rename_to_frontier(
    df: pd.DataFrame, atom: Atom, kv: KVSchema, col: dict[Attr, str]
) -> pd.DataFrame:
    """Rename an instance's columns to their frontier columns; if two
    columns of one atom share a class (intra-atom equality), keep one
    and filter equality first."""
    kept: dict[str, str] = {}  # frontier col -> original col kept
    for c in kv.columns:
        fc = col[(atom.alias, c)]
        if fc in kept:
            df = df[df[kept[fc]] == df[c]]
        else:
            kept[fc] = c
    return df[list(kept.values())].set_axis(list(kept), axis=1)


def _seed(op: SeedOp) -> pd.DataFrame:
    cols = [c for c, _ in op.columns]
    lists = [v if isinstance(v, tuple) else (v,) for _, v in op.columns]
    return pd.DataFrame(list(itertools.product(*lists)), columns=cols)


def execute(plan: KBAPlan, store: BaaVStore) -> pd.DataFrame:
    """Execute a KBA plan over a BaaV store with metered data access.

    Returns a frame whose columns match ``query.to_sql()`` output (same
    names, same bag of rows).
    """
    frontier: pd.DataFrame | None = None
    pending = list(plan.minq.filters)
    for op in plan.ops:
        if isinstance(op, SeedOp):
            part = _seed(op)
        elif isinstance(op, FetchOp):
            assert frontier is not None, "fetch before any seed/scan"
            keys = pd.DataFrame({k: frontier[plan.col[(op.atom.alias, k)]] for k in op.kv.key})
            part = _rename_to_frontier(store[op.kv].fetch(keys), op.atom, op.kv, plan.col)
        else:  # ScanOp
            part = _rename_to_frontier(store[op.kv].scan(), op.atom, op.kv, plan.col)
        frontier = _merge(frontier, part)
        # Filter pushdown: apply a residual predicate as soon as its
        # frontier column is materialized.
        for f in list(pending):
            col = plan.col[f.attr]
            if col in frontier.columns:
                frontier = _where(frontier, col, f.op, f.value)
                pending.remove(f)
    assert frontier is not None, "empty plan"
    assert not pending, f"unapplied filters {pending}"
    return _finalize(plan, frontier).reset_index(drop=True)


def _aggregate(col, g: Aggregate):
    """``g`` over a column or a grouped column: ``sum`` of no value is
    NULL, ``count`` counts the non-null values."""
    if g.func == "sum":
        return col.sum(min_count=1)
    return col.mean() if g.func == "avg" else getattr(col, g.func)()


def _finalize(plan: KBAPlan, df: pd.DataFrame) -> pd.DataFrame:
    q = plan.query
    if not isinstance(q, GroupByQuery):
        out = pd.DataFrame({attr_name(a): df[plan.col[a]] for a in q.projection})
        return out.drop_duplicates() if q.distinct else out
    keys = [attr_name(a) for a in q.group_by]
    data = pd.DataFrame({k: df[plan.col[a]] for k, a in zip(keys, q.group_by)})
    for i, g in enumerate(q.aggs):
        if g.expr is not None:
            tmpl, attrs = g.expr
            data[f"__agg_{i}"] = df.eval(tmpl.format(*[plan.col[a] for a in attrs]))
        elif g.attr is not None:
            data[f"__agg_{i}"] = df[plan.col[g.attr]]
    if keys:
        grouped = data.groupby(keys, dropna=False, sort=False)
        out = grouped.size().rename("__size").reset_index()
    else:  # a global aggregate has one row, even over empty input
        grouped = data
        out = pd.DataFrame({"__size": [len(df)]})
    for i, g in enumerate(q.aggs):
        if g.attr is None and g.expr is None:
            out[g.alias] = out["__size"]
        else:
            agg = _aggregate(grouped[f"__agg_{i}"], g)
            if not keys and agg is pd.NA:  # NULL of a nullable column: NaN, as DuckDB gives
                agg = float("nan")
            out[g.alias] = agg.to_numpy() if keys else [agg]
    out = out.drop(columns="__size")
    for alias, op, v in q.having:
        out = _where(out, alias, op, v)
    return out
