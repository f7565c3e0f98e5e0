"""KBA plans and their metered, interleaved executor (paper §6.2, §7.2).

A :class:`KBAPlan` is an ordered list of operations over a *frontier*
table that holds **one column per equality class** of ``min(Q)``. The
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

:func:`execute` runs a plan in the driver process on Arrow tables, over
the keyed-block store of ``nosql.kvstore``: merges are inner hash joins,
filters ``pyarrow.compute`` comparisons and finalisation a group-by.
Arrow's kernels have SQL's null semantics, so the executor carries no
null handling of its own: null join keys match nothing, a comparison
with a null is not true, and aggregates skip nulls.
"""
from __future__ import annotations

import ast
import functools
import operator
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..nosql.kvstore import BaaVStore
from .query import Atom, GroupByQuery, Query, SPCQuery, attr_name
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

# Arithmetic of aggregate templates, which ``pc.Expression`` cannot
# evaluate: it has no reflected operators (``1 - field`` fails). SQL's
# ``/`` of two integers is not truncated, Arrow's ``divide`` is.
_ARITH = {ast.Add: pc.add, ast.Sub: pc.subtract, ast.Mult: pc.multiply,
          ast.Div: lambda a, b: pc.divide(pc.multiply(a, 1.0), b)}


def _arith(node: ast.expr, cols: list[pa.ChunkedArray]):
    """A parsed aggregate template over ``cols``, its slot ``_i`` bound to
    ``cols[i]``."""
    if isinstance(node, ast.BinOp):
        return _ARITH[type(node.op)](_arith(node.left, cols), _arith(node.right, cols))
    return cols[int(node.id[1:])] if isinstance(node, ast.Name) else node.value


def _cross(left: pa.Table, right: pa.Table) -> pa.Table:
    """Every row of ``left`` beside every row of ``right``."""
    n, m = left.num_rows, right.num_rows
    left, right = left.take(np.repeat(np.arange(n), m)), right.take(np.tile(np.arange(m), n))
    names = left.column_names + right.column_names
    return pa.Table.from_arrays(left.columns + right.columns, names)


def _merge(frontier: pa.Table | None, other: pa.Table) -> pa.Table:
    """Natural join on the shared class columns."""
    if frontier is None:
        return other
    shared = sorted(set(frontier.column_names) & set(other.column_names))
    if not shared:
        return _cross(frontier, other)
    # Arrow builds its hash table on the right input: make it the smaller.
    big, small = sorted((frontier, other), key=lambda t: t.num_rows, reverse=True)
    return big.join(small, keys=shared, join_type="inner")


def _rename_to_frontier(
    table: pa.Table, atom: Atom, kv: KVSchema, col: dict[Attr, str]
) -> pa.Table:
    """Rename an instance's columns to their frontier columns; if two
    columns of one atom share a class (intra-atom equality), keep one
    and filter equality first."""
    kept: dict[str, str] = {}  # frontier col -> original col kept
    for c in kv.columns:
        fc = col[(atom.alias, c)]
        if fc in kept:
            table = table.filter(pc.field(kept[fc]) == pc.field(c))
        else:
            kept[fc] = c
    return table.select(list(kept.values())).rename_columns(list(kept))


def _seed(op: SeedOp, types: dict[str, pa.DataType]) -> pa.Table:
    """The seed's rows, each column typed as the store columns it keys."""
    parts = [
        pa.table({c: pa.array(v if isinstance(v, tuple) else (v,), types[c])})
        for c, v in op.columns
    ]
    return functools.reduce(_cross, parts)


def execute(plan: KBAPlan, store: BaaVStore) -> pa.Table:
    """Execute a KBA plan over a BaaV store with metered data access.

    Returns a table whose columns match ``query.to_sql()`` output (same
    names, same bag of rows).
    """
    types = {
        plan.col[(op.atom.alias, c)]: store[op.kv].table.schema.field(c).type
        for op in plan.ops if not isinstance(op, SeedOp) for c in op.kv.columns
    }
    frontier: pa.Table | None = None
    pending = list(plan.minq.filters)
    for op in plan.ops:
        if isinstance(op, SeedOp):
            part = _seed(op, types)
        elif isinstance(op, FetchOp):
            assert frontier is not None, "fetch before any seed/scan"
            keys = pa.table({k: frontier[plan.col[(op.atom.alias, k)]] for k in op.kv.key})
            part = _rename_to_frontier(store[op.kv].fetch(keys), op.atom, op.kv, plan.col)
        else:  # ScanOp
            part = _rename_to_frontier(store[op.kv].scan(), op.atom, op.kv, plan.col)
        frontier = _merge(frontier, part)
        # Filter pushdown: apply a residual predicate as soon as its
        # frontier column is materialized.
        for f in list(pending):
            col = plan.col[f.attr]
            if col in frontier.column_names:
                frontier = frontier.filter(_CMP[f.op](pc.field(col), f.value))
                pending.remove(f)
    assert frontier is not None, "empty plan"
    assert not pending, f"unapplied filters {pending}"
    return _finalize(plan, frontier)


def _finalize(plan: KBAPlan, frontier: pa.Table) -> pa.Table:
    q = plan.query
    if not isinstance(q, GroupByQuery):
        out = pa.table({attr_name(a): frontier[plan.col[a]] for a in q.projection})
        return out.group_by(out.column_names).aggregate([]) if q.distinct else out
    keys = [attr_name(a) for a in q.group_by]
    data = frontier.select([])  # no column yet, but the frontier's rows
    for k, a in zip(keys, q.group_by):
        data = data.append_column(k, frontier[plan.col[a]])
    aggs = []
    for i, g in enumerate(q.aggs):
        if g.expr is not None:
            tmpl, attrs = g.expr
            parsed = ast.parse(tmpl.format(*[f"_{j}" for j in range(len(attrs))]), mode="eval")
            arg = _arith(parsed.body, [frontier[plan.col[a]] for a in attrs])
        elif g.attr is not None:
            arg = frontier[plan.col[g.attr]]
        else:  # count(*)
            aggs.append(([], "count_all"))
            continue
        data = data.append_column(f"__agg_{i}", arg)
        aggs.append((f"__agg_{i}", "mean" if g.func == "avg" else g.func))
    # The keys come first, then the aggregates; a global aggregate has
    # one row, even over empty input.
    out = data.group_by(keys).aggregate(aggs)
    out = out.rename_columns(keys + [g.alias for g in q.aggs])
    for alias, op, v in q.having:
        out = out.filter(_CMP[op](pc.field(alias), v))
    return out
