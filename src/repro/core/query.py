"""Query IR: SPC queries and RA_aggr (group-by aggregate) queries.

The IR is the single source of truth for a workload query. From it we
derive (a) SQL text — identical for the DuckDB oracle and the Spark
baseline, so results are comparable bit-for-bit; and (b) the structures
the Zidian decision procedures reason over (atoms, equality classes,
constant selections, per-relation attribute sets ``X^Q_R``).

An SPC query (paper §5.2) is a select-project-cross query::

    π_projection σ_(eq ∧ const ∧ filters) (R1 × ... × Rn)

- ``atoms``: relation occurrences with aliases (self-joins allowed);
- ``eq``: attribute-equality predicates (joins);
- ``const``: constant-equality predicates ``A = c`` (a tuple value is an
  ``IN``-list, treated as a multi-key constant seed per DESIGN.md);
- ``filters``: residual non-equality predicates ``A op c``; these do not
  seed ``GET`` but their attributes count toward ``X^Q_R``.

An RA_aggr query (paper §5.2) wraps an SPC query with group-by and
aggregates; the SPC part is its unique *max SPC sub-query*, which is
what Theorems 3 and 5 reason over.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .schema import Attr, Catalog

_OPS = {"<", "<=", ">", ">=", "<>"}
_AGGS = {"sum", "count", "min", "max", "avg"}


def attr_name(a: Attr) -> str:
    """Output-column name for an attribute: ``alias_column``."""
    return f"{a[0]}_{a[1]}"


def _sql_literal(v: object) -> str:
    import datetime as _dt

    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, _dt.datetime):  # before date: datetime is a date
        return f"TIMESTAMP '{v:%Y-%m-%d %H:%M:%S}'"
    if isinstance(v, _dt.date):
        return f"DATE '{v:%Y-%m-%d}'"
    return repr(v)


@dataclass(frozen=True)
class Atom:
    """A relation occurrence ``relation AS alias``."""

    alias: str
    relation: str


@dataclass(frozen=True)
class Filter:
    """A residual predicate ``attr op value`` with op in <,<=,>,>=,<>."""

    attr: Attr
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"bad filter op {self.op!r}")

    def to_sql(self) -> str:
        return f"{self.attr[0]}.{self.attr[1]} {self.op} {_sql_literal(self.value)}"


@dataclass(frozen=True)
class Aggregate:
    """``func(arg) AS alias``.

    ``attr=None`` means ``count(*)``. ``expr`` optionally replaces the
    bare attribute with an arithmetic template over several attributes
    (e.g. TPC-H revenue ``sum(extendedprice * (1 - discount))``):
    ``expr = (template, attrs)`` where the template's ``{i}`` slots are
    filled with the rendered attributes.
    """

    func: str
    attr: Attr | None
    alias: str
    expr: tuple[str, tuple[Attr, ...]] | None = None

    def __post_init__(self) -> None:
        if self.func not in _AGGS:
            raise ValueError(f"bad aggregate {self.func!r}")
        if self.attr is None and self.expr is None and self.func != "count":
            raise ValueError("only count may omit its attribute")

    @property
    def attrs(self) -> tuple[Attr, ...]:
        """All attributes the aggregate consumes."""
        if self.expr is not None:
            return self.expr[1]
        return () if self.attr is None else (self.attr,)

    def arg_sql(self) -> str:
        if self.expr is not None:
            tmpl, attrs = self.expr
            return tmpl.format(*[f"{a[0]}.{a[1]}" for a in attrs])
        return "*" if self.attr is None else f"{self.attr[0]}.{self.attr[1]}"

    def to_sql(self) -> str:
        return f"{self.func}({self.arg_sql()}) AS {self.alias}"


@dataclass(frozen=True)
class SPCQuery:
    """A select-project-cross query (conjunctive query + filters)."""

    atoms: tuple[Atom, ...]
    eq: tuple[tuple[Attr, Attr], ...] = ()
    const: tuple[tuple[Attr, object], ...] = ()
    filters: tuple[Filter, ...] = ()
    projection: tuple[Attr, ...] = ()
    distinct: bool = False

    # -- structure ---------------------------------------------------
    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(a.alias for a in self.atoms)

    def validate(self, catalog: Catalog) -> None:
        """Check aliases are unique, every relation is in the catalog and
        every attribute exists."""
        if len(set(self.aliases)) != len(self.aliases):
            raise ValueError(f"duplicate aliases in {self.aliases}")
        if missing := sorted({a.relation for a in self.atoms} - catalog.relations.keys()):
            raise ValueError(f"unknown relations {missing}")
        columns = {a.alias: catalog[a.relation].columns for a in self.atoms}
        for attr in sorted(self.all_attrs()):
            if attr[0] not in columns:
                raise ValueError(f"unknown alias in {attr}")
            if attr[1] not in columns[attr[0]]:
                raise ValueError(f"unknown column in {attr}")

    def all_attrs(self) -> frozenset[Attr]:
        """Every attribute mentioned anywhere in the query."""
        out: set[Attr] = set(self.projection)
        for a, b in self.eq:
            out |= {a, b}
        out |= {a for a, _ in self.const}
        out |= {f.attr for f in self.filters}
        return frozenset(out)

    def attrs_of_alias(self, alias: str) -> frozenset[Attr]:
        """``X^Q_R``: attrs of one atom in predicates or the projection
        (paper §5.2)."""
        return frozenset(a for a in self.all_attrs() if a[0] == alias)

    # -- equality classes --------------------------------------------
    def eq_classes(self) -> "EqClasses":
        return EqClasses.build(self.eq, self.const)

    # -- SQL ---------------------------------------------------------
    def from_where_sql(self) -> str:
        """`` FROM … [WHERE …]``, shared with a group-by over this query."""
        frm = ", ".join(f"{a.relation} AS {a.alias}" for a in self.atoms)
        conds = [f"{a[0]}.{a[1]} = {b[0]}.{b[1]}" for a, b in self.eq]
        for a, v in self.const:
            if isinstance(v, tuple):  # SQL has no empty IN-list: IN () is false
                vals = ", ".join(_sql_literal(x) for x in v)
                conds.append(f"{a[0]}.{a[1]} IN ({vals})" if v else "FALSE")
            else:
                conds.append(f"{a[0]}.{a[1]} = {_sql_literal(v)}")
        conds += [f.to_sql() for f in self.filters]
        sql = f" FROM {frm}"
        if conds:
            sql += " WHERE " + " AND ".join(conds)
        return sql

    def to_sql(self) -> str:
        sel = ", ".join(
            f"{a[0]}.{a[1]} AS {attr_name(a)}" for a in self.projection
        )
        head = "SELECT DISTINCT" if self.distinct else "SELECT"
        return f"{head} {sel}{self.from_where_sql()}"


@dataclass(frozen=True)
class GroupByQuery:
    """RA_aggr: ``group_by(base, group_by, agg_1..agg_m)`` (paper §5.2).

    ``base.projection`` is ignored for SQL output; the output relation
    is ``group_by ∪ aggregates`` as in the paper. ``having`` restricts
    groups on aggregate aliases.
    """

    base: SPCQuery
    group_by: tuple[Attr, ...]
    aggs: tuple[Aggregate, ...]
    having: tuple[tuple[str, str, object], ...] = ()  # (agg_alias, op, value)

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self.base.atoms

    def needed_attrs(self) -> frozenset[Attr]:
        """Attrs the aggregate layer needs from the SPC part."""
        out = set(self.group_by)
        for g in self.aggs:
            out |= set(g.attrs)
        return frozenset(out)

    def max_spc_subquery(self) -> SPCQuery:
        """The unique max SPC sub-query: the base with projection widened
        to everything the group-by layer consumes (Thms 3 and 5 reason
        over this)."""
        proj = tuple(sorted(self.needed_attrs() | set(self.base.projection)))
        return replace(self.base, projection=proj, distinct=False)

    def validate(self, catalog: Catalog) -> None:
        self.max_spc_subquery().validate(catalog)
        agg_aliases = {g.alias for g in self.aggs}
        for alias, op, _ in self.having:
            if alias not in agg_aliases or op not in _OPS | {"="}:
                raise ValueError(f"bad having clause ({alias}, {op})")

    def to_sql(self) -> str:
        sel_parts = [f"{a[0]}.{a[1]} AS {attr_name(a)}" for a in self.group_by]
        sel_parts += [g.to_sql() for g in self.aggs]
        sql = "SELECT " + ", ".join(sel_parts) + self.base.from_where_sql()
        if self.group_by:
            sql += " GROUP BY " + ", ".join(
                f"{a[0]}.{a[1]}" for a in self.group_by
            )
        if self.having:
            conds = [
                f"{g.func}({g.arg_sql()}) {op} {_sql_literal(v)}"
                for alias, op, v in self.having
                for g in self.aggs
                if g.alias == alias
            ]
            sql += " HAVING " + " AND ".join(conds)
        return sql


Query = SPCQuery | GroupByQuery


def spc_of(q: Query) -> SPCQuery:
    """The (max) SPC sub-query of ``q``."""
    return q.max_spc_subquery() if isinstance(q, GroupByQuery) else q


class EqClasses:
    """Union-find over query attributes induced by ``eq`` and ``const``.

    Two attributes in one class are interchangeable (equality
    transitivity, rule (b) of ``GET`` in paper §6.1). A class may carry
    a constant: the values that satisfy all of its const predicates, a
    scalar or an ``IN``-tuple, and ``()`` when they contradict.
    """

    def __init__(self) -> None:
        self._parent: dict[Attr, Attr] = {}
        self._const: dict[Attr, object] = {}

    @classmethod
    def build(
        cls,
        eq: Iterable[tuple[Attr, Attr]],
        const: Iterable[tuple[Attr, object]],
    ) -> "EqClasses":
        ec = cls()
        for a, b in eq:
            ec._union(a, b)
        for a, v in const:
            # A class keeps the values all its constants allow; meeting a
            # constant with itself de-duplicates an IN-list.
            root = ec.find(a)
            ec._const[root] = _meet(ec._const.get(root, v), v)
        return ec

    def find(self, a: Attr) -> Attr:
        p = self._parent
        if a not in p:
            return a
        root = a
        while p[root] != root:
            root = p[root]
        while p[a] != root:  # path compression
            a, p[a] = p[a], root
        return root

    def _union(self, a: Attr, b: Attr) -> None:
        ra, rb = self.find(a), self.find(b)
        self._parent.setdefault(ra, ra)
        self._parent.setdefault(rb, rb)
        if ra != rb:
            self._parent[rb] = ra

    def const_of(self, a: Attr) -> object | None:
        return self._const.get(self.find(a))


def _meet(a: object, b: object) -> object:
    """The values both constants allow (each a scalar or an ``IN``-tuple):
    a scalar if either is one, else an ``IN``-tuple in ``a``'s order
    without duplicates; ``()`` if none."""
    bs = b if isinstance(b, tuple) else (b,)
    both = tuple(dict.fromkeys(x for x in (a if isinstance(a, tuple) else (a,)) if x in bs))
    if isinstance(a, tuple) and isinstance(b, tuple):
        return both
    return both[0] if both else ()
