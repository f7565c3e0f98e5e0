"""Chase-based KBA plan generation (paper §6.2, Theorem 6).

Given a query ``Q`` and a BaaV schema ``~R``, generate a
:class:`~repro.core.plan.KBAPlan`:

1. minimize the (max SPC sub-)query under the query's bag or set
   semantics — Condition (II)/(III) are stated over ``min(Q)``;
2. name one frontier column per equality class of ``min(Q)``
   (:func:`rep_col`) and map every attribute the plan reads to it
   (``KBAPlan.col``); each constant class seeds the values its
   constants allow (``EqClasses.const_of``), none if they contradict;
3. :func:`~repro.core.closure.chase` from the constant classes with one
   rule per (unfetched atom, covering KV schema), narrowest cover
   first: key classes ⇒ column classes (the ``GET`` rules, §6.1). The
   first rule fired for an atom is its extension ``∝``;
4. when the chase stalls, the first remaining atom gets a scan leaf
   over its narrowest cover (rule (3) of §6.2) and the chase resumes
   from its attributes (scan-free *sub-plans* of non-scan-free
   queries, §5.1).

Per DESIGN.md, an atom is "covered" by a single KV schema with
``X^{min(Q)}_R ⊆ att(~R)``. This is module M1's gate: it implies the
clo-based Condition (II) but not the reverse, so a query that is result
preserving only through several KV schemas of one atom raises
:class:`NotAnswerable`. The generated plan is scan-free iff no scan
leaf was needed; by Theorem 6 this coincides with Condition (III) for
schemas with single covers (all workload schemas).
"""
from __future__ import annotations

from .closure import chase
from .minimize import minimize
from .plan import FetchOp, KBAPlan, PlanOp, ScanOp, SeedOp
from .query import Atom, Query, SPCQuery, spc_of
from .schema import Attr, BaaVSchema, Catalog, KVSchema


class NotAnswerable(Exception):
    """Some atom of ``min(Q)`` has no single covering KV schema (module
    M1 routes the query to the plain SQL layer)."""


def _covers(minq: SPCQuery, schema: BaaVSchema, atom: Atom) -> list[KVSchema]:
    """KV schemas that can fetch this atom: att(~R) ⊇ X^minQ_R.

    Sorted narrowest-first so fetches move the least data.
    """
    need = {c for (al, c) in minq.attrs_of_alias(atom.alias) if al == atom.alias}
    out = [
        kv
        for kv in schema.for_relation(atom.relation)
        if need <= set(kv.columns)
    ]
    return sorted(out, key=lambda kv: (len(kv.columns), kv.name))


def rep_col(rep: Attr) -> str:
    """Frontier column name for a class representative."""
    return f"{rep[0]}__{rep[1]}"


def generate_plan(q: Query, catalog: Catalog, schema: BaaVSchema) -> KBAPlan:
    """Generate a KBA plan for ``q`` over ``~R`` (Theorem 6). An invalid
    query raises ``ValueError`` before any planning."""
    q.validate(catalog)
    spc = spc_of(q)
    minq = minimize(q, catalog)
    ec = minq.eq_classes()
    # The frontier column of every attribute of min(Q)'s atoms, and of
    # each projected attribute of Q through its image in min(Q).
    col = {
        (a.alias, c): rep_col(ec.find((a.alias, c)))
        for a in minq.atoms
        for c in catalog[a.relation].columns
    }
    for orig, a in zip(spc.projection, minq.projection):
        col.setdefault(orig, col[a])

    covers = {a.alias: _covers(minq, schema, a) for a in minq.atoms}
    for alias, kvs in covers.items():
        if not kvs:
            raise NotAnswerable(
                f"no single KV schema covers X_Q of atom {alias}; "
                "plans fetch each atom from one KV schema"
            )

    ops: list[PlanOp] = []
    # Seeds: one frontier column per constant class, holding the values
    # all of its constants allow (``()`` seeds no row).
    seeds = {col[a]: ec.const_of(a) for a, _ in minq.const}
    if seeds:
        ops.append(SeedOp(tuple(sorted(seeds.items()))))

    def columns(atom: Atom, cols: tuple[str, ...]) -> frozenset[str]:
        return frozenset(col[(atom.alias, c)] for c in cols)

    known = frozenset(seeds)
    remaining: list[Atom] = list(minq.atoms)
    while True:
        # Chase the unfetched atoms' covers, narrowest first: the first
        # rule fired for an atom is its extension ∝.
        rules = [
            (columns(atom, kv.key), columns(atom, kv.columns), (atom, kv))
            for atom in remaining
            for kv in covers[atom.alias]
        ]
        known, fired = chase(known, rules)
        for atom, kv in fired:
            if atom in remaining:
                ops.append(FetchOp(atom, kv))
                remaining.remove(atom)
        if not remaining:
            break
        # The chase stalled: scan the first remaining atom (stable atom
        # order, not a cost-based choice) and chase on from its columns.
        atom = remaining.pop(0)
        kv = covers[atom.alias][0]
        ops.append(ScanOp(atom, kv))
        known |= columns(atom, kv.columns)

    return KBAPlan(query=q, minq=minq, ops=tuple(ops), col=col)


def plan_is_bounded(
    plan: KBAPlan, degrees: dict[KVSchema, int], c: int
) -> bool:
    """Boundedness of a *plan* over a store (§6.1 corollary): scan-free
    and every fetched instance has degree ≤ c — then the plan touches at
    most ``O(∏ deg)`` values, independent of |D|."""
    if not plan.scan_free:
        return False
    return all(degrees.get(kv, 0) <= c for kv in plan.fetch_schemas)
