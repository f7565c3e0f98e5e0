"""Chase-based KBA plan generation (paper §6.2, Theorem 6).

Given a query ``Q`` and a BaaV schema ``~R``, generate a
:class:`~repro.core.plan.KBAPlan`:

1. minimize the (max SPC sub-)query — Condition (II)/(III) are stated
   over ``min(Q)``;
2. :func:`~repro.core.closure.chase` from the constant classes with one
   rule per (unfetched atom, covering KV schema), narrowest cover
   first: key classes ⇒ column classes (the ``GET`` rules, §6.1). The
   first rule fired for an atom is its extension ``∝``;
3. when the chase stalls, the first remaining atom gets a scan leaf
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
from .plan import FetchOp, KBAPlan, PlanOp, ScanOp, SeedOp, rep_col
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


def _attr_map(q: Query, minq: SPCQuery) -> dict[Attr, Attr]:
    """Original attr -> minq attr, positionally via the projection."""
    orig = spc_of(q)
    return dict(zip(orig.projection, minq.projection))


def generate_plan(q: Query, catalog: Catalog, schema: BaaVSchema) -> KBAPlan:
    """Generate a KBA plan for ``q`` over ``~R`` (Theorem 6)."""
    spc = spc_of(q)
    minq = minimize(spc, catalog)
    ec = minq.eq_classes()

    covers = {a.alias: _covers(minq, schema, a) for a in minq.atoms}
    for alias, kvs in covers.items():
        if not kvs:
            raise NotAnswerable(
                f"no single KV schema covers X_Q of atom {alias}; "
                "plans fetch each atom from one KV schema"
            )

    ops: list[PlanOp] = []
    # Seeds: one frontier column per constant class.
    seed_cols: dict[str, object] = {}
    for a, v in minq.const:
        seed_cols[rep_col(ec.find(a))] = v
    if seed_cols:
        ops.append(SeedOp(tuple(sorted(seed_cols.items()))))

    def classes(atom: Atom, cols: tuple[str, ...]) -> frozenset[Attr]:
        return frozenset(ec.find((atom.alias, c)) for c in cols)

    known = frozenset(ec.find(a) for a, _ in minq.const)
    remaining: list[Atom] = list(minq.atoms)
    while True:
        # Chase the unfetched atoms' covers, narrowest first: the first
        # rule fired for an atom is its extension ∝.
        rules = [
            (classes(atom, kv.key), classes(atom, kv.columns), (atom, kv))
            for atom in remaining
            for kv in covers[atom.alias]
        ]
        known, fired = chase(known, rules)
        for atom, kv in fired:
            if atom in remaining:
                key_cols = tuple(
                    (c, rep_col(ec.find((atom.alias, c)))) for c in kv.key
                )
                ops.append(FetchOp(atom, kv, key_cols))
                remaining.remove(atom)
        if not remaining:
            break
        # The chase stalled: scan the first remaining atom (stable atom
        # order, not a cost-based choice) and chase on from its classes.
        atom = remaining.pop(0)
        kv = covers[atom.alias][0]
        ops.append(ScanOp(atom, kv))
        known |= classes(atom, kv.columns)

    return KBAPlan(
        query=q,
        minq=minq,
        ec=ec,
        ops=tuple(ops),
        attr_map=_attr_map(q, minq),
    )


def plan_is_bounded(
    plan: KBAPlan, degrees: dict[KVSchema, int], c: int
) -> bool:
    """Boundedness of a *plan* over a store (§6.1 corollary): scan-free
    and every fetched instance has degree ≤ c — then the plan touches at
    most ``O(∏ deg)`` values, independent of |D|."""
    if not plan.scan_free:
        return False
    return all(degrees.get(kv, 0) <= c for kv in plan.fetch_schemas)
