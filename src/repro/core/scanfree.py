"""Scan-free query characterization (paper §6.1).

- ``GET(Q, ~R)``: attributes of ``Q`` retrievable from ``~R`` with
  scan-free plans, computed as a fixpoint over equality classes:
  (a) constant attributes seed the set; (b) equality transitivity is
  built into the classes; (c) if all key attributes of a KV schema are
  retrievable for some atom, its value attributes become retrievable.
  Each rule-(c) application is recorded as a :class:`ChaseStep` — the
  chasing sequence that §6.2 turns into a KBA plan.
- ``VC(Q, ~R)``: verifiable combinations — for every KV schema fully
  inside ``GET`` (per atom), the closure of its attributes within those
  schemas.
- Condition (III) / Theorem 4: SPC ``Q`` is scan-free iff every atom of
  ``min(Q)`` has ``X^{min(Q)}_R ⊆ W`` for some ``W ∈ VC(min(Q), ~R)``.
- Theorem 5 (effective syntax): an RA_aggr query is scan-free iff its
  max SPC sub-query is.

Rules (a)–(c) run on :func:`~repro.core.closure.chase`. Boundedness
(§6.1 corollary: scan-free + fetched instances of degree ≤ c) is a
property of the generated plan over a store:
:func:`~repro.core.plangen.plan_is_bounded`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .closure import chase, clo as _rel_clo
from .minimize import minimize
from .query import Atom, EqClasses, Query, SPCQuery
from .schema import Attr, BaaVSchema, Catalog, KVSchema


@dataclass(frozen=True)
class ChaseStep:
    """One rule-(c) application: fetch ``kv`` blocks for ``atom`` using
    the (already retrievable) key classes."""

    atom: Atom
    kv: KVSchema

    def key_attrs(self) -> frozenset[Attr]:
        return frozenset((self.atom.alias, c) for c in self.kv.key)

    def produced_attrs(self) -> frozenset[Attr]:
        return frozenset((self.atom.alias, c) for c in self.kv.columns)


@dataclass
class GetResult:
    """``GET(Q, ~R)`` as a set of class representatives + the trace."""

    classes: frozenset[Attr]  # class representatives in GET
    trace: tuple[ChaseStep, ...]
    ec: EqClasses

    def contains(self, a: Attr) -> bool:
        return self.ec.find(a) in self.classes


def get_closure(q: SPCQuery, schema: BaaVSchema) -> GetResult:
    """Compute ``GET(Q, ~R)`` and the chasing sequence (§6.1).

    ``IN``-list constants seed like equality constants (multi-key get,
    DESIGN.md). The fixpoint applies rule (c) deterministically (atom
    order, then schema order) so the trace is stable across runs — all
    chasing sequences converge to the same GET/VC (Theorem 6 / [2]).
    """
    ec = q.eq_classes()
    rules = []
    for atom in q.atoms:
        for kv in schema.for_relation(atom.relation):
            step = ChaseStep(atom, kv)
            keys = {ec.find(a) for a in step.key_attrs()}
            rules.append((keys, {ec.find(a) for a in step.produced_attrs()}, step))
    # rule (a): classes carrying a constant
    classes, trace = chase((ec.find(a) for a, _ in q.const), rules)
    return GetResult(classes, tuple(trace), ec)


def vc(q: SPCQuery, schema: BaaVSchema, get: GetResult | None = None) -> list[frozenset[Attr]]:
    """``VC(Q, ~R)``: verifiable combinations (§6.1), alias-qualified.

    ``~R_Q`` is the set of (atom, KV schema) pairs fully inside GET;
    each contributes ``clo(~S, ~R_Q)`` computed over that atom's
    qualifying schemas (attributes are alias-scoped, so the closure
    stays within one atom — cf. Example 6).
    """
    if get is None:
        get = get_closure(q, schema)
    out: list[frozenset[Attr]] = []
    for atom in q.atoms:
        qualifying = [
            kv
            for kv in schema.for_relation(atom.relation)
            if all(get.contains((atom.alias, c)) for c in kv.columns)
        ]
        for kv in qualifying:
            w = _rel_clo(kv, qualifying)  # relation-scoped closure
            out.append(frozenset((atom.alias, c) for _, c in w))
    # dedupe, keep deterministic order
    seen: list[frozenset[Attr]] = []
    for w in out:
        if w not in seen:
            seen.append(w)
    return seen


@dataclass
class ScanFreeReport:
    """Condition (III) evaluation over min(Q)."""

    minimized: SPCQuery
    get: GetResult
    vc_sets: list[frozenset[Attr]]
    uncovered: tuple[str, ...]  # aliases violating Condition (III)

    @property
    def scan_free(self) -> bool:
        return not self.uncovered


def scan_free_report(q: Query, catalog: Catalog, schema: BaaVSchema) -> ScanFreeReport:
    """Theorem 4 (SPC) / Theorem 5 (RA_aggr via the max SPC sub-query)."""
    minq = minimize(q, catalog)
    get = get_closure(minq, schema)
    vcs = vc(minq, schema, get)
    uncovered = []
    for atom in minq.atoms:
        x_r = minq.attrs_of_alias(atom.alias)
        if not any(x_r <= w for w in vcs):
            uncovered.append(atom.alias)
    return ScanFreeReport(minq, get, vcs, tuple(uncovered))


def is_scan_free(q: Query, catalog: Catalog, schema: BaaVSchema) -> bool:
    return scan_free_report(q, catalog, schema).scan_free
