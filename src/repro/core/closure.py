"""The chase, attribute closure and data preservability (paper §5.2).

:func:`chase` is the one fixpoint behind every "once the key is known,
the attributes are known" rule in this package: ``clo`` (§5.2),
``GET(Q, ~R)`` and its chasing sequence (§6.1), KBA plan generation
(§6.2, which by Thm 6 *is* that sequence) and QCS support (§8.1).

``clo(~R, ~R)`` is the closure of ``att(~R)`` under the rule: if
``pk(~R') ⊆ clo`` for some KV schema ``~R'`` then ``att(~R') ⊆ clo``.
Attributes are relation-scoped, so propagation stays within one
relation's KV schemas (each KV schema draws from one relation, §4.1).

Condition (I): ``~R`` is data preserving for ``R`` iff every relation
``R ∈ R`` has some ``~R ∈ ~R`` with ``att(R) = clo(~R, ~R)``
(Theorem 1). The check runs in O(|R| |~R|^2) as in the paper.
"""
from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from .schema import Attr, BaaVSchema, Catalog, KVSchema, qualify

T = TypeVar("T", bound=Hashable)
Tag = TypeVar("Tag")


def chase(
    known: Iterable[T], rules: Iterable[tuple[Iterable[T], Iterable[T], Tag]]
) -> tuple[frozenset[T], list[Tag]]:
    """Fire each ``(premise, conclusion, tag)`` rule once its premise is
    known, in rule order, until a fixpoint.

    Returns the known set and the tags of the fired rules in firing
    order. A rule fires at most once, even if it adds nothing new.
    """
    out = set(known)
    pending = [(frozenset(p), frozenset(c), tag) for p, c, tag in rules]
    fired: list[Tag] = []
    changed = True
    while changed:
        changed = False
        for rule in list(pending):
            premise, conclusion, tag = rule
            if premise <= out:
                pending.remove(rule)
                fired.append(tag)
                if not conclusion <= out:
                    out |= conclusion
                    changed = True
    return frozenset(out), fired


def clo(kv: KVSchema, schemas: Iterable[KVSchema]) -> frozenset[Attr]:
    """``clo(~R, ~R)`` per Condition (I)'s inductive definition."""
    rules = [(qualify(s.relation, s.pk_cols), s.attrs, s) for s in schemas]
    return chase(kv.attrs, rules)[0]


def preserved_relations(catalog: Catalog, schema: BaaVSchema) -> dict[str, bool]:
    """Per-relation data preservability: relation -> whether some KV
    schema's closure recovers all its attributes."""
    report: dict[str, bool] = {}
    for rel in catalog:
        ok = False
        for kv in schema.for_relation(rel.name):
            if clo(kv, schema) >= rel.attrs:
                ok = True
                break
        report[rel.name] = ok
    return report


def is_data_preserving(catalog: Catalog, schema: BaaVSchema) -> bool:
    """Condition (I) / Theorem 1."""
    return all(preserved_relations(catalog, schema).values())
