"""Result preservability (paper §5.2, Condition II, Theorems 2–3).

``~R`` is result preserving for SPC ``Q`` iff for each relation
occurrence in ``min(Q)`` there is a KV schema ``~R`` whose closure
``clo(~R, ~R)`` covers ``X^{min(Q)}_R`` — the attributes of that
occurrence used in predicates or the projection.

For RA_aggr queries, result preservability is undecidable; Theorem 3
gives the effective syntax: ``~R`` is result preserving for the class of
RA_aggr queries whose (unique) max SPC sub-query is result preserving.
That is what :func:`is_result_preserving` checks for
:class:`~repro.core.query.GroupByQuery`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .closure import clo
from .minimize import minimize
from .query import Query, SPCQuery
from .schema import BaaVSchema, Catalog, KVSchema, qualify


@dataclass
class PreservationReport:
    """Which KV schema covers each atom of min(Q) (None = uncovered)."""

    minimized: SPCQuery
    cover: dict[str, KVSchema | None]  # alias -> covering KV schema

    @property
    def preserved(self) -> bool:
        return all(kv is not None for kv in self.cover.values())


def result_preservation(
    q: Query, catalog: Catalog, schema: BaaVSchema
) -> PreservationReport:
    """Condition (II) over ``min(Q)``, with the Thm 3 reduction for
    RA_aggr queries."""
    minq = minimize(q, catalog)
    cover: dict[str, KVSchema | None] = {}
    for atom in minq.atoms:
        x_r = minq.attrs_of_alias(atom.alias)
        # Attributes are alias-scoped in the query but relation-scoped in
        # the schema closure; rebase to the relation name for comparison.
        x_r_rel = qualify(atom.relation, (c for _, c in x_r))
        found: KVSchema | None = None
        for kv in schema.for_relation(atom.relation):
            if x_r_rel <= clo(kv, schema):
                found = kv
                break
        cover[atom.alias] = found
    return PreservationReport(minq, cover)


def is_result_preserving(q: Query, catalog: Catalog, schema: BaaVSchema) -> bool:
    """Theorem 2 (SPC) / Theorem 3 (RA_aggr effective syntax)."""
    return result_preservation(q, catalog, schema).preserved
