"""SPC query minimization ``min(Q)`` (paper §5.2).

Classical conjunctive-query minimization by endomorphism search
(Chandra–Merlin; see [3] in the paper): ``Q ≡ Q \\ {a}`` iff there is a
homomorphism from ``Q`` into ``Q \\ {a}`` that fixes the distinguished
terms, and the core is reached by removing one atom at a time. Under bag
semantics equivalence needs isomorphism (Chaudhuri & Vardi, PODS 1993),
so an atom is folded only where duplicates cannot matter (DISTINCT, or
only ``min``/``max`` aggregates) or where its primary key is equated
with another atom's of its relation: both bind one tuple (Example 5).

Distinguished terms are the equality classes of projected attributes,
constants (including ``IN``-lists), and attributes used in residual
filters / group-by / aggregates — removing an atom may not lose any of
them. Queries here have at most a handful of atoms, so exhaustive
backtracking is exact and fast (the problem is NP-complete in general,
as the paper notes).
"""
from __future__ import annotations

from dataclasses import replace

from .query import Atom, Filter, GroupByQuery, Query, SPCQuery, spc_of
from .schema import Attr, Catalog

# A term is ("const", value) or ("var", class-representative-Attr).
Term = tuple[str, object]


def _terms(
    q: SPCQuery, catalog: Catalog
) -> tuple[dict[tuple[str, str], Term], set[Term]]:
    """Term per (alias, column) plus the distinguished-term set."""
    ec = q.eq_classes()
    terms: dict[tuple[str, str], Term] = {}
    for atom in q.atoms:
        for col in catalog[atom.relation].columns:
            a: Attr = (atom.alias, col)
            c = ec.const_of(a)
            if c is not None and not isinstance(c, tuple):
                terms[a] = ("const", c)
            else:
                terms[a] = ("var", ec.find(a))
    distinguished: set[Term] = set()
    for a in q.all_attrs():
        distinguished.add(terms[a])
    return terms, distinguished


def _find_hom(
    q: SPCQuery,
    catalog: Catalog,
    keep: list[Atom],
    terms: dict[tuple[str, str], Term],
    distinguished: set[Term],
) -> dict[Term, Term] | None:
    """A homomorphism from ``q`` into the sub-query on ``keep`` atoms,
    fixing constants and distinguished variables; ``None`` if none."""

    def unify(src: Atom, tgt: Atom, h: dict[Term, Term]) -> dict[Term, Term] | None:
        h = dict(h)
        for col in catalog[src.relation].columns:
            s, t = terms[(src.alias, col)], terms[(tgt.alias, col)]
            if s[0] == "const":
                if t != s:
                    return None
            else:  # variable
                if s in distinguished:
                    if t != s:
                        return None
                elif s in h:
                    if h[s] != t:
                        return None
                else:
                    h[s] = t
        return h

    def bt(i: int, h: dict[Term, Term]) -> dict[Term, Term] | None:
        if i == len(q.atoms):
            return h
        src = q.atoms[i]
        for tgt in keep:
            if tgt.relation != src.relation:
                continue
            h2 = unify(src, tgt, h)
            if h2 is not None:
                out = bt(i + 1, h2)
                if out is not None:
                    return out
        return None

    return bt(0, {})


def _rebuild(
    q: SPCQuery, catalog: Catalog, keep: list[Atom], terms: dict[tuple[str, str], Term]
) -> SPCQuery:
    """Rewrite ``q`` over the kept atoms: remap every attribute to an
    occurrence of the same term among kept atoms, then regenerate the
    equality predicates from shared terms."""
    kept = [(atom.alias, col) for atom in keep for col in catalog[atom.relation].columns]
    occ: dict[Term, Attr] = {}
    for a in kept:
        occ.setdefault(terms[a], a)

    def remap(a: Attr) -> Attr:
        t = terms[a]
        if t not in occ:
            raise ValueError(f"distinguished attribute {a} lost in minimization")
        return occ[t]

    # Equality predicates: equate every kept occurrence of a term with its
    # first. A constant's occurrences too: its predicate is remapped to
    # the first occurrence only, and the equalities carry it to the rest.
    eq = [(remap(a), a) for a in kept if remap(a) != a]

    filters = tuple(
        Filter(remap(f.attr), f.op, f.value) for f in q.filters
    )
    projection = tuple(remap(a) for a in q.projection)
    return replace(
        q,
        atoms=tuple(keep),
        eq=tuple(eq),
        const=tuple(dict.fromkeys((remap(a), v) for a, v in q.const)),
        filters=tuple(dict.fromkeys(filters)),
        projection=projection,
    )


def minimize(q: Query, catalog: Catalog) -> SPCQuery:
    """``min(Q)``: the minimal SPC query equivalent to ``q`` (to the max
    SPC sub-query of a group-by) under ``q``'s bag or set semantics."""
    cur = spc_of(q)
    sets = cur.distinct or isinstance(q, GroupByQuery) and all(
        g.func in ("min", "max") for g in q.aggs
    )
    changed = True
    while changed and len(cur.atoms) > 1:
        changed = False
        terms, distinguished = _terms(cur, catalog)
        for drop in cur.atoms:
            keep = [a for a in cur.atoms if a is not drop]
            pk = catalog[drop.relation].pk
            twin = pk and any(  # another atom of the relation with the same key
                a.relation == drop.relation
                and all(terms[(drop.alias, k)] == terms[(a.alias, k)] for k in pk)
                for a in keep
            )
            if not (sets or twin):
                continue
            if _find_hom(cur, catalog, keep, terms, distinguished) is not None:
                cur = _rebuild(cur, catalog, keep, terms)
                changed = True
                break
    return cur
