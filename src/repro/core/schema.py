"""Schemas for the BaaV model (paper §4.1).

A relational schema ``R(Z)`` is a :class:`RelSchema`; a KV schema
``~R<X, Y>`` is a :class:`KVSchema` with key attributes ``X`` and value
attributes ``Y`` (and optionally a primary key ``W ⊆ XY``). A BaaV
schema ``~R`` is a set of KV schemas (:class:`BaaVSchema`); the
relational schema ``R`` it is mapped from is a :class:`Catalog`.

Attributes are *relation-scoped*: the pair ``(relation, column)``. Per
the paper's convention (§4.1) every KV schema draws its attributes from
a single relation schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

Attr = tuple[str, str]  # (relation-or-alias, column)


@dataclass(frozen=True)
class RelSchema:
    """A relation schema ``R(Z)`` with primary key ``pk ⊆ Z``."""

    name: str
    columns: tuple[str, ...]
    pk: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"{self.name}: duplicate columns")
        if not set(self.pk) <= set(self.columns):
            raise ValueError(f"{self.name}: pk {self.pk} not in columns")

    @property
    def attrs(self) -> frozenset[Attr]:
        return frozenset((self.name, c) for c in self.columns)


@dataclass(frozen=True)
class KVSchema:
    """A KV schema ``~R<X, Y>`` over one relation (paper §4.1).

    ``key`` is ``X``, ``value`` is ``Y``; ``pk`` is the optional primary
    key ``W ⊆ XY`` (tuples in a block are distinct on ``W ∩ Y`` per
    key). When no pk is declared, ``pk_attrs`` falls back to all of
    ``XY`` (the trivial key), which makes the Condition (I)/(III)
    closure rules fire only when the whole schema is already derived.
    """

    relation: str
    key: tuple[str, ...]
    value: tuple[str, ...]
    pk: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError(f"~{self.relation}: empty key")
        if set(self.key) & set(self.value):
            raise ValueError(f"~{self.relation}: key/value overlap")
        if self.pk is not None and not set(self.pk) <= set(self.columns):
            raise ValueError(f"~{self.relation}: pk {self.pk} not in XY")

    @property
    def columns(self) -> tuple[str, ...]:
        """All columns ``XY``, key first."""
        return self.key + self.value

    @property
    def attrs(self) -> frozenset[Attr]:
        """``att(~R)`` as relation-scoped attributes."""
        return frozenset((self.relation, c) for c in self.columns)

    @property
    def pk_cols(self) -> tuple[str, ...]:
        return self.pk if self.pk is not None else self.columns

    @property
    def name(self) -> str:
        return f"~{self.relation}<{','.join(self.key)}|{','.join(self.value)}>"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.name


@dataclass
class Catalog:
    """A relational schema ``R``: the set of relation schemas."""

    relations: dict[str, RelSchema] = field(default_factory=dict)

    @classmethod
    def of(cls, *rels: RelSchema) -> "Catalog":
        return cls({r.name: r for r in rels})

    def __getitem__(self, name: str) -> RelSchema:
        return self.relations[name]

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[RelSchema]:
        return iter(self.relations.values())


@dataclass
class BaaVSchema:
    """A BaaV schema ``~R``: a set of KV schemas (paper §4.1)."""

    schemas: tuple[KVSchema, ...]

    @classmethod
    def of(cls, *kvs: KVSchema) -> "BaaVSchema":
        return cls(tuple(kvs))

    def __iter__(self) -> Iterator[KVSchema]:
        return iter(self.schemas)

    def __len__(self) -> int:
        return len(self.schemas)

    def for_relation(self, relation: str) -> tuple[KVSchema, ...]:
        return tuple(kv for kv in self.schemas if kv.relation == relation)

    def validate_against(self, catalog: Catalog) -> None:
        """Every KV schema must draw its columns from its relation."""
        for kv in self:
            if kv.relation not in catalog:
                raise ValueError(f"{kv.name}: unknown relation {kv.relation}")
            missing = set(kv.columns) - set(catalog[kv.relation].columns)
            if missing:
                raise ValueError(f"{kv.name}: unknown columns {sorted(missing)}")

    def without(self, kv: KVSchema) -> "BaaVSchema":
        return BaaVSchema(tuple(s for s in self.schemas if s != kv))


def qualify(relation_or_alias: str, cols: Iterable[str]) -> frozenset[Attr]:
    """Qualify plain column names with a relation or alias name."""
    return frozenset((relation_or_alias, c) for c in cols)
