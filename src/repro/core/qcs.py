"""QCS — query column sets with known attributes, ``Z[X]`` (paper §8.1).

A QCS ``Z[X]`` abstracts an access pattern of historical query plans: a
plan often accesses attributes ``Z`` of a relation when ``X``-values are
already known (``X ⊆ Z``). QCS drive the T2B schema-design algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

from .closure import chase
from .schema import KVSchema


@dataclass(frozen=True)
class QCS:
    """``Z[X]`` over one relation."""

    relation: str
    Z: tuple[str, ...]
    X: tuple[str, ...]

    def __post_init__(self) -> None:
        if not set(self.X) <= set(self.Z):
            raise ValueError(f"QCS needs X ⊆ Z, got {self.X} ⊄ {self.Z}")

    def initial_kv(self) -> KVSchema:
        """The KV schema ⟨X, Z \\ X⟩ T2B starts from (§8.1 step 1)."""
        value = tuple(c for c in self.Z if c not in self.X)
        return KVSchema(self.relation, tuple(self.X), value)

    def supported_by(self, schemas: list[KVSchema]) -> bool:
        """Whether ``Z[X]`` is supported: starting from the known
        attributes ``X``, all of ``Z`` is reachable by chaining KV
        schemas of this relation (a GET-style closure, §6.1)."""
        rules = [
            (kv.key, kv.columns, kv) for kv in schemas if kv.relation == self.relation
        ]
        return set(self.Z) <= chase(self.X, rules)[0]
