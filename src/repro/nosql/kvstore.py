"""Metered key-value storage substrate (simulated NoSQL layer).

The paper's storage layer (HBase/Kudu/Cassandra) exposes ``get``,
``put`` and ``next`` (paper §3). Here the storage layer is simulated
in-process over Spark DataFrames, and — crucially for Table 2 — every
access path is *metered*:

- ``#get``    — one per key probed (BaaV) or per tuple (TaaV scans);
- ``#data``   — attribute values read from storage;
- ``comm``    — bytes shipped between the storage and SQL layers,
                including keys shipped down for interleaved fetches;
- ``scans``   — number of full-instance scans (scan-free plans must
                keep this at 0, Proposition 7).

Value widths follow DESIGN.md §5: 8 bytes for numerics/dates/booleans,
16 bytes for strings.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core import baav
from ..core.schema import BaaVSchema, KVSchema

_STRING_BYTES = 16.0
_SCALAR_BYTES = 8.0

def col_width(dtype: T.DataType) -> float:
    """Estimated serialized width of one value, in bytes."""
    return _STRING_BYTES if isinstance(dtype, T.StringType) else _SCALAR_BYTES


def row_width(df: DataFrame, cols: list[str] | None = None) -> float:
    fields = {f.name: f.dataType for f in df.schema.fields}
    names = cols if cols is not None else list(fields)
    return float(sum(col_width(fields[c]) for c in names))


@dataclass
class Meter:
    """Access counters for one query execution."""

    gets: int = 0
    puts: int = 0
    scans: int = 0
    data_values: int = 0
    keys_shipped: int = 0
    comm_bytes: float = 0.0

    def reset(self) -> None:
        self.gets = self.puts = self.scans = 0
        self.data_values = self.keys_shipped = 0
        self.comm_bytes = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "gets": self.gets,
            "puts": self.puts,
            "scans": self.scans,
            "data_values": self.data_values,
            "keys_shipped": self.keys_shipped,
            "comm_bytes": self.comm_bytes,
        }


class KVInstance:
    """One metered KV instance ~D of a KV schema ~R<X,Y> (BaaV).

    Physically the flattened relational version, hash-partitioned by the
    key — the DHT of the paper. ``block_sizes`` is the storage layer's
    index key → |B_k|; every meter charge is read from it. ``fetch`` is
    the multi-get primitive: one ``get`` per distinct key, returning
    whole blocks. ``scan`` iterates all keys (one ``get`` per block,
    after a ``next()`` walk).
    """

    def __init__(self, kv: KVSchema, df: DataFrame, meter: Meter) -> None:
        self.kv = kv
        self.meter = meter
        self.df = baav.map_relation(df, kv).persist()
        self._row_w = row_width(self.df)
        self._key_w = row_width(self.df, list(kv.key))

    # -- size stats (not metered: schema-design-time information) ----
    @cached_property
    def block_sizes(self) -> dict[tuple, int]:
        return baav.block_sizes(self.df, self.kv)

    @property
    def n_rows(self) -> int:
        return sum(self.block_sizes.values())

    @property
    def n_keys(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def degree(self) -> int:
        """deg(~D) — max block size (paper §4.1). Cached: every answer's
        bound check reads it."""
        return max(self.block_sizes.values(), default=0)

    @property
    def size_bytes(self) -> float:
        return self.n_rows * self._row_w

    def _rows_of(self, keys: Iterable[tuple]) -> int:
        """Tuples stored under ``keys``; a key with a null matches none,
        as in a join."""
        sizes = self.block_sizes
        return sum(sizes.get(k, 0) for k in keys if None not in k)

    # -- metered access ----------------------------------------------
    def fetch(self, keys: DataFrame) -> DataFrame:
        """Multi-get: retrieve the blocks for the given key tuples.

        ``keys`` must have exactly the key columns of the schema. Its
        distinct keys are collected once and shipped to the storage
        nodes as a broadcast relation (§7.2 step (b)); the result is the
        lazy join of the instance with them. One ``get`` is charged per
        distinct key; ``comm`` is charged for the keys shipped down plus
        the block bytes shipped back (§7.2 interleaving).
        """
        if set(keys.columns) != set(self.kv.key):
            raise ValueError(
                f"fetch keys {keys.columns} != schema key {self.kv.key}"
            )
        kdf = keys.select(*self.kv.key)
        distinct = [tuple(r) for r in kdf.distinct().collect()]
        n_keys = len(distinct)
        n_rows = self._rows_of(distinct)
        m = self.meter
        m.gets += n_keys
        m.keys_shipped += n_keys
        m.data_values += n_rows * len(self.kv.columns)
        m.comm_bytes += n_keys * self._key_w + n_rows * self._row_w
        shipped = kdf.sparkSession.createDataFrame(distinct, schema=kdf.schema)
        return self.df.join(F.broadcast(shipped), on=list(self.kv.key), how="inner")

    def scan(self) -> DataFrame:
        """Full scan: iterate all keys via ``next()`` and get every
        block. Under BaaV this costs one get per *block* (data
        locality), not per tuple."""
        n_rows = self.n_rows
        m = self.meter
        m.scans += 1
        m.gets += self.n_keys
        m.data_values += n_rows * len(self.kv.columns)
        m.comm_bytes += n_rows * self._row_w
        return self.df

    def put(self, rows: DataFrame) -> None:
        """Metered write path (throughput experiments): the client issues
        one put per updated tuple; when the key already exists the
        middleware must rewrite the whole block (the paper's §9 Exp-4
        reason BaaV write throughput is slightly below TaaV's)."""
        written = baav.block_sizes(rows, self.kv)
        n_new = sum(written.values())
        touched = self._rows_of(written)
        m = self.meter
        m.puts += n_new
        m.data_values += (touched + n_new) * len(self.kv.columns)
        m.comm_bytes += (touched + n_new) * self._row_w

    def unpersist(self) -> None:
        self.df.unpersist()


class TaaVStore:
    """The conventional tuple-as-a-value store (paper §3).

    Each relation is a set of KV pairs (primary key -> whole tuple). A
    scan of R incurs |R| ``get`` invocations; this is what makes the
    baseline's data access expensive.
    """

    def __init__(self, relations: dict[str, DataFrame]) -> None:
        self.meter = Meter()
        self._dfs = {name: df.persist() for name, df in relations.items()}
        self._counts: dict[str, int] = {}
        self._widths = {n: row_width(df) for n, df in self._dfs.items()}

    def relation_names(self) -> list[str]:
        return list(self._dfs)

    def n_rows(self, name: str) -> int:
        if name not in self._counts:
            self._counts[name] = self._dfs[name].count()
        return self._counts[name]

    def scan(self, name: str) -> DataFrame:
        """Scan a relation: one get per tuple, whole relation shipped."""
        df = self._dfs[name]
        n = self.n_rows(name)
        m = self.meter
        m.scans += 1
        m.gets += n
        m.data_values += n * len(df.columns)
        m.comm_bytes += n * self._widths[name]
        return df


class BaaVStore:
    """A BaaV store ~D: the KV instances of all KV schemas in ~R over a
    database D (paper §4.1), sharing one meter."""

    def __init__(
        self, schema: BaaVSchema, relations: dict[str, DataFrame]
    ) -> None:
        self.schema = schema
        self.meter = Meter()
        self.instances: dict[KVSchema, KVInstance] = {}
        for kv in schema:
            if kv.relation not in relations:
                raise ValueError(f"no data for relation {kv.relation}")
            self.instances[kv] = KVInstance(kv, relations[kv.relation], self.meter)

    def __getitem__(self, kv: KVSchema) -> KVInstance:
        return self.instances[kv]

    @property
    def degree(self) -> int:
        """deg(~D) = max degree over KV instances (§4.1)."""
        return max((inst.degree for inst in self.instances.values()), default=0)

    @property
    def size_bytes(self) -> float:
        return sum(i.size_bytes for i in self.instances.values())

    def unpersist(self) -> None:
        for i in self.instances.values():
            i.unpersist()


def make_spark_keys(
    spark: SparkSession, key_cols: tuple[str, ...], rows: list[tuple]
) -> DataFrame:
    """Build a small keys DataFrame (constant seeds) for ``fetch``."""
    return spark.createDataFrame(rows, schema=list(key_cols))
