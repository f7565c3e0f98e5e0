"""Metered key-value storage substrate (simulated NoSQL layer).

The paper's storage layer (HBase/Kudu/Cassandra) exposes ``get``,
``put`` and ``next`` (paper §3). Here it is simulated in-process: the
BaaV store keeps each KV instance as a keyed-block frame in the driver
(:class:`KVInstance`), and the baseline's TaaV store keeps its relations
in Spark (:class:`TaaVStore`). Crucially for Table 2, every access path
is *metered*:

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

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

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

    The storage layer keeps the relational version π_XY of the relation
    in the driver process, one frame with every block contiguous, and a
    block index key → ``[start, end)`` built once here. ``get(k)`` is
    one slice of the frame: the block B_k as one value (§3, §4.1).
    Every size stat and meter charge is read from the index. ``fetch``
    is the multi-get primitive: one ``get`` per distinct key, returning
    whole blocks. ``scan`` iterates all keys (one ``get`` per block,
    after a ``next()`` walk). ``df`` is the lazy Spark projection the
    frame was built from.
    """

    def __init__(self, kv: KVSchema, df: DataFrame, meter: Meter) -> None:
        self.kv = kv
        self.meter = meter
        self.df = df.select(*kv.columns)
        self._row_w = row_width(self.df)
        self._key_w = row_width(self.df, list(kv.key))
        rel = self.df.toPandas()
        groups = rel.groupby(list(kv.key), sort=True, dropna=False)
        order = np.argsort(groups.ngroup().to_numpy(), kind="stable")
        self.rel = rel.take(order).reset_index(drop=True)
        sizes = groups.size()
        self._keys = sizes.index  # one entry per block, in frame order
        self._sizes = sizes.to_numpy()
        self._starts = np.cumsum(self._sizes) - self._sizes
        self.degree = int(self._sizes.max(initial=0))  # deg(~D), §4.1

    # -- size stats (not metered: schema-design-time information) ----
    @property
    def block_sizes(self) -> dict[tuple, int]:
        """key → |B_k|; the null key is one block like any other."""
        keys = self._keys.to_frame(index=False).astype(object)
        keys = keys.where(keys.notna(), None)
        return dict(zip(keys.itertuples(index=False, name=None), self._sizes.tolist()))

    @property
    def n_rows(self) -> int:
        return len(self.rel)

    @property
    def n_keys(self) -> int:
        return len(self._sizes)

    @property
    def size_bytes(self) -> float:
        return self.n_rows * self._row_w

    def _lookup(self, keys: pd.DataFrame) -> tuple[int, np.ndarray]:
        """The number of distinct keys in ``keys`` and the block numbers
        of those stored. A key with a null matches no block, as in a
        join."""
        distinct = keys[list(self.kv.key)].drop_duplicates()
        probe = distinct.dropna()
        if len(self.kv.key) == 1:
            probe = pd.Index(probe.iloc[:, 0])
        else:
            probe = pd.MultiIndex.from_frame(probe)
        blocks = self._keys.get_indexer(probe)
        return len(distinct), blocks[blocks >= 0]

    # -- metered access ----------------------------------------------
    def fetch(self, keys: pd.DataFrame | DataFrame) -> pd.DataFrame | DataFrame:
        """Multi-get: retrieve the blocks for the given key tuples.

        ``keys`` must have exactly the key columns of the schema. Its
        distinct keys are looked up in the block index at once and the
        blocks' slices are returned together (§7.2 step (b)). One
        ``get`` is charged per distinct key; ``comm`` is charged for the
        keys shipped down plus the block bytes shipped back (§7.2
        interleaving). A Spark ``keys`` frame is collected once and the
        blocks return as a Spark frame.
        """
        if set(keys.columns) != set(self.kv.key):
            raise ValueError(f"fetch keys {list(keys.columns)} != schema key {self.kv.key}")
        if isinstance(keys, DataFrame):
            out = self._fetch(keys.select(*self.kv.key).toPandas())
            return keys.sparkSession.createDataFrame(out, schema=self.df.schema)
        return self._fetch(keys)

    def _fetch(self, keys: pd.DataFrame) -> pd.DataFrame:
        n_keys, blocks = self._lookup(keys)
        sizes = self._sizes[blocks]
        offsets = np.cumsum(sizes) - sizes  # each block's first output row
        rows = np.repeat(self._starts[blocks] - offsets, sizes) + np.arange(sizes.sum())
        n_rows = len(rows)
        m = self.meter
        m.gets += n_keys
        m.keys_shipped += n_keys
        m.data_values += n_rows * len(self.kv.columns)
        m.comm_bytes += n_keys * self._key_w + n_rows * self._row_w
        return self.rel.take(rows)

    def scan(self) -> pd.DataFrame:
        """Full scan: iterate all keys via ``next()`` and get every
        block. Under BaaV this costs one get per *block* (data
        locality), not per tuple."""
        n_rows = self.n_rows
        m = self.meter
        m.scans += 1
        m.gets += self.n_keys
        m.data_values += n_rows * len(self.kv.columns)
        m.comm_bytes += n_rows * self._row_w
        return self.rel

    def put(self, rows: pd.DataFrame | DataFrame) -> None:
        """Metered write path (throughput experiments): the client issues
        one put per updated tuple; when the key already exists the
        middleware must rewrite the whole block (the paper's §9 Exp-4
        reason BaaV write throughput is slightly below TaaV's)."""
        if isinstance(rows, DataFrame):
            rows = rows.select(*self.kv.key).toPandas()
        n_new = len(rows)
        _, blocks = self._lookup(rows)
        touched = int(self._sizes[blocks].sum())
        m = self.meter
        m.puts += n_new
        m.data_values += (touched + n_new) * len(self.kv.columns)
        m.comm_bytes += (touched + n_new) * self._row_w


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

