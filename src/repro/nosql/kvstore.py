"""Metered key-value storage substrate (simulated NoSQL layer).

The paper's storage layer (HBase/Kudu/Cassandra) exposes ``get``,
``put`` and ``next`` (paper §3). Here it is simulated in-process, and
both stores are built from the pandas relations: the BaaV store keeps
each KV instance as one Arrow table of keyed blocks in the driver
(:class:`KVInstance`), and the baseline's TaaV store ships its
relations into Spark by Arrow and persists them there
(:class:`TaaVStore`). Crucially for Table 2, every access path is
*metered*:

- ``#get``    — one per key probed (BaaV) or per tuple (TaaV scans);
- ``#data``   — attribute values read from storage;
- ``comm``    — bytes shipped between the storage and SQL layers,
                including keys shipped down for interleaved fetches;
- ``scans``   — number of full-instance scans (scan-free plans must
                keep this at 0, Proposition 7).

Value widths follow DESIGN.md §5 and come from each column's Arrow
type: 16 bytes for strings, 8 bytes for every other type.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from ..core.schema import BaaVSchema, KVSchema

_STRING_BYTES = 16.0
_SCALAR_BYTES = 8.0


def col_width(dtype: pa.DataType) -> float:
    """Estimated serialized width of one value, in bytes."""
    return _STRING_BYTES if pa.types.is_string(dtype) else _SCALAR_BYTES


def row_width(schema: pa.Schema, cols: Sequence[str] | None = None) -> float:
    """Estimated serialized width of one tuple (or of its columns
    ``cols``), from the columns' Arrow types."""
    return float(sum(col_width(schema.field(c).type) for c in cols or schema.names))


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

    The storage layer keeps the relational version π_XY of a relation in
    the driver process as one Arrow table sorted on the key, so every
    block is one run of rows. Beside it sits the block index: the
    block keys in the same order, with each block's size and first row.
    ``get(k)`` is a binary search over the sorted block keys and one
    slice: the block B_k as one value (§3, §4.1). The table's schema
    gives the value widths and the column types of every answer. Every
    size stat and meter charge is read from the index. ``fetch`` is the
    multi-get primitive: one ``get`` per distinct key, returning whole
    blocks. ``scan`` iterates all keys (one ``get`` per block, after a
    ``next()`` walk).
    """

    def __init__(self, kv: KVSchema, rel: pa.Table, meter: Meter) -> None:
        self.kv = kv
        self.meter = meter
        key, order = list(kv.key), [(k, "ascending") for k in kv.key]
        self.table = rel.select(list(kv.columns)).sort_by(order)
        self._row_w = row_width(self.table.schema)
        self._key_w = row_width(self.table.schema, kv.key)
        # One row per block, sorted like the rows (a group-by promises no
        # order): block b is rows [start_b, start_b + size_b) of the table.
        blocks = self.table.select(key).group_by(key).aggregate([([], "count_all")])
        blocks = blocks.sort_by(order)
        self._sizes = blocks["count_all"].to_numpy()
        self._starts = np.cumsum(self._sizes) - self._sizes
        self._keys = blocks.select(key)
        # A key with a null part matches no get, and in a composite key it
        # sorts between the others: only the null-free keys are searched.
        numbered = self._keys.append_column("__block", pa.array(np.arange(len(blocks))))
        numbered = numbered.drop_null()
        self._search_blocks = numbered["__block"].to_numpy()
        self._search_keys = _search_array(numbered.select(key))
        self.degree = int(self._sizes.max(initial=0))  # deg(~D), §4.1

    @property
    def df(self) -> DataFrame:
        """The relational version shipped into Spark on the active
        session. Its one reader is perfbench's traced ``visible_frac``."""
        return SparkSession.active().createDataFrame(self.table)

    # -- size stats (not metered: schema-design-time information) ----
    @property
    def block_sizes(self) -> dict[tuple, int]:
        """key → |B_k|; the null key is one block like any other."""
        keys = zip(*(c.to_pylist() for c in self._keys.columns))
        return dict(zip(keys, self._sizes.tolist()))

    @property
    def n_rows(self) -> int:
        return self.table.num_rows

    @property
    def n_keys(self) -> int:
        return len(self._sizes)

    @property
    def size_bytes(self) -> float:
        return self.n_rows * self._row_w

    def _lookup(self, keys: pa.Table) -> tuple[int, np.ndarray]:
        """The number of distinct keys in ``keys`` and the block numbers
        of those stored, in table order, by binary search over the sorted
        block keys. A key with a null matches no block, as in a join."""
        key = list(self.kv.key)
        distinct = keys.select(key).cast(self._keys.schema).group_by(key).aggregate([])
        probes = _search_array(distinct.drop_null())
        at = np.searchsorted(self._search_keys, probes)
        hit = at < len(self._search_keys)
        hit[hit] = self._search_keys[at[hit]] == probes[hit]
        return distinct.num_rows, np.sort(self._search_blocks[at[hit]])

    # -- metered access ----------------------------------------------
    def fetch(self, keys: pa.Table | DataFrame) -> pa.Table | DataFrame:
        """Multi-get: retrieve the blocks for the given key tuples.

        ``keys`` must have exactly the key columns of the schema. Its
        distinct keys are looked up in the block index at once and the
        blocks' rows are taken together (§7.2 step (b)). One ``get`` is
        charged per distinct key; ``comm`` is charged for the keys
        shipped down plus the block bytes shipped back (§7.2
        interleaving). A Spark ``keys`` frame is collected once by Arrow
        and the blocks are shipped back into its session with the
        instance's column types, even when no block matches.
        """
        spark = isinstance(keys, DataFrame)
        names = keys.columns if spark else keys.column_names
        if set(names) != set(self.kv.key):
            raise ValueError(f"fetch keys {names} != schema key {self.kv.key}")
        if spark:
            out = self._fetch(keys.select(*self.kv.key).toArrow())
            return keys.sparkSession.createDataFrame(out)
        return self._fetch(keys)

    def _fetch(self, keys: pa.Table) -> pa.Table:
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
        return self.table.take(rows)

    def scan(self) -> pa.Table:
        """Full scan: iterate all keys via ``next()`` and get every
        block. Under BaaV this costs one get per *block* (data
        locality), not per tuple."""
        n_rows = self.n_rows
        m = self.meter
        m.scans += 1
        m.gets += self.n_keys
        m.data_values += n_rows * len(self.kv.columns)
        m.comm_bytes += n_rows * self._row_w
        return self.table

    def put(self, rows: pa.Table | DataFrame) -> None:
        """Metered write path (throughput experiments): the client issues
        one put per updated tuple; when the key already exists the
        middleware must rewrite the whole block (the paper's §9 Exp-4
        reason BaaV write throughput is slightly below TaaV's)."""
        if isinstance(rows, DataFrame):
            rows = rows.select(*self.kv.key).toArrow()
        n_new = rows.num_rows
        _, blocks = self._lookup(rows)
        touched = int(self._sizes[blocks].sum())
        m = self.meter
        m.puts += n_new
        m.data_values += (touched + n_new) * len(self.kv.columns)
        m.comm_bytes += (touched + n_new) * self._row_w


def _search_array(keys: pa.Table) -> np.ndarray:
    """The rows of a null-free key table as one numpy array that compares
    in the table's sort order: a one-column key's values, else an object
    array of row tuples. A lookup first casts its keys to the instance's
    types, so equal keys read as equal values."""
    if keys.num_columns == 1:
        return keys.column(0).to_numpy()
    rows = zip(*(c.to_numpy().tolist() for c in keys.columns))
    return np.fromiter(rows, dtype=object, count=keys.num_rows)


class TaaVStore:
    """The conventional tuple-as-a-value store (paper §3).

    Each relation is a set of KV pairs (primary key -> whole tuple). A
    scan of R incurs |R| ``get`` invocations; this is what makes the
    baseline's data access expensive. The relations are shipped into
    Spark by Arrow, so NaN arrives as NULL, and persisted there.
    """

    def __init__(self, spark: SparkSession, relations: dict[str, pd.DataFrame]) -> None:
        self.meter = Meter()
        tables = {n: pa.Table.from_pandas(r, preserve_index=False) for n, r in relations.items()}
        self.dfs = {name: spark.createDataFrame(t).persist() for name, t in tables.items()}
        self._n_rows = {name: t.num_rows for name, t in tables.items()}
        self._widths = {name: row_width(t.schema) for name, t in tables.items()}

    def scan(self, name: str) -> DataFrame:
        """Scan a relation: one get per tuple, whole relation shipped."""
        df = self.dfs[name]
        n = self._n_rows[name]
        m = self.meter
        m.scans += 1
        m.gets += n
        m.data_values += n * len(df.columns)
        m.comm_bytes += n * self._widths[name]
        return df

    def close(self) -> None:
        for df in self.dfs.values():
            df.unpersist()


class BaaVStore:
    """A BaaV store ~D: the KV instances of all KV schemas in ~R over a
    database D (paper §4.1), sharing one meter."""

    def __init__(
        self, schema: BaaVSchema, relations: dict[str, pd.DataFrame]
    ) -> None:
        self.schema = schema
        self.meter = Meter()
        names = {kv.relation for kv in schema}
        if missing := names - relations.keys():
            raise ValueError(f"no data for relations {sorted(missing)}")
        tables = {r: pa.Table.from_pandas(relations[r], preserve_index=False) for r in names}
        self.instances = {kv: KVInstance(kv, tables[kv.relation], self.meter) for kv in schema}

    def __getitem__(self, kv: KVSchema) -> KVInstance:
        return self.instances[kv]
