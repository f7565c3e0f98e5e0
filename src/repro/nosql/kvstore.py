"""Metered key-value storage substrate (simulated NoSQL layer).

The paper's storage layer (HBase/Kudu/Cassandra) exposes ``get``,
``put`` and ``next`` (paper §3). Here it is simulated in-process, and
both stores are built from the pandas relations: the BaaV store keeps
each KV instance as a keyed-block frame in the driver
(:class:`KVInstance`), and the baseline's TaaV store ships its
relations into Spark and persists them there (:class:`TaaVStore`).
:func:`to_spark` is the one way a pandas frame enters Spark. Crucially
for Table 2, every access path is *metered*:

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


def to_spark(
    spark: SparkSession, pdf: pd.DataFrame, schema: pa.Schema | None = None
) -> DataFrame:
    """Ship a pandas frame into Spark by Arrow, with the Arrow ``schema``
    given or else the frame's own, so NaN arrives as NULL. An empty
    frame's own schema types a string column as ``null``."""
    return spark.createDataFrame(
        pa.Table.from_pandas(pdf, schema=schema, preserve_index=False)
    )


def col_width(dtype: pa.DataType) -> float:
    """Estimated serialized width of one value, in bytes."""
    return _STRING_BYTES if pa.types.is_string(dtype) else _SCALAR_BYTES


def row_width(
    pdf: pd.DataFrame | pa.Schema, cols: Sequence[str] | None = None
) -> float:
    """Estimated serialized width of one tuple of ``pdf`` (or of its
    columns ``cols``), from the columns' Arrow types."""
    if isinstance(pdf, pd.DataFrame):
        pdf = pa.Schema.from_pandas(pdf, preserve_index=False)
    return float(sum(col_width(pdf.field(c).type) for c in cols or pdf.names))


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

    The storage layer keeps a copy of the relational version π_XY of a
    pandas relation in the driver process, one frame with every block
    contiguous, and a block index key → ``[start, end)`` built once
    here. ``get(k)`` is one slice of the frame: the block B_k as one
    value (§3, §4.1). Its Arrow schema, read once here, gives the value
    widths and the column types of every frame the instance ships into
    Spark. Every size stat and meter charge is read from the index. ``fetch``
    is the multi-get primitive: one ``get`` per distinct key, returning
    whole blocks. ``scan`` iterates all keys (one ``get`` per block,
    after a ``next()`` walk).
    """

    def __init__(self, kv: KVSchema, rel: pd.DataFrame, meter: Meter) -> None:
        self.kv = kv
        self.meter = meter
        rel = rel[list(kv.columns)]  # a copy: the caller's frame is never aliased
        groups = rel.groupby(list(kv.key), sort=True, dropna=False)
        order = np.argsort(groups.ngroup().to_numpy(), kind="stable")
        self.rel = rel.take(order).reset_index(drop=True)
        self.arrow = pa.Schema.from_pandas(self.rel, preserve_index=False)
        self._row_w = row_width(self.arrow)
        self._key_w = row_width(self.arrow, kv.key)
        sizes = groups.size()
        self._keys = sizes.index  # one entry per block, in frame order
        self._sizes = sizes.to_numpy()
        self._starts = np.cumsum(self._sizes) - self._sizes
        self.degree = int(self._sizes.max(initial=0))  # deg(~D), §4.1

    @property
    def df(self) -> DataFrame:
        """The relational version shipped into Spark on the active
        session. Its one reader is perfbench's traced ``visible_frac``."""
        return to_spark(SparkSession.active(), self.rel, self.arrow)

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
        blocks are shipped back into its session with the instance's
        column types, even when no block matches.
        """
        if set(keys.columns) != set(self.kv.key):
            raise ValueError(f"fetch keys {list(keys.columns)} != schema key {self.kv.key}")
        if isinstance(keys, DataFrame):
            out = self._fetch(keys.select(*self.kv.key).toPandas())
            return to_spark(keys.sparkSession, out, self.arrow)
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
    baseline's data access expensive. The relations are shipped into
    Spark and persisted there; sizes and widths are read from the
    pandas frames.
    """

    def __init__(self, spark: SparkSession, relations: dict[str, pd.DataFrame]) -> None:
        self.meter = Meter()
        self.dfs = {name: to_spark(spark, pdf).persist() for name, pdf in relations.items()}
        self._n_rows = {name: len(pdf) for name, pdf in relations.items()}
        self._widths = {name: row_width(pdf) for name, pdf in relations.items()}

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
        self.instances: dict[KVSchema, KVInstance] = {}
        for kv in schema:
            if kv.relation not in relations:
                raise ValueError(f"no data for relation {kv.relation}")
            self.instances[kv] = KVInstance(kv, relations[kv.relation], self.meter)

    def __getitem__(self, kv: KVSchema) -> KVInstance:
        return self.instances[kv]
