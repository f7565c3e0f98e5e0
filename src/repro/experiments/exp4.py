"""Exp-4 (paper §9): KV-workload throughput and horizontal scalability.

Throughput Tpms = values processed per millisecond of storage-layer
time (the paper's metric, measured over all workers). The paper's
claims: (a) Zidian improves *read* throughput (one get fetches a whole
block instead of one tuple) — 1.1–1.5x on SoH; (b) *write* throughput
drops slightly (a BaaV put rewrites the block) — 67–90% of TaaV; (c)
throughput grows ~linearly with the number of storage nodes (horizontal
scalability is retained).

Reads/writes are metered exactly; storage time comes from the backend
latency model (DESIGN.md §5), so the read advantage equals the average
block size weighted by per-get vs per-value cost — larger than the
paper's measured 1.5x, same direction (see EXPERIMENTS.md). Beside the
modelled Tpms, ``fetch_wall_s`` and ``put_wall_s`` are the measured wall
times of the BaaV bulk fetch and put on the driver-side store, taken
once (they do not depend on the modelled p). The read keys are the
first ``n_read_keys`` keys of the block index; the written rows are
copies of the rows of the first quarter of them.
"""
from __future__ import annotations

import time

import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession

from ..nosql.backends import HBASE
from ..nosql.kvstore import Meter
from ..runner import build_context, warm
from ..workloads import mot
from ._session import get_session, print_table

PAPER_CLAIMS = pd.DataFrame(
    {
        "claim": [
            "read Tpms ratio BaaV/TaaV (MOT, SoH)",
            "write Tpms ratio BaaV/TaaV (MOT, SoH)",
            "horizontal scalability",
        ],
        "paper": ["1.5x", "67.4%", "~linear in storage nodes"],
    }
)

_TEST_KV = next(
    kv for kv in mot.WORKLOAD.baav.for_relation("mottest") if kv.key == ("vehicle_id",)
)


def _tpms(meter: Meter, p: int, useful_values: int) -> float:
    t = HBASE.storage_time(meter, p)
    return useful_values / (t * 1e3) if t > 0 else float("inf")


def run(
    spark: SparkSession,
    *,
    sf: float = 0.05,
    n_read_keys: int = 2000,
    n_write_rows: int = 1000,
) -> pd.DataFrame:
    ctx = build_context(spark, mot.WORKLOAD, sf=sf)
    try:
        warm(ctx)
        inst = ctx.store[_TEST_KV]
        # The first keys of the block index, and their rows for writes.
        tests = ctx.pdfs["mottest"].sort_values("vehicle_id", kind="stable")
        vehicles = tests["vehicle_id"].unique()[:n_read_keys]
        keys = pa.table({"vehicle_id": vehicles})
        written = tests[tests["vehicle_id"].isin(vehicles[: max(1, n_write_rows // 4)])]
        written = written.head(n_write_rows).assign(test_id=lambda d: d["test_id"] + 10_000_000)
        new_rows = pa.Table.from_pandas(written, preserve_index=False)

        # -- read workload: BaaV block gets vs TaaV tuple gets --------
        ctx.store.meter.reset()
        t0 = time.perf_counter()
        n_rows = inst.fetch(keys).num_rows
        fetch_wall_s = time.perf_counter() - t0
        n_values = n_rows * len(_TEST_KV.columns)
        baav_read = Meter(**ctx.store.meter.snapshot())

        taav_read = Meter(gets=n_rows, data_values=n_values)

        # -- write workload: append rows for existing keys ------------
        n_new = new_rows.num_rows
        w_values = n_new * len(_TEST_KV.columns)
        ctx.store.meter.reset()
        t0 = time.perf_counter()
        inst.put(new_rows)
        put_wall_s = time.perf_counter() - t0
        baav_write = Meter(**ctx.store.meter.snapshot())
        taav_write = Meter(puts=n_new, data_values=w_values)

        rows = []
        for p in (4, 8, 12):  # storage nodes (the horizontal-scalability claim)
            r_baav = _tpms(baav_read, p, n_values)
            r_taav = _tpms(taav_read, p, n_values)
            w_baav = _tpms(baav_write, p, w_values)
            w_taav = _tpms(taav_write, p, w_values)
            rows.append(
                {
                    "p": p,
                    "read_Tpms_TaaV": round(r_taav, 1),
                    "read_Tpms_BaaV": round(r_baav, 1),
                    "read_ratio": round(r_baav / r_taav, 2),
                    "write_Tpms_TaaV": round(w_taav, 1),
                    "write_Tpms_BaaV": round(w_baav, 1),
                    "write_ratio": round(w_baav / w_taav, 2),
                    "fetch_wall_s": fetch_wall_s,
                    "put_wall_s": put_wall_s,
                }
            )
        return pd.DataFrame(rows)
    finally:
        ctx.close()


def main() -> None:  # pragma: no cover
    spark = get_session("exp4")
    print_table("Exp-4 — paper claims", PAPER_CLAIMS)
    print_table("Exp-4 — ours (MOT; Tpms modelled (SoH), *_wall_s measured)", run(spark))


if __name__ == "__main__":
    main()
