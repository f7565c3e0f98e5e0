"""The three workloads, the closed-loop client that drives them, the
correctness checks and the metrics computed from one run.

One client thread issues one operation at a time and times it around
the public call: ``runner.run_zidian``, ``runner.run_baseline``,
``KVInstance.fetch`` or ``KVInstance.put``. Answers are checked after
the clock stops, so checks never count as latency.
"""
from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import runner
from repro.nosql.backends import HBASE
from repro.nosql.kvstore import Meter
from repro.workloads import mot, tpch

BOUND_C = 50  # Zidian's default degree bound (nosql.zidian)

# Stop starting passes once a run has lasted this long, so that a run
# ends well inside 180 s even when a pass is slow.
RUN_BUDGET_S = 120.0


# Data seed of every workload. Zidian's #data and #get depend on the
# blocks of the few vehicles a bounded query touches, so data drawn from
# another seed changes them by up to ~35%; with the data fixed they are
# exact and comparable between runs. ``--seed`` picks the vehicles the
# MOT queries ask about (``vehicle_params``) and kv_mixed's read keys and
# written rows.
DATA_SEED = 0

# MOT vehicle ids below this are query parameters and nothing else:
# kv_mixed reads and writes only vehicles at or above it.
QUERY_VEHICLES = 100


@dataclass(frozen=True)
class Config:
    workload: object  # repro.workloads.common.Workload
    sf: float
    smoke_sf: float
    queries: tuple[tuple[str, object], ...]  # (template, param) per pass
    kv: bool = False  # bulk fetch + puts before the reads of each pass
    vehicle_params: bool = False  # parameters are MOT vehicle ids


def _defaults(workload, names) -> tuple[tuple[str, object], ...]:
    return tuple((n, workload.template(n).default_param) for n in names)


# A bounded query's Zidian cost does not depend on |D| (Exp-2), so MOT
# runs at the tests' scale: at SF 0.05 set-up and the baseline's scans
# cost ~8 s more a run, which the gate's budget cannot spare.
MOT_SF = 0.01

# A run of all six bounded MOT templates, with its warm-up pass, takes
# ~85 s on 4 cores, more than one gated run can spend (README.md). The
# two MOT workloads run four of them: q2 and q3 are one- and two-atom
# chases from one vehicle, shapes q5 and q1 already cover.
CONFIGS: dict[str, Config] = {
    "mot_bounded": Config(
        mot.WORKLOAD, MOT_SF, 0.001, _defaults(mot.WORKLOAD, ("q4", "q6")),
        vehicle_params=True,
    ),
    "kv_mixed": Config(
        mot.WORKLOAD, MOT_SF, 0.001, _defaults(mot.WORKLOAD, ("q1", "q5")),
        kv=True, vehicle_params=True,
    ),
    # Below SF 0.01 (the tests' scale) TPC-H blocks are so small that
    # q2 and q17 become bounded, against their templates' labels.
    "tpch_suite": Config(
        tpch.WORKLOAD, 0.1, 0.01,
        _defaults(tpch.WORKLOAD, [t.name for t in tpch.WORKLOAD.templates]),
    ),
}

# A baseline query takes ~0.3 s against 2-7 s for Zidian; repeating it
# gives its median enough samples at little cost.
BASELINE_REPEATS = 3

# kv_mixed: the Exp-4 read and write (experiments/exp4.py).
KV_RELATION = "mottest"
KV_READ_SCHEMA_KEY = ("vehicle_id",)
BULK_KEYS = 2000
WRITE_BATCH = 400


class CheckFailed(Exception):
    """An answer, meter invariant or label did not hold."""


@dataclass
class Record:
    """What the client saw in one run: operation counts over every pass,
    latencies and counts over the timed passes."""

    attempted: int = 0
    failed: int = 0
    lat: dict[str, list[float]] = field(default_factory=dict)  # kind -> s
    meters: dict[str, list[dict]] = field(default_factory=dict)  # kind -> meters
    result_rows: dict[str, int] = field(default_factory=dict)  # kind -> rows
    pass_s: list[float] = field(default_factory=list)
    read_values: int = 0
    read_s: float = 0.0
    written_rows: int = 0
    write_s: float = 0.0


class Client:
    """Closed-loop client over one ``RunContext``."""

    def __init__(self, ctx, cfg: Config, seed: int, smoke: bool, tracer=None):
        self.ctx = ctx
        self.cfg = cfg
        self.seed = seed
        self.tracer = tracer
        self.rec = Record()
        self._timed = False
        self._first_meter: dict[tuple[str, str], dict] = {}
        self._pass_s = 0.0
        self.check_s = 0.0  # client time spent checking answers
        self.queries = (
            equivalent_vehicles(ctx, cfg.queries, seed)
            if cfg.vehicle_params else cfg.queries
        )
        if cfg.kv:
            self._init_kv(smoke)

    # -- bookkeeping ----------------------------------------------------
    def _tag(self, kind: str | None) -> None:
        if self.tracer is not None:
            self.tracer.tag = None if kind is None else (
                f"timed:{kind}" if self._timed else f"warmup:{kind}"
            )

    def _op(self, kind: str, label: str, call, check) -> None:
        """Time ``call()``; then run ``check(result, seconds)``. Any
        exception from either counts the operation as failed, in the
        warm-up pass too."""
        self.rec.attempted += 1
        try:
            self._tag(kind)
            t0 = time.perf_counter()
            try:
                out = call()
            finally:
                dt = time.perf_counter() - t0
                self._tag(None)
            c0 = time.perf_counter()
            try:
                check(out, dt)
            finally:
                self.check_s += time.perf_counter() - c0
        except Exception:  # one failed operation must not end the run
            print(f"[perfbench] {kind} {label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.rec.failed += 1
            return
        self._pass_s += dt
        if self._timed:
            self.rec.lat.setdefault(kind, []).append(dt)

    # -- queries --------------------------------------------------------
    def query(self, kind: str, name: str, param) -> None:
        t = self.cfg.workload.template(name)
        q = t.instantiate(param)
        label = f"{name}({param})"
        run = runner.run_zidian if kind == "zidian" else runner.run_baseline

        # kv_mixed writes to the relation the baseline scans whole, so its
        # baseline counts may grow between passes once writes apply.
        repeats = kind == "zidian" or not self.cfg.kv

        def check(res, _dt) -> None:
            m = dict(res.meter)
            first = self._first_meter.setdefault((kind, label), m)
            if repeats and m != first:
                raise CheckFailed(f"meter changed between passes: {first} -> {m}")
            if kind == "zidian":
                if t.scan_free and m["scans"] != 0:
                    raise CheckFailed(f"scan-free template scanned: {m}")
                if res.bounded != t.bounded:
                    raise CheckFailed(f"bounded={res.bounded}, template says {t.bounded}")
            runner.oracle_check(self.ctx, q, res.df)
            if self._timed:
                self.rec.meters.setdefault(kind, []).append(m)
                if self.tracer is not None:
                    rows = self.rec.result_rows
                    rows[kind] = rows.get(kind, 0) + res.df.count()

        self._op(kind, label, lambda: run(self.ctx, q), check)

    # -- kv_mixed: bulk read and writes --------------------------------
    def _init_kv(self, smoke: bool) -> None:
        ctx = self.ctx
        self.kv_instances = [
            inst for kv, inst in ctx.store.instances.items()
            if kv.relation == KV_RELATION
        ]
        self.read_inst = next(
            inst for inst in self.kv_instances if inst.kv.key == KV_READ_SCHEMA_KEY
        )
        tests = ctx.pdfs[KV_RELATION]
        self._tests = tests
        self._per_vehicle = tests["vehicle_id"].value_counts()
        n_veh = len(ctx.pdfs["vehicle"])
        # Bulk reads draw from the lower half of the vehicles that are
        # not query parameters, writes go to the upper half, so that no
        # read sees a written vehicle.
        lo = QUERY_VEHICLES
        half = lo + (n_veh - lo) // 2
        self._read_pool = np.arange(lo, half)
        self._write_pool = np.arange(half, n_veh + 1)
        scale = 0.1 if smoke else 1.0
        self._bulk = int(BULK_KEYS * scale)
        self._batch = int(WRITE_BATCH * scale)
        self._next_test_id = int(tests["test_id"].max()) + 1
        self._next_writer = 0  # round-robin over the write pool
        self.written_ids: list[int] = []

    def bulk_fetch(self, cycle: int) -> None:
        spark = self.ctx.zidian.spark
        g = np.random.default_rng([self.seed, cycle])
        ids = g.choice(self._read_pool, size=self._bulk, replace=False)
        expected = int(self._per_vehicle.reindex(ids, fill_value=0).sum())
        keys = spark.createDataFrame([(int(v),) for v in ids], ["vehicle_id"])
        inst = self.read_inst
        n_cols = len(inst.kv.columns)
        before = inst.meter.snapshot()

        def call():
            return inst.fetch(keys).count()

        def check(n_rows, dt) -> None:
            after = inst.meter.snapshot()
            if n_rows != expected:
                raise CheckFailed(f"bulk read returned {n_rows} rows, pandas {expected}")
            if after["gets"] - before["gets"] != len(ids):
                raise CheckFailed("bulk read: gets != distinct keys")
            if after["data_values"] - before["data_values"] != n_rows * n_cols:
                raise CheckFailed("bulk read: data_values != rows * columns")
            if self._timed:
                self.rec.read_values += n_rows * n_cols
                self.rec.read_s += dt

        self._op("fetch", f"{len(ids)} keys", call, check)

    def put_batch(self, cycle: int) -> None:
        """Write new tests for vehicles taken round-robin from the write
        pool: a vehicle gets a second new test only after every vehicle
        in the pool got one, so degrees stay far below ``BOUND_C``."""
        spark = self.ctx.zidian.spark
        g = np.random.default_rng([self.seed, cycle, 1])
        n = self._batch
        pool = self._write_pool
        vehicles = pool[(self._next_writer + np.arange(n)) % len(pool)]
        self._next_writer += n
        new_per_vehicle = -(-self._next_writer // len(pool))
        if int(self._per_vehicle.max()) + new_per_vehicle > BOUND_C:
            raise CheckFailed("writes would push a vehicle past the degree bound")
        batch = self._tests.iloc[g.integers(0, len(self._tests), n)].copy()
        batch["vehicle_id"] = vehicles
        batch["test_id"] = np.arange(self._next_test_id, self._next_test_id + n)
        self._next_test_id += n
        rows = spark.createDataFrame(batch.reset_index(drop=True))
        meter = self.ctx.store.meter
        before = meter.snapshot()

        def call():
            for inst in self.kv_instances:
                inst.put(rows)

        def check(_out, dt) -> None:
            puts = meter.snapshot()["puts"] - before["puts"]
            if puts != n * len(self.kv_instances):
                raise CheckFailed(f"puts {puts} != rows written {n} x instances")
            self.written_ids.extend(int(i) for i in batch["test_id"])
            if self._timed:
                self.rec.written_rows += n
                self.rec.write_s += dt

        self._op("put", f"{n} rows", call, check)

    def visible_frac(self) -> float:
        """Share of written tests a read of ``mottest<test_id>`` sees.
        Reported, not asserted: writes do not apply data today."""
        if not self.written_ids:
            return 0.0
        spark = self.ctx.zidian.spark
        inst = next(i for i in self.kv_instances if i.kv.key == ("test_id",))
        ids = spark.createDataFrame([(i,) for i in self.written_ids], ["test_id"])
        found = inst.df.join(ids, on="test_id", how="inner").count()
        return found / len(self.written_ids)

    # -- passes ---------------------------------------------------------
    def run_pass(self, cycle: int) -> None:
        self._pass_s = 0.0
        if self.cfg.kv:
            self.bulk_fetch(cycle)
            self.put_batch(cycle)
        for name, param in self.queries:
            self.query("zidian", name, param)
            for _ in range(BASELINE_REPEATS):
                self.query("baseline", name, param)
        if self._timed:
            self.rec.pass_s.append(self._pass_s)

    def warm_up(self) -> None:
        """One untimed pass. The first execution of each query shape in
        a process runs slower while Spark generates and the JVM compiles
        its code; a warm-up cut to one query left the timed figures 3x
        more spread."""
        self.run_pass(cycle=0)

    def measure(self, seconds: float, started: float) -> None:
        """Complete passes until ``seconds`` have been measured (at least
        one), unless the run budget would be exceeded."""
        self._timed = True
        t0 = time.perf_counter()
        cycle = 1
        while True:
            p0 = time.perf_counter()
            self.run_pass(cycle)
            cycle += 1
            now = time.perf_counter()
            if now - t0 >= seconds or now - started + (now - p0) > RUN_BUDGET_S:
                break
        self._timed = False


def equivalent_vehicles(ctx, queries, seed: int):
    """Replace each vehicle id parameter by one drawn from ``seed`` among
    the query vehicles with as many tests and roadside observations.
    Every block a bounded MOT query fetches then has the size it has for
    the template's default, so #data and #get do not depend on the seed.
    """
    tests = ctx.pdfs["mottest"]["vehicle_id"].value_counts()
    obs = ctx.pdfs["survey"]["vehicle_id"].value_counts()

    def sig(v: int) -> tuple[int, int]:
        return int(tests.get(v, 0)), int(obs.get(v, 0))

    g = np.random.default_rng(seed)
    out = []
    for name, param in queries:
        vs = param if isinstance(param, tuple) else (param,)
        picked = dict.fromkeys(vs)
        for key in dict.fromkeys(sig(v) for v in vs):
            group = [v for v in vs if sig(v) == key]
            same = [u for u in range(1, QUERY_VEHICLES) if sig(u) == key]
            for v, u in zip(group, g.choice(same, len(group), replace=False)):
                picked[v] = int(u)
        new = tuple(picked[v] for v in vs)
        out.append((name, new if isinstance(param, tuple) else new[0]))
    return tuple(out)


def peak_rss_mb(jvm_pid: int) -> float:
    """VmHWM of this Python process plus the Spark driver JVM."""
    total_kb = 0
    for pid in ("self", str(jvm_pid)):
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def end_to_end(rec: Record, setup_s: float, rss_mb: float) -> dict[str, float]:
    z, b = rec.lat.get("zidian", []), rec.lat.get("baseline", [])
    zm, bm = rec.meters.get("zidian", []), rec.meters.get("baseline", [])
    return {
        "setup_s": setup_s,
        "zidian_p50_ms": statistics.median(z) * 1e3 if z else 0.0,
        "zidian_qps": len(z) / sum(z) if z else 0.0,
        "baseline_p50_ms": statistics.median(b) * 1e3 if b else 0.0,
        "baseline_qps": len(b) / sum(b) if b else 0.0,
        "pass_s": statistics.median(rec.pass_s) if rec.pass_s else 0.0,
        "zidian_data_per_query": _mean([m["data_values"] for m in zm]),
        "zidian_gets_per_query": _mean([m["gets"] for m in zm]),
        "baseline_data_per_query": _mean([m["data_values"] for m in bm]),
        "peak_rss_mb": rss_mb,
    }


def storage_and_kv(rec: Record) -> dict[str, float]:
    """Modelled storage time (never added to measured time) and the
    client-side throughput of direct KV reads and writes."""
    return {
        "zidian_storage_model_ms": _mean([
            HBASE.storage_time(Meter(**m), p=8) * 1e3
            for m in rec.meters.get("zidian", [])
        ]),
        "kv_read_values_per_s": rec.read_values / rec.read_s if rec.read_s else 0.0,
        "kv_write_rows_per_s": rec.written_rows / rec.write_s if rec.write_s else 0.0,
    }


def per_layer(
    rec: Record, tracer, visible_frac: float, rdds_delta: float
) -> dict[str, float]:
    """Per-layer metrics from the spans of the timed passes (and of
    set-up for ``runner.*``)."""
    zt, bt = {"timed:zidian"}, {"timed:baseline"}
    kv_t = {"timed:fetch", "timed:put"}
    timed = zt | bt | kv_t
    n_z = len(rec.lat.get("zidian", [])) or 1
    n_b = len(rec.lat.get("baseline", [])) or 1
    sel = tracer.select

    def per_q(spans, attr, n):
        return sum(getattr(s, attr) for s in spans) / n

    fetch_q = sel("kvstore.fetch", zt)
    fetch_all = sel("kvstore.fetch", zt | {"timed:fetch"})
    keys = sum(s.meter["gets"] for s in fetch_all)
    rows = sum(s.meter["data_values"] / len(s.obj.kv.columns) for s in fetch_all)
    puts = sel("kvstore.put", {"timed:put"})
    put_rows = sum(s.meter["puts"] for s in puts)
    bound = sel("zidian.bound_check", zt)
    execute = sel("plan.execute", zt)
    answer = sel("zidian.answer", zt)
    scans = sel("kvstore.scan", zt)
    sql = sel("sqllayer", bt)
    setup_build = sel("runner.build", {None})
    setup_warm = sel("runner.warm", {None})
    z_vals = sum(m["data_values"] for m in rec.meters.get("zidian", []))
    b_vals = sum(m["data_values"] for m in rec.meters.get("baseline", []))
    query_tops = [s for s in tracer.spans if s.top and s.tag in zt | bt]
    op_tops = [s for s in tracer.spans if s.top and s.tag in timed]
    client_s = sum(sum(v) for v in rec.lat.values()) or 1.0
    n_queries = len(query_tops) or 1
    return {
        "kvstore.fetch.calls_per_query": len(fetch_q) / n_z,
        "kvstore.fetch.self_ms_per_query": per_q(fetch_q, "self_s", n_z) * 1e3,
        "kvstore.fetch.ms_per_call_p50": (
            statistics.median(s.dur_s for s in fetch_all) * 1e3 if fetch_all else 0.0
        ),
        "kvstore.fetch.jobs_per_call": per_q(fetch_all, "jobs", len(fetch_all) or 1),
        "kvstore.fetch.keys_per_call": keys / (len(fetch_all) or 1),
        "kvstore.fetch.rows_per_key": rows / keys if keys else 0.0,
        "kvstore.fetch.persisted_rdds_per_call": (
            sum(s.new_rdds for s in fetch_all) / (len(fetch_all) or 1)
        ),
        "plangen.self_ms_per_query": per_q(sel("plangen", zt), "self_s", n_z) * 1e3,
        "zidian.bound_check.ms_per_query": per_q(bound, "dur_s", n_z) * 1e3,
        "zidian.bound_check.jobs_per_query": per_q(bound, "jobs", n_z),
        "plan.execute.self_ms_per_query": per_q(execute, "self_s", n_z) * 1e3,
        "plan.execute.jobs_per_query": per_q(execute, "self_jobs", n_z),
        "zidian.materialize.self_ms_per_query": per_q(answer, "self_s", n_z) * 1e3,
        "zidian.materialize.jobs_per_query": per_q(answer, "self_jobs", n_z),
        "kvstore.scan.calls_per_query": len(scans) / n_z,
        "kvstore.scan.values_per_query": (
            sum(s.meter["data_values"] for s in scans) / n_z
        ),
        "sqllayer.self_ms_per_query": per_q(sql, "self_s", n_b) * 1e3,
        "sqllayer.jobs_per_query": per_q(sql, "self_jobs", n_b),
        "kvstore.put.ms_per_call": per_q(puts, "dur_s", len(puts) or 1) * 1e3,
        "kvstore.put.jobs_per_call": per_q(puts, "jobs", len(puts) or 1),
        "kvstore.put.values_rewritten_per_row": (
            sum(s.meter["data_values"] for s in puts) / put_rows if put_rows else 0.0
        ),
        "kvstore.put.visible_frac": visible_frac,
        "zidian.values_per_result_row": (
            z_vals / max(1, rec.result_rows.get("zidian", 0))
        ),
        "baseline.values_per_result_row": (
            b_vals / max(1, rec.result_rows.get("baseline", 0))
        ),
        "runner.build_s": sum(s.dur_s for s in setup_build),
        "runner.warm_s": sum(s.dur_s for s in setup_warm),
        "runner.warm_jobs": sum(s.jobs for s in setup_warm),
        "spark.persisted_rdds_delta": rdds_delta,
        "spark.jobs_per_query": sum(s.jobs for s in query_tops) / n_queries,
        **storage_and_kv(rec),
        "trace.overhead_frac": (
            sum(s.bookkeeping_s for s in tracer.spans if s.tag in timed) / client_s
        ),
        "trace.unattributed_frac": (
            (client_s - sum(s.dur_s for s in op_tops)) / client_s
        ),
    }
