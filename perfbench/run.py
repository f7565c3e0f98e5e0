"""Benchmark of Zidian against the SQL-over-NoSQL baseline.

Run from the repository root:

    python3 perfbench/run.py --workload mot_bounded --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with spans around every layer entry point and prints the
per-layer metrics instead. Each metric is printed on its own line as
``metric <name> <value> <unit>``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--write-spec`` regenerates ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Two Spark threads beat four on these small inputs and leave cores to
# the JIT and GC threads.
CORES = max(1, min(2, os.cpu_count() or 1))

import spec  # noqa: E402  (HERE is on sys.path when run as a script)


def _parse(argv: list[str] | None) -> argparse.Namespace:
    names = [*spec.GATED_WORKLOADS, *spec.UNGATED_WORKLOADS]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny scale factor, no warm-up pass (smoke test)")
    p.add_argument("--write-spec", action="store_true",
                   help="write BENCHMARK.json and exit")
    args = p.parse_args(argv)
    if not args.write_spec and args.workload is None:
        p.error("--workload is required")
    return args


def _start_spark(tmp: pathlib.Path):
    """A local Spark session whose scratch files stay under ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    submit = [
        "--master", f"local[{CORES}]", "--driver-memory", "1g",
        # C1 only: with C2, per-process JIT outcomes moved every timing
        # of a run by up to 15% (README.md).
        "--driver-java-options", f"-Djava.io.tmpdir={tmp} -XX:TieredStopAtLevel=1",
        "--conf", f"spark.local.dir={tmp}",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "pyspark-shell",
    ]
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(shlex.quote(a) for a in submit)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        # Same session settings as the tests and jobs (conftest.py).
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM to exit."""
    gateway = spark.sparkContext._gateway
    proc: subprocess.Popen = gateway.proc
    spark.stop()
    gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def run(args: argparse.Namespace, spark):
    """Set up, warm up, measure. Returns (result metrics, printed
    metrics, client record)."""
    import harness
    from repro import runner
    from spans import SparkCounters, Tracer

    started = time.perf_counter()
    cfg = harness.CONFIGS[args.workload]
    counters = SparkCounters(spark.sparkContext)
    tracer = Tracer(counters) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        ctx = runner.build_context(
            spark, cfg.workload, sf=cfg.smoke_sf if args.smoke else cfg.sf,
            seed=harness.DATA_SEED,
        )
        runner.warm(ctx)
        setup_s = time.perf_counter() - t0

        client = harness.Client(ctx, cfg, args.seed, args.smoke, tracer)
        t1 = time.perf_counter()
        if not args.smoke:
            client.warm_up()
        t2 = time.perf_counter()
        rdds0 = counters.persisted_rdds() if tracer is not None else 0
        client.measure(args.seconds, started)
        print(
            f"[perfbench] setup {setup_s:.1f} s, warm-up {t2 - t1:.1f} s, "
            f"measured {time.perf_counter() - t2:.1f} s; answer checks "
            f"{client.check_s:.1f} s in all",
            file=sys.stderr,
        )
        rec = client.rec
        rss = harness.peak_rss_mb(spark.sparkContext._gateway.proc.pid)
        if tracer is None:
            metrics = harness.end_to_end(rec, setup_s, rss)
            printed = metrics | {
                "failed_frac": rec.failed / max(1, rec.attempted)
            }
            layer = harness.storage_and_kv(rec)
            for name in spec.UNTRACED_FROM_PER_LAYER:
                if cfg.kv or not name.startswith("kv_"):
                    printed[name] = layer[name]
        else:
            rdds_delta = (counters.persisted_rdds() - rdds0) / len(rec.pass_s or [1])
            vis = client.visible_frac() if cfg.kv else 0.0
            metrics = harness.per_layer(rec, tracer, vis, rdds_delta)
            printed = metrics
        return metrics, printed, rec
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    spark = _start_spark(tmp)
    try:
        metrics, printed, rec = run(args, spark)
    finally:
        _stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # kept while another run uses it
        except OSError:
            pass

    units = {n: u for n, (u, *_) in spec.END_TO_END.items()}
    units |= spec.EXTRA | {n: u for n, (u, _) in spec.PER_LAYER.items()}
    for name, value in printed.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(
        f"workload {args.workload} seed {args.seed} "
        f"attempted {rec.attempted} failed {rec.failed}"
    )
    print(json.dumps({
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
