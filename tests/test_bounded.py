"""Exp-2's boundedness property (paper §6.1, Fig 3): a bounded query
touches the same amount of data regardless of |D|, while the baseline's
access grows linearly."""
import gc
import time

import pytest

from repro.runner import build_context, run_baseline, run_zidian
from repro.workloads import mot


@pytest.fixture(scope="module")
def two_scales(spark):
    small = build_context(spark, mot.WORKLOAD, sf=0.004)
    large = build_context(spark, mot.WORKLOAD, sf=0.016)
    yield small, large
    small.close()
    large.close()


@pytest.mark.parametrize("t_name", ["q1", "q2", "q3", "q5"])
def test_bounded_query_data_access_independent_of_size(two_scales, t_name):
    small, large = two_scales
    q = mot.WORKLOAD.template(t_name).instantiate()
    zs = run_zidian(small, q)
    zl = run_zidian(large, q)
    assert zs.bounded and zl.bounded
    # identical access profile at 4x the data (same vehicle, same blocks)
    assert zl.meter["gets"] == zs.meter["gets"]
    assert zl.meter["data_values"] <= zs.meter["data_values"] + 50


def test_baseline_access_grows_with_size(two_scales):
    small, large = two_scales
    q = mot.WORKLOAD.template("q1").instantiate()
    bs = run_baseline(small, q)
    bl = run_baseline(large, q)
    assert bl.meter["gets"] > 3 * bs.meter["gets"]
    assert bl.meter["data_values"] > 3 * bs.meter["data_values"]


def test_unbounded_scan_free_query_access_grows(two_scales):
    """Contrast: mot q7 (not scan-free) touches more data as |D| grows."""
    small, large = two_scales
    q = mot.WORKLOAD.template("q7").instantiate()
    zs = run_zidian(small, q)
    zl = run_zidian(large, q)
    assert zl.meter["data_values"] > 2 * zs.meter["data_values"]


def test_bounded_comm_independent_of_size(two_scales):
    """Exp-3 Fig 4: communication of bounded queries is stable in |D|."""
    small, large = two_scales
    q = mot.WORKLOAD.template("q3").instantiate()
    zs = run_zidian(small, q)
    zl = run_zidian(large, q)
    assert zl.meter["comm_bytes"] <= zs.meter["comm_bytes"] * 1.5 + 100


def test_bounded_plan_comm_is_constant_sized(mot_ctx):
    """Prop 7(b): a bounded plan's modeled communication is tiny and
    size-independent (absolute check at test scale)."""
    q = mot_ctx.workload.template("q1").instantiate()
    zr = run_zidian(mot_ctx, q)
    assert zr.bounded
    assert zr.meter["comm_bytes"] < 10_000  # a handful of blocks


def _persisted_rdds(spark) -> int:
    """Persisted RDDs still reachable. Spark keeps them in a map with
    weak values, so the count is read after a Python and a JVM GC. In
    between, py4j's finalizer thread, which wakes once a second, tells
    the JVM which objects Python dropped."""
    gc.collect()
    time.sleep(1.5)
    spark.sparkContext._jvm.System.gc()
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def test_answers_leave_no_persisted_rdds(spark, mot_ctx):
    """Answering bounded queries caches nothing that outlives the
    answer: the persisted-RDD count does not grow over repeated answers."""
    q = mot_ctx.workload.template("q1").instantiate()
    run_zidian(mot_ctx, q)
    before = _persisted_rdds(spark)
    for _ in range(5):
        zr = run_zidian(mot_ctx, q)
        assert zr.bounded and zr.meter["gets"] > 0
    del zr
    assert _persisted_rdds(spark) <= before
