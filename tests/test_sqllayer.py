"""Tests for the baseline SQL-over-NoSQL path (nosql.sqllayer, paper §3)."""
from repro.runner import oracle_check, run_baseline


def test_baseline_scans_every_involved_relation(mot_ctx):
    q = mot_ctx.workload.template("q1").instantiate()
    br = run_baseline(mot_ctx, q)
    assert br.meter["scans"] == 2  # vehicle + mottest


def test_baseline_gets_equal_total_rows(mot_ctx):
    """TaaV: a scan costs one get per tuple (§3), so baseline #get is
    the sum of the scanned relations' cardinalities."""
    q = mot_ctx.workload.template("q1").instantiate()
    br = run_baseline(mot_ctx, q)
    expect = len(mot_ctx.pdfs["vehicle"]) + len(mot_ctx.pdfs["mottest"])
    assert br.meter["gets"] == expect


def test_baseline_meter_resets_between_queries(mot_ctx):
    q = mot_ctx.workload.template("q2").instantiate()
    a = run_baseline(mot_ctx, q)
    b = run_baseline(mot_ctx, q)
    assert a.meter == b.meter


def test_baseline_single_relation_query(airca_ctx):
    q = airca_ctx.workload.template("q7").instantiate()
    br = run_baseline(airca_ctx, q)
    assert br.meter["scans"] == 1
    oracle_check(airca_ctx, q, br.df)


def test_baseline_wall_time_positive(mot_ctx):
    q = mot_ctx.workload.template("q2").instantiate()
    assert run_baseline(mot_ctx, q).wall_s > 0


def test_oracle_rejects_wrong_result(mot_ctx):
    """Sanity: the oracle actually fails on a wrong answer."""
    import pytest

    q = mot_ctx.workload.template("q2").instantiate()
    br = run_baseline(mot_ctx, q)
    wrong = br.df.limit(0)
    with pytest.raises(AssertionError):
        oracle_check(mot_ctx, q, wrong)
