"""Smoke tests for the experiment drivers (tiny SF, real code paths)."""
from types import SimpleNamespace

import pytest

from repro.experiments import _session, exp2, exp3, exp4, table2, table3
from repro.experiments._session import STORAGE as _STORAGE
from repro.workloads import mot


def test_table2_runs_and_has_shape(spark):
    """Access metrics, and so modelled storage time, show the Table 2
    shape at any scale; measured wall is reported, not asserted."""
    df = table2.run(spark, sf=0.005)
    assert list(df.columns) == [
        "system", "wall_s", *_STORAGE, "n_data", "n_get", "comm_MB"
    ]
    row = df.set_index("system")
    assert row.loc["baseline", "n_get"] > 50 * row.loc["Zidian", "n_get"]
    for col in ("n_data", "comm_MB", *_STORAGE):
        assert row.loc["Zidian", col] < row.loc["baseline", col]
    assert (row["wall_s"] > 0).all()


def test_table2_paper_reference_rows():
    assert table2.PAPER.shape == (4, 7)


def test_table3_single_workload(spark):
    """Zidian's modelled storage time is below the baseline's for every
    backend, overall and in each scan-free class; measured wall is
    reported, not asserted."""
    overall, by_class = table3.run(
        spark, sfs={"airca": 0.004}, workloads=("airca",)
    )
    assert set(by_class["class"]) == {"scan-free", "non-scan-free"}
    for df in (overall, by_class):
        base = df[df["system"] == "baseline"][_STORAGE].to_numpy()
        zid = df[df["system"] == "Zidian"][_STORAGE].to_numpy()
        assert (zid < base).all()
    assert (overall["wall_s"] > 0).all()


def test_exp2_flat_for_zidian(spark):
    df = exp2.run(spark, sfs=(0.004, 0.016))
    z = df[df["system"] == "Zidian"]["n_data"].tolist()
    b = df[df["system"] == "baseline"]["n_data"].tolist()
    assert z[1] <= z[0] + 50
    assert b[1] > 3 * b[0]


def test_exp3_measures_scan_free_pick(spark):
    df = exp3.run(spark, sf=0.004, picks=(("mot", "q1"),))
    assert list(df.columns) == [
        "query", "scan_free", "scans", "n_get", "n_data", "comm_B",
        "comm_ratio_%", "zidian_wall_s", "base_wall_s",
    ]
    (row,) = df.to_dict("records")
    assert row["scan_free"] and row["scans"] == 0
    assert row["comm_ratio_%"] <= 100.0
    assert row["zidian_wall_s"] > 0 and row["base_wall_s"] > 0


def test_measure_rows_and_flags(mot_ctx):
    """One row per system: the median wall of the timed repeats, the
    exact meter, and Zidian's plan flags (the baseline's are false)."""
    df = _session.measure(mot_ctx, mot.WORKLOAD.template("q1").instantiate(), p=8)
    assert list(df.columns) == [
        "system", "wall_s", *_STORAGE, "n_data", "n_get", "comm_B", "scans",
        "scan_free", "bounded", "fallback",
    ]
    row = df.set_index("system")
    assert row.loc["Zidian", ["scan_free", "bounded"]].all()
    assert not row.loc["baseline", ["scan_free", "bounded", "fallback"]].any()
    assert row.loc["Zidian", "scans"] == 0 and row.loc["baseline", "scans"] == 2
    assert (row["wall_s"] > 0).all()


def _stub(walls, gets):
    """A runner whose calls return the given walls and meter gets."""
    runs = iter(zip(walls, gets))

    def run(ctx, q):
        wall, n = next(runs)
        return SimpleNamespace(wall_s=wall, meter={"gets": n})

    return run


def test_measure_raises_when_repeats_meter_differently(monkeypatch):
    """The wall is the median of the timed repeats, the warm-up left out;
    a meter that changes between repeats means the runs did different
    work, so ``measure`` raises instead of taking their median."""
    q = mot.WORKLOAD.template("q1").instantiate()
    monkeypatch.setattr(_session, "run_baseline", _stub([9.0, 1.0, 3.0, 2.0], [5] * 4))
    monkeypatch.setattr(_session, "run_zidian", _stub([9.0, 1.0, 1.0, 1.0], [0, 1, 1, 2]))
    with pytest.raises(RuntimeError, match="Zidian meter differs"):
        _session.measure(None, q, p=8)
    monkeypatch.setattr(_session, "run_baseline", _stub([9.0, 1.0, 3.0, 2.0], [5] * 4))
    monkeypatch.setattr(_session, "run_zidian", _stub([9.0, 1.0, 1.0, 1.0], [0, 1, 1, 1]))
    df = _session.measure(None, q, p=8).set_index("system")
    assert df["wall_s"].tolist() == [2.0, 1.0]


def test_exp4_throughput_shape(spark):
    df = exp4.run(spark, sf=0.004, n_read_keys=200, n_write_rows=100)
    assert (df["read_ratio"] > 1.0).all()
    assert (df["write_ratio"] < 1.0).all()
    assert (df[["fetch_wall_s", "put_wall_s"]] > 0).all(axis=None)
