"""Smoke tests for the experiment drivers (tiny SF, real code paths)."""
from repro.experiments import exp2, exp3, exp4, table2, table3
from repro.nosql.backends import BACKENDS

_STORAGE = [f"{b.name}_storage_s" for b in BACKENDS]


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
    (row,) = df.to_dict("records")
    assert row["scan_free"] and row["scans"] == 0
    assert row["comm_ratio_%"] <= 100.0
    assert row["zidian_wall_s"] > 0 and row["base_wall_s"] > 0
    assert row["p"] == spark.sparkContext.defaultParallelism


def test_exp3_sweep_meters_identical_across_p():
    """One spawned local[p] process per p: parallelism changes wall
    time only, never what the plans read or ship."""
    df = exp3.sweep(ps=(1, 2), sf=0.004, picks=(("mot", "q1"),))
    assert df["p"].tolist() == [1, 2]
    meters = df.drop(columns=["p", "zidian_wall_s", "base_wall_s"])
    assert meters.iloc[0].equals(meters.iloc[1])


def test_exp4_throughput_shape(spark):
    df = exp4.run(spark, sf=0.004, n_read_keys=200, n_write_rows=100)
    assert (df["read_ratio"] > 1.0).all()
    assert (df["write_ratio"] < 1.0).all()
    assert (df[["fetch_wall_s", "put_wall_s"]] > 0).all(axis=None)
