"""Tests for the backend latency models (DESIGN.md §5)."""
import pytest

from repro.nosql.backends import BACKENDS, CASSANDRA, HBASE
from repro.nosql.kvstore import Meter


def _meter(gets=1000, data=10_000):
    return Meter(gets=gets, data_values=data)


def test_backend_ordering_matches_paper_table2():
    """Per-get cost ordering SoH > SoC > SoK (paper Table 2: 130s vs
    88.1s vs 40.5s for identical access counts)."""
    m = _meter()
    t = {b.name: b.storage_time(m) for b in BACKENDS}
    assert t["SoH"] > t["SoC"] > t["SoK"]


def test_storage_time_scales_with_gets():
    assert HBASE.storage_time(_meter(gets=2000)) > HBASE.storage_time(
        _meter(gets=1000)
    )


def test_storage_time_divides_by_parallelism():
    m = _meter()
    assert HBASE.storage_time(m, p=16) == pytest.approx(
        HBASE.storage_time(m, p=8) / 2
    )


def test_put_latency_counted():
    m = Meter(puts=100)
    assert CASSANDRA.storage_time(m) > 0


def test_zero_meter_costs_nothing():
    assert HBASE.storage_time(Meter()) == 0.0


def test_table2_shape_zidian_vs_baseline():
    """With Table-2-like access counts, every backend shows an order-of-
    magnitude modelled storage-time gap in Zidian's favour."""
    baseline = Meter(gets=100_000, data_values=500_000)
    zidian = Meter(gets=50, data_values=8_000)
    for b in BACKENDS:
        assert b.storage_time(baseline) > 50 * b.storage_time(zidian)
