"""Modelled storage-backend cost (DESIGN.md §2, §5).

The paper deploys Zidian on SparkSQL-over-HBase (SoH), -Kudu (SoK) and
-Cassandra (SoC). The three systems share the SQL layer and differ in
storage-layer speed. We reproduce the three columns with a per-backend
latency model applied to the *exact* metered access counts:

    storage_time = (#get · get_latency + #data · per_value_cost
                    + #put · put_latency) / p

reported beside, never added to, the measured Spark wall time, with
``p`` the storage-layer parallelism (8, matching the paper's
8-worker runs). Constants reflect the per-get RPC cost ordering
HBase > Cassandra > Kudu observed in paper Table 2 (SoH slowest, SoK
fastest) and are held fixed across all experiments.
"""
from __future__ import annotations

from dataclasses import dataclass

from .kvstore import Meter


@dataclass(frozen=True)
class Backend:
    """A storage backend's latency model."""

    name: str
    get_latency_s: float  # per get invocation
    per_value_s: float  # per attribute value transferred
    put_latency_s: float  # per put invocation

    def storage_time(self, meter: Meter, p: int = 8) -> float:
        """Modelled storage-layer time for a metered execution."""
        t = (
            meter.gets * self.get_latency_s
            + meter.data_values * self.per_value_s
            + meter.puts * self.put_latency_s
        )
        return t / p


# Calibrated once against the SoH:SoK:SoC ratios of paper Table 2
# (per-get cost ordering HBase ≈ 3.3x Kudu, Cassandra ≈ 2.2x Kudu).
HBASE = Backend("SoH", get_latency_s=1.5e-3, per_value_s=1.5e-6, put_latency_s=2.0e-3)
KUDU = Backend("SoK", get_latency_s=4.5e-4, per_value_s=4.5e-7, put_latency_s=9.0e-4)
CASSANDRA = Backend("SoC", get_latency_s=1.0e-3, per_value_s=1.0e-6, put_latency_s=1.2e-3)

BACKENDS = (HBASE, KUDU, CASSANDRA)
