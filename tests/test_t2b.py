"""Tests for QCS and the T2B schema-design algorithm (paper §8.1)."""
import pytest

from repro.core.qcs import QCS
from repro.core.schema import Catalog, KVSchema, RelSchema
from repro.core.t2b import t2b

CAT = Catalog.of(
    RelSchema("r", ("a", "b", "c", "d"), ("a",)),
    RelSchema("s", ("e", "f"), ("e",)),
)


def _sizer(weights: dict[str, float] | None = None):
    """Size estimate: number of columns (optionally weighted per rel)."""
    weights = weights or {}
    return lambda kv: len(kv.columns) * weights.get(kv.relation, 1.0)


def test_qcs_validation():
    with pytest.raises(ValueError):
        QCS("r", ("a",), ("b",))  # X ⊄ Z


def test_qcs_initial_kv():
    kv = QCS("r", ("a", "b", "c"), ("a",)).initial_kv()
    assert kv == KVSchema("r", ("a",), ("b", "c"))


def test_qcs_supported_directly():
    q = QCS("r", ("a", "b"), ("a",))
    assert q.supported_by([KVSchema("r", ("a",), ("b", "c"))])
    assert not q.supported_by([KVSchema("r", ("c",), ("b",))])


def test_qcs_supported_by_chaining():
    """Z reachable through two hops of KV schemas of the relation."""
    q = QCS("r", ("a", "c"), ("a",))
    schemas = [KVSchema("r", ("a",), ("b",)), KVSchema("r", ("b",), ("c",))]
    assert q.supported_by(schemas)


def test_t2b_supports_all_qcs_with_big_budget():
    sigma = [QCS("r", ("a", "b"), ("a",)), QCS("s", ("e", "f"), ("e",))]
    res = t2b(CAT, sigma, _sizer(), budget=1e9)
    assert not res.unsupported
    for q in sigma:
        assert q.supported_by(list(res.schema))


def test_t2b_removes_redundant_schema():
    """A QCS whose access pattern is implied by another's schemas yields
    a redundant KV schema that step (2) drops."""
    sigma = [
        QCS("r", ("a", "b", "c"), ("a",)),
        QCS("r", ("a", "b"), ("a",)),  # subsumed by the first
    ]
    res = t2b(CAT, sigma, _sizer(), budget=1e9)
    assert len(res.schema.for_relation("r")) == 1
    assert not res.unsupported


def test_t2b_merges_same_key_under_budget_pressure():
    sigma = [QCS("r", ("a", "b"), ("a",)), QCS("r", ("a", "c"), ("a",))]
    # budget forces the same-key merge: two 2-col schemas (size 4) -> one
    # 3-col schema (size 3)
    res = t2b(CAT, sigma, _sizer(), budget=3.0)
    assert res.size_bytes <= 3.0
    assert not res.unsupported
    (kv,) = res.schema.for_relation("r")
    assert kv.key == ("a",) and set(kv.value) == {"b", "c"}


def test_t2b_drops_schemas_as_last_resort():
    sigma = [QCS("r", ("a", "b"), ("a",)), QCS("s", ("e", "f"), ("e",))]
    res = t2b(CAT, sigma, _sizer({"r": 100.0}), budget=2.5)
    # the expensive r schema is dropped; its QCS is reported unsupported
    assert res.size_bytes <= 2.5
    assert any(q.relation == "r" for q in res.unsupported)


def test_t2b_rejects_unknown_relation():
    with pytest.raises(ValueError):
        t2b(CAT, [QCS("zzz", ("a",), ("a",))], _sizer(), budget=10)


def test_t2b_rejects_unknown_columns():
    with pytest.raises(ValueError):
        t2b(CAT, [QCS("r", ("zz",), ("zz",))], _sizer(), budget=10)


def test_t2b_generated_schema_makes_queries_scan_free():
    """End-to-end M4: derive a schema from the access pattern of mot q1
    and check q1 is scan-free over it (paper: 'for any query abstracted
    by the QCS in Σ, Q is scan-free over ~R0')."""
    from repro.core.scanfree import is_scan_free
    from repro.workloads import mot

    sigma = [
        QCS("vehicle", ("vehicle_id", "make", "model"), ("vehicle_id",)),
        QCS(
            "mottest",
            ("vehicle_id", "test_date", "result", "mileage"),
            ("vehicle_id",),
        ),
    ]
    res = t2b(mot.CATALOG, sigma, lambda kv: len(kv.columns), budget=1e9)
    q = mot.q1(7)
    assert is_scan_free(q, mot.CATALOG, res.schema)


def test_t2b_store_backed_sizer(mot_ctx):
    """The sizer can come from real instance sizes (rows × width)."""
    from repro.core.t2b import t2b as run_t2b
    import pyarrow as pa

    from repro.nosql.kvstore import KVInstance, Meter

    def sizer(kv):
        return KVInstance(kv, pa.Table.from_pandas(mot_ctx.pdfs[kv.relation]), Meter()).size_bytes

    sigma = [QCS("vehicle", ("vehicle_id", "make"), ("vehicle_id",))]
    res = run_t2b(mot_ctx.workload.catalog, sigma, sizer, budget=1e12)
    assert res.size_bytes > 0 and not res.unsupported
