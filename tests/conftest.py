"""Shared test fixtures: one materialized store per workload per session.

The ``spark`` fixture comes from the repo-root conftest. Contexts are
session-scoped because building one generates every relation, ships
each into Spark for the TaaV store and builds every KV instance of the
driver-side keyed-block store from the pandas frames — rebuilding per
test would dominate the suite's runtime.
"""
import numpy as np
import pytest

from repro.runner import RunContext, build_context
from repro.workloads import airca, mot, tpch

TEST_SF = 0.01


@pytest.fixture(scope="session")
def tpch_ctx(spark) -> RunContext:
    ctx = build_context(spark, tpch.WORKLOAD, sf=TEST_SF)
    yield ctx
    ctx.close()


@pytest.fixture(scope="session")
def mot_ctx(spark) -> RunContext:
    ctx = build_context(spark, mot.WORKLOAD, sf=TEST_SF)
    yield ctx
    ctx.close()


@pytest.fixture(scope="session")
def airca_ctx(spark) -> RunContext:
    ctx = build_context(spark, airca.WORKLOAD, sf=TEST_SF)
    yield ctx
    ctx.close()


@pytest.fixture(scope="session")
def contexts(tpch_ctx, mot_ctx, airca_ctx) -> dict[str, RunContext]:
    return {"tpch": tpch_ctx, "mot": mot_ctx, "airca": airca_ctx}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
