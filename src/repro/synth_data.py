"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

Three dataset families (DESIGN.md §2):

- **TPC-H-lite** (8 relations): uniform, skew-free distributions as in
  TPC-H dbgen — this is what makes BaaV block degrees either ~1 or ~|R|
  and limits Zidian's gains, matching the paper's TPC-H observation.
- **MOT-lite** (3 relations, stands in for the UK MOT data): zipfian
  make/model/station skew, but a *bounded* number of tests/observations
  per vehicle (≤ ~10) — the source of the paper's bounded queries.
- **AIRCA-lite** (7 relations, stands in for the US air-carrier data):
  zipfian carrier/airport skew over a deeper join topology.

Every table has a ``*_pdf`` pandas generator; ``runner.build_context``
builds both stores from these frames, and the DuckDB oracle reads them as
they are.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000

NATION_NAMES = [
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
    "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
    "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
    "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
    "UNITED STATES",
]
REGION_NAMES = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
# TPC-H's nation->region assignment (index into REGION_NAMES)
_NATION_REGION = [0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2,
                  3, 4, 2, 3, 3, 1]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _zipf_choice(g: np.random.Generator, items: np.ndarray, n: int) -> np.ndarray:
    """Zipfian draw over ``items`` (rank-ordered skew, exponent 1.1)."""
    ranks = np.arange(1, len(items) + 1)
    w = 1.0 / ranks**1.1
    w /= w.sum()
    return g.choice(items, size=n, p=w)


# --------------------------------------------------------------------
# TPC-H-lite
# --------------------------------------------------------------------
def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, n_supp + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipmode": g.choice(
                ["MAIL", "SHIP", "AIR", "RAIL", "TRUCK", "FOB", "REG AIR"], n
            ),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )


def customer_pdf(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


def part_pdf(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice(
                [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )


def supplier_pdf(*, sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 11000 - 1000).round(2),
        }
    )


def partsupp_pdf(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    n = max(1, int(_N_PARTSUPP_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "ps_partkey": g.integers(1, n_part + 1, n),
            "ps_suppkey": g.integers(1, n_supp + 1, n),
            "ps_supplycost": (g.random(n) * 1000 + 1).round(2),
            "ps_availqty": g.integers(1, 10000, n),
        }
    )


def nation_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": NATION_NAMES,
            "n_regionkey": _NATION_REGION,
        }
    )


def region_pdf() -> pd.DataFrame:
    return pd.DataFrame(
        {"r_regionkey": np.arange(5), "r_name": REGION_NAMES}
    )


def tpch_pdfs(*, sf: float = 0.01, seed: int = 0) -> dict[str, pd.DataFrame]:
    """All eight TPC-H-lite relations as pandas DataFrames."""
    return {
        "lineitem": lineitem_pdf(sf=sf, seed=seed),
        "orders": orders_pdf(sf=sf, seed=seed + 1),
        "customer": customer_pdf(sf=sf, seed=seed + 2),
        "part": part_pdf(sf=sf, seed=seed + 5),
        "supplier": supplier_pdf(sf=sf, seed=seed + 6),
        "partsupp": partsupp_pdf(sf=sf, seed=seed + 7),
        "nation": nation_pdf(),
        "region": region_pdf(),
    }


# --------------------------------------------------------------------
# MOT-lite (stands in for the UK MOT data; skewed, bounded degrees)
# --------------------------------------------------------------------
_N_VEHICLE_PER_SF = 1_000_000
_MAX_TESTS_PER_VEHICLE = 10  # bounded degree for bounded queries

MAKES = [f"MAKE_{i:02d}" for i in range(50)]
MODELS = [f"MODEL_{i:03d}" for i in range(500)]
FUELS = ["PETROL", "DIESEL", "HYBRID", "ELECTRIC"]
RESULTS = ["PASS", "FAIL", "PRS", "ABA"]
REGIONS = [f"REGION_{i}" for i in range(12)]


def mot_vehicle_pdf(*, sf: float = 0.01, seed: int = 20) -> pd.DataFrame:
    n = max(1, int(_N_VEHICLE_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "vehicle_id": np.arange(1, n + 1),
            "make": _zipf_choice(g, np.array(MAKES), n),
            "model": _zipf_choice(g, np.array(MODELS), n),
            "fuel": g.choice(FUELS, n, p=[0.55, 0.35, 0.07, 0.03]),
            "first_use_year": g.integers(1980, 2012, n),
            "colour": g.choice(
                ["BLACK", "WHITE", "SILVER", "BLUE", "RED", "GREEN"], n
            ),
        }
    )


def mot_test_pdf(*, sf: float = 0.01, seed: int = 21) -> pd.DataFrame:
    n_veh = max(1, int(_N_VEHICLE_PER_SF * sf))
    g = _rng(seed)
    # Bounded tests per vehicle: 1..MAX (deg(~test by vehicle) <= MAX).
    per = g.integers(1, _MAX_TESTS_PER_VEHICLE + 1, n_veh)
    vehicle_id = np.repeat(np.arange(1, n_veh + 1), per)
    n = len(vehicle_id)
    return pd.DataFrame(
        {
            "test_id": np.arange(1, n + 1),
            "vehicle_id": vehicle_id,
            "test_date": pd.to_datetime("2007-01-01")
            + pd.to_timedelta(g.integers(0, 1826, n), unit="D"),
            "result": g.choice(RESULTS, n, p=[0.62, 0.3, 0.06, 0.02]),
            "mileage": g.integers(0, 250_000, n),
            "test_class": g.integers(1, 8, n),
            "station_id": _zipf_choice(
                g, np.arange(1, max(10, int(2000 * sf)) + 1), n
            ),
        }
    )


def mot_survey_pdf(*, sf: float = 0.01, seed: int = 22) -> pd.DataFrame:
    n_veh = max(1, int(_N_VEHICLE_PER_SF * sf))
    g = _rng(seed)
    per = g.integers(0, 4, n_veh)  # 0..3 roadside observations/vehicle
    vehicle_id = np.repeat(np.arange(1, n_veh + 1), per)
    n = max(1, len(vehicle_id))
    if len(vehicle_id) == 0:
        vehicle_id = np.array([1])
    return pd.DataFrame(
        {
            "obs_id": np.arange(1, n + 1),
            "vehicle_id": vehicle_id[:n],
            "road_id": _zipf_choice(g, np.arange(1, 5001), n),
            "region": _zipf_choice(g, np.array(REGIONS), n),
            "obs_date": pd.to_datetime("2007-01-01")
            + pd.to_timedelta(g.integers(0, 1826, n), unit="D"),
            "speed": (g.random(n) * 70 + 10).round(1),
        }
    )


def mot_pdfs(*, sf: float = 0.01, seed: int = 0) -> dict[str, pd.DataFrame]:
    return {
        "vehicle": mot_vehicle_pdf(sf=sf, seed=seed + 20),
        "mottest": mot_test_pdf(sf=sf, seed=seed + 21),
        "survey": mot_survey_pdf(sf=sf, seed=seed + 22),
    }


# --------------------------------------------------------------------
# AIRCA-lite (stands in for the US air-carrier data; 7 tables)
# --------------------------------------------------------------------
_N_FLIGHT_PER_SF = 3_000_000
_N_AIRCRAFT_PER_SF = 60_000

CARRIERS = [f"CR{i:02d}" for i in range(30)]
AIRPORTS = [f"AP{i:03d}" for i in range(300)]
STATES = [f"ST{i:02d}" for i in range(50)]


def airca_carrier_pdf(*, seed: int = 30) -> pd.DataFrame:
    g = _rng(seed)
    return pd.DataFrame(
        {
            "carrier_code": CARRIERS,
            "carrier_name": [f"Carrier {c}" for c in CARRIERS],
            "group_code": g.choice(["MAJOR", "NATIONAL", "REGIONAL"], len(CARRIERS)),
        }
    )


def airca_airport_pdf(*, seed: int = 31) -> pd.DataFrame:
    g = _rng(seed)
    return pd.DataFrame(
        {
            "airport_code": AIRPORTS,
            "city": [f"City {a}" for a in AIRPORTS],
            "state": g.choice(STATES, len(AIRPORTS)),
        }
    )


def airca_aircraft_pdf(*, sf: float = 0.01, seed: int = 32) -> pd.DataFrame:
    n = max(1, int(_N_AIRCRAFT_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "tail_num": [f"N{i:06d}" for i in range(1, n + 1)],
            "aircraft_type": g.choice(["B737", "B747", "A320", "A330", "E145"], n),
            "mfr_year": g.integers(1975, 2002, n),
        }
    )


def airca_route_pdf(*, seed: int = 33) -> pd.DataFrame:
    g = _rng(seed)
    n = 5000
    return pd.DataFrame(
        {
            "route_id": np.arange(1, n + 1),
            "origin": _zipf_choice(g, np.array(AIRPORTS), n),
            "dest": g.choice(AIRPORTS, n),
            "distance": g.integers(100, 5000, n),
        }
    )


def airca_flight_pdf(*, sf: float = 0.01, seed: int = 34) -> pd.DataFrame:
    n = max(1, int(_N_FLIGHT_PER_SF * sf))
    n_ac = max(1, int(_N_AIRCRAFT_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "flight_id": np.arange(1, n + 1),
            "carrier_code": _zipf_choice(g, np.array(CARRIERS), n),
            "origin": _zipf_choice(g, np.array(AIRPORTS), n),
            "dest": g.choice(AIRPORTS, n),
            "tail_num": [
                f"N{i:06d}" for i in g.integers(1, n_ac + 1, n)
            ],
            "dep_delay": (g.standard_exponential(n) * 12 - 4).round(1),
            "arr_delay": (g.standard_exponential(n) * 14 - 5).round(1),
            "flight_date": pd.to_datetime("1995-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )


def airca_carrier_stats_pdf(*, seed: int = 35) -> pd.DataFrame:
    g = _rng(seed)
    rows = [(c, y) for c in CARRIERS for y in range(1987, 2002)]
    return pd.DataFrame(
        {
            "carrier_code": [r[0] for r in rows],
            "year": [r[1] for r in rows],
            "passengers": g.integers(10_000, 5_000_000, len(rows)),
            "freight_tons": g.integers(100, 50_000, len(rows)),
        }
    )


def airca_delay_stats_pdf(*, seed: int = 36) -> pd.DataFrame:
    g = _rng(seed)
    rows = [(c, m) for c in CARRIERS for m in range(1, 13)]
    return pd.DataFrame(
        {
            "carrier_code": [r[0] for r in rows],
            "month": [r[1] for r in rows],
            "delays": g.integers(0, 10_000, len(rows)),
        }
    )


def airca_pdfs(*, sf: float = 0.01, seed: int = 0) -> dict[str, pd.DataFrame]:
    return {
        "carrier": airca_carrier_pdf(seed=seed + 30),
        "airport": airca_airport_pdf(seed=seed + 31),
        "aircraft": airca_aircraft_pdf(sf=sf, seed=seed + 32),
        "route": airca_route_pdf(seed=seed + 33),
        "flight": airca_flight_pdf(sf=sf, seed=seed + 34),
        "carrier_stats": airca_carrier_stats_pdf(seed=seed + 35),
        "delay_stats": airca_delay_stats_pdf(seed=seed + 36),
    }
