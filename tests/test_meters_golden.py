"""Meter golden file: every template instantiation's access counts and
labels, pinned exactly.

``tests/data/meters_sf001.json`` holds, for each workload template at
its default parameter and every ``param_choices`` entry (SF 0.01, data
seed 0), Zidian's meter snapshot and its scan-free, bounded and
fallback flags. A change to the executor or the store must leave every
entry identical; row results are checked by the oracle tests.

Regenerate the file (only when a change is meant to alter the counts):

    PYTHONPATH=src python -m tests.test_meters_golden
"""
import json
import pathlib

from repro.runner import run_zidian
from repro.workloads import WORKLOADS

GOLDEN = pathlib.Path(__file__).parent / "data" / "meters_sf001.json"


def instantiations():
    """(workload, template, parameter) for every default and alternate
    parameter, in a fixed order."""
    for wl in ("tpch", "mot", "airca"):
        for t in WORKLOADS[wl].templates:
            for p in dict.fromkeys((t.default_param, *t.param_choices)):
                yield wl, t, p


def snapshot(contexts) -> dict[str, dict]:
    out = {}
    for wl, t, p in instantiations():
        zr = run_zidian(contexts[wl], t.instantiate(p))
        out[f"{wl}.{t.name}({p!r})"] = {
            "meter": zr.meter,
            "scan_free": zr.scan_free,
            "bounded": zr.bounded,
            "fallback": zr.fallback,
        }
    return out


def test_meters_match_golden_file(contexts):
    golden = json.loads(GOLDEN.read_text())
    got = snapshot(contexts)
    assert list(got) == list(golden)
    for name, want in golden.items():
        assert got[name] == want, name


if __name__ == "__main__":  # pragma: no cover
    from repro.experiments._session import get_session
    from repro.runner import build_context

    spark = get_session("meters")
    ctxs = {wl: build_context(spark, WORKLOADS[wl], sf=0.01) for wl in WORKLOADS}
    GOLDEN.write_text(json.dumps(snapshot(ctxs), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
