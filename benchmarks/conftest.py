"""Benchmark fixtures and result publication.

Bench scale is SF=0.1 (~100 MB TPC-H-lite) per the brief; MOT/AIRCA use
SF=0.05 to keep the full-suite Table 3 run within minutes. Each bench
module writes the table it reproduces to ``benchmarks/out/`` so the
numbers in EXPERIMENTS.md can be regenerated from a bench run alone.
"""
import pathlib

OUT_DIR = pathlib.Path(__file__).parent / "out"
OUT_DIR.mkdir(exist_ok=True)

BENCH_SF_TPCH = 0.1
BENCH_SF_REAL = 0.05


def publish(name: str, title: str, df) -> None:
    """Write a reproduced table to benchmarks/out/<name>.md."""
    from repro.experiments._session import to_markdown

    path = OUT_DIR / f"{name}.md"
    path.write_text(f"## {title}\n\n{to_markdown(df)}\n")
