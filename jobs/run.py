"""Run table drivers at the sizes EXPERIMENTS.md reports.

    python jobs/run.py t5_scalability            # one table
    python jobs/run.py t3_consistency t9_variants

Each stem names one driver of ``repro.experiments.tables`` (its ``tN``
prefix) and the CSV it writes under ``jobs/results/``. The drivers run with
their defaults, so ``table_tN(spark)`` is exactly what EXPERIMENTS.md reports.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pandas as pd

from repro.experiments import tables
from repro.session import get_spark

STEMS = (
    "t1_dataset_stats", "t2_accuracy_vs_f", "t3_consistency", "t4_factorized_timing",
    "t5_scalability", "t6_vary_k", "t7_restarts", "t8_lambda", "t9_variants",
    "t10_homophily", "t11_heuristic", "t12_l2",
)
JOBS = {stem: getattr(tables, "table_" + stem.split("_")[0]) for stem in STEMS}


def emit(name: str, df: pd.DataFrame) -> None:
    pd.set_option("display.width", 200)
    pd.set_option("display.max_rows", 500)
    print(f"\n=== {name} ===")
    print(df.to_string(index=False))
    out = Path(__file__).resolve().parent / "results"
    out.mkdir(exist_ok=True)
    df.to_csv(out / f"{name}.csv", index=False)
    print(f"[written {out / (name + '.csv')}]", file=sys.stderr)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Run table drivers; write jobs/results/<stem>.csv.")
    parser.add_argument("stems", nargs="+", choices=STEMS, metavar="stem",
                        help="one of: " + ", ".join(STEMS))
    args = parser.parse_args(argv)
    spark = get_spark()
    try:
        for stem in args.stems:
            emit(stem, JOBS[stem](spark))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
