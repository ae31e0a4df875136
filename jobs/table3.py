#!/usr/bin/env python
"""Reproduce paper Table 3 (D1 case study) on the driver.

Usage: python jobs/table3.py [--seed 42]
No Spark session is started.
"""
import argparse

from repro.experiments.table3 import format_table3, run_table3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    print(format_table3(run_table3(seed=args.seed)))


if __name__ == "__main__":
    main()
