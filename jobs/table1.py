#!/usr/bin/env python
"""Reproduce paper Table 1 (FilterV/VFree CM cost) on the driver.

Usage: python jobs/table1.py [--sf 1.0] [--dataset D14]
The measurement is driver-side kernel instrumentation; no Spark session is
started.
"""
import argparse

from repro.experiments.table1 import format_table1, run_table1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--dataset", default="D14")
    args = ap.parse_args()
    print(format_table1(run_table1(sf=args.sf, dataset=args.dataset)))


if __name__ == "__main__":
    main()
