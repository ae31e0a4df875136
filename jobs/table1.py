#!/usr/bin/env python
"""Reproduce paper Table 1 (FilterV/VFree CM cost) on the driver.

Usage: python jobs/table1.py [--sf 1.0] [--dataset D14]
The measurement is driver-side kernel instrumentation; no Spark session is
started. Exits non-zero, after printing the table, when FilterV's and
VFree's groups differ in a (tau_U, tau_V, lambda) column or a column has no
group.
"""
import argparse
import sys

from repro.experiments.table1 import format_table1, run_table1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=float, default=1.0)
    ap.add_argument("--dataset", default="D14")
    args = ap.parse_args()
    rows = run_table1(sf=args.sf, dataset=args.dataset)
    print(format_table1(rows))
    bad = [str(r.params) for r in rows if not r.agree]
    if bad:
        sys.exit(
            "table1: FilterV's and VFree's groups differ at "
            f"(tau_U, tau_V, lambda) = {', '.join(bad)}"
        )
    empty = [str(r.params) for r in rows if not r.n_groups]
    if empty:
        sys.exit(
            f"table1: no group found at (tau_U, tau_V, lambda) = {', '.join(empty)}"
        )


if __name__ == "__main__":
    main()
