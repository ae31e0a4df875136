#!/usr/bin/env python
"""Reproduce paper Table 1 (FilterV/VFree CM cost) on the D14 analogue.

Usage: python jobs/table1.py [--sf 1.0]
The measurement is driver-side kernel instrumentation; no Spark session is
started. Exits non-zero, after printing the table, when FilterV's and
VFree's groups differ in a (tau_U, tau_V, lambda) column or a column has no
group.
"""
import argparse
import sys

from repro.experiments.datasets import scale_factor
from repro.experiments.table1 import format_table1, run_table1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sf", type=scale_factor, default=1.0)
    rows = run_table1(sf=ap.parse_args().sf)
    print(format_table1(rows))
    bad = [str(r.params) for r in rows if not r.agree]
    if bad:
        sys.exit(
            "table1: FilterV's and VFree's groups differ at "
            f"(tau_U, tau_V, lambda) = {', '.join(bad)}"
        )
    empty = [str(r.params) for r in rows if not r.filterv.groups]
    if empty:
        sys.exit(
            f"table1: no group found at (tau_U, tau_V, lambda) = {', '.join(empty)}"
        )


if __name__ == "__main__":
    main()
