#!/usr/bin/env python3
"""Record the reference result digest of every workload in ``digests.json``.

    python3 perfbench/record_digests.py [workload ...]

The reference is computed with FilterV, which shares no search code with
VFree, on the workload's base graph (original ids). VFree must give the same
digest before it is recorded; the benchmark then checks every enumeration,
sequential or distributed, against it. Re-run only when a workload's input
definition changes.
"""
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core.runner import run_mfg  # noqa: E402
from repro.graph.index import TemporalBipartiteIndex  # noqa: E402

import workloads  # noqa: E402


def record(w: workloads.Workload) -> dict:
    base = workloads.base_edges(w)
    p = workloads.params(w)
    out = {}
    for algorithm in ("filterv", "vfree"):
        t = time.perf_counter()
        res = run_mfg(TemporalBipartiteIndex.from_pandas(base), p, algorithm)
        out[algorithm] = workloads.digest(res.groups)
        print(f"{w.name}: {algorithm} {len(res.groups)} groups in "
              f"{time.perf_counter() - t:.1f} s", file=sys.stderr)
    if out["filterv"] != out["vfree"]:
        raise SystemExit(f"{w.name}: FilterV and VFree disagree; not recorded")
    return {
        "sha256": out["filterv"],
        "groups": len(res.groups),
        "input_edges": len(base),
        "core_edges": res.filtered_edges,
    }


def main(names) -> None:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in names or workloads.WORKLOADS:
        digests[name] = record(workloads.WORKLOADS[name])
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
