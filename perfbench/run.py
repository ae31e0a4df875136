#!/usr/bin/env python3
"""MFG benchmark: one workload, one seed, a closed loop for ``--seconds``.

    python3 perfbench/run.py --workload seq-hub --seed 1 --seconds 20 --trace 0

One client runs enumerations back to back; the next starts when the previous
one returns. Every enumeration gets a fresh seeded relabelling of the
workload's graph (``workloads.relabel``), and its groups, mapped back to the
base ids, must match the recorded reference digest (``digests.json``); a
mismatch or an exception counts as a failed operation.

Between timed enumerations the loop times a fixed probe (``speed.py``;
on the Spark path ``sparkenv.Probe``), and the run's times are reported at
the reference speed: wall seconds times the probe's reference time over the
run's median probe time. The wall times themselves are in the detail line.

``--trace 0`` prints the end-to-end metrics (``enumerate_s``,
``edges_per_s``, ``setup_s``, ``peak_rss_mb``). ``--trace 1`` alternates
traced enumerations, which call each layer's public function inside a span,
with untraced ones, and prints the per-layer metrics. The last stdout line
is the result JSON; the line before it gives sample counts and quartiles.
"""
import time

T_PROCESS = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Dict, List, Optional, Sequence, Tuple  # noqa: E402

import numpy as np  # noqa: E402

import sparkenv  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Input generations per run; set-up counts their median once.
GENERATIONS = 3
#: Untimed enumerations before the first timed one, per path.
WARMUPS = {"seq": 1, "dist": 3}
#: Speed probing between timed enumerations, as a share of the previous
#: enumeration's time (at least one probe each time), per path. The Spark
#: probe varies more from call to call, so it is called more often.
PROBE_SHARE = {"seq": 0.1, "dist": 0.3}

E2E_UNITS = {
    "enumerate_s": "s",
    "edges_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.spark_start_s": "s",
    "setup.warmup_s": "s",
    "index.build_s": "s",
    "index.edges": "count",
    "gfcore.local_s": "s",
    "gfcore.edges_in": "count",
    "gfcore.edges_out": "count",
    "gfcore.keep_ratio": "ratio",
    "vfree.search_s": "s",
    "vfree.cm_s": "s",
    "vfree.other_s": "s",
    "vfree.groups": "count",
    "schema.to_spark_s": "s",
    "stats.degree_order_s": "s",
    "gfcore.spark_s": "s",
    "gfcore.spark_jobs": "count",
    "gfcore.spark_tasks": "count",
    "distributed.fanout_s": "s",
    "distributed.expand_rows": "count",
    "distributed.replication": "ratio",
    "distributed.spark_tasks": "count",
    "distributed.failed_tasks": "count",
    "distributed.result_rows": "count",
    "mem.jvm_peak_rss_mb": "MB",
    "mem.pyworker_peak_rss_mb": "MB",
    "trace.traced_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "speed.probe_s": "s",
}


def tail_percentile(
    samples: Sequence[float], levels: Sequence[float] = (99.9, 99.0, 95.0, 90.0)
) -> Optional[Tuple[float, float]]:
    """``(level, value)`` of the highest level with >= 10 samples beyond it.

    Nearest-rank percentile; ``None`` when no level has 10 samples beyond
    it (fewer than 100 samples for p90).
    """
    n = len(samples)
    for level in sorted(levels, reverse=True):
        if round(n * (100.0 - level) / 100.0, 6) >= 10:
            rank = max(1, math.ceil(round(level * n / 100.0, 6)))
            return level, sorted(samples)[rank - 1]
    return None


def quartiles(samples: Sequence[float]) -> List[float]:
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


class SeqPipeline:
    """Driver path: pandas frame → index → ``run_mfg(..., "vfree")``."""

    def __init__(self, p):
        self.p = p
        self.probe = speed.probe  # machine speed, on the driver's core
        self.reference_s = speed.REFERENCE_S

    def run(self, edges):
        from repro.core.runner import run_mfg
        from repro.graph.index import TemporalBipartiteIndex

        return run_mfg(TemporalBipartiteIndex.from_pandas(edges), self.p).groups

    def traced(self, edges, tracer, trace_id: int):
        from repro.core.gfcore import gfcore_local
        from repro.core.vfree import vfree
        from repro.graph.index import TemporalBipartiteIndex

        p, timers = self.p, {}
        with tracer.span("enumerate", trace_id) as root:
            with tracer.span("index.build", trace_id, "enumerate") as s_idx:
                index = TemporalBipartiteIndex.from_pandas(edges)
            with tracer.span("gfcore.local", trace_id, "enumerate") as s_core:
                core = gfcore_local(index, p.tau_u, p.tau_v, p.lam)
            with tracer.span("vfree.search", trace_id, "enumerate") as s_vf:
                groups = vfree(core, p.tau_u, p.tau_v, p.lam, timers=timers)
        layer = {
            "index.build_s": s_idx.seconds,
            "index.edges": len(index),
            "gfcore.local_s": s_core.seconds,
            "gfcore.edges_in": len(index),
            "gfcore.edges_out": len(core),
            "gfcore.keep_ratio": len(core) / len(index),
            "vfree.search_s": s_vf.seconds,
            "vfree.cm_s": timers["cm"],
            "vfree.other_s": s_vf.seconds - timers["cm"],
            "vfree.groups": len(groups),
        }
        return groups, root, layer

    def per_run(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


class DistPipeline:
    """Spark path: ``edges_from_pandas`` → ``enumerate_mfg_distributed``."""

    def __init__(self, p, spark):
        self.p, self.spark = p, spark
        # Machine and Spark speed, on the cores the Spark path uses.
        self.probe = sparkenv.Probe(spark)
        self.reference_s = sparkenv.Probe.REFERENCE_S
        self.expand: Dict[str, float] = {}

    def run(self, edges):
        from repro.core.distributed import enumerate_mfg_distributed
        from repro.graph.schema import edges_from_pandas

        p = self.p
        return enumerate_mfg_distributed(
            edges_from_pandas(self.spark, edges), p.tau_u, p.tau_v, p.lam,
            "vfree",
        )

    def traced(self, edges, tracer, trace_id: int):
        from repro.core.distributed import enumerate_mfg_distributed
        from repro.core.gfcore import gfcore_spark
        from repro.graph.schema import edges_from_pandas
        from repro.graph.stats import degree_order_v

        p, spark = self.p, self.spark
        with tracer.span("enumerate", trace_id) as root:
            with tracer.span("schema.to_spark", trace_id, "enumerate") as s_in:
                e = edges_from_pandas(spark, edges)
            with tracer.span("gfcore.spark", trace_id, "enumerate") as s_core:
                core = gfcore_spark(e, p.tau_u, p.tau_v, p.lam)
            with tracer.span("stats.degree_order", trace_id, "enumerate") as s_ord:
                degree_order_v(core).collect()
            with tracer.span("distributed.fanout", trace_id, "enumerate") as s_fan:
                groups = enumerate_mfg_distributed(
                    core, p.tau_u, p.tau_v, p.lam, "vfree",
                    apply_graph_filter=False,
                )
        jobs = {
            s.name: sparkenv.job_counts(spark, s.group)
            for s in (s_in, s_core, s_ord, s_fan)
        }
        if not self.expand:
            self.expand = self._expansion(core)
        n_in = len(edges)
        n_out = self.expand["core_edges"]
        layer = {
            "schema.to_spark_s": s_in.seconds,
            "gfcore.spark_s": s_core.seconds,
            "gfcore.spark_jobs": jobs["gfcore.spark"]["jobs"],
            "gfcore.spark_tasks": jobs["gfcore.spark"]["tasks"],
            "gfcore.edges_in": n_in,
            "gfcore.edges_out": n_out,
            "gfcore.keep_ratio": n_out / n_in,
            "stats.degree_order_s": s_ord.seconds,
            "distributed.fanout_s": s_fan.seconds,
            "distributed.spark_tasks": jobs["distributed.fanout"]["tasks"],
            "distributed.failed_tasks": sum(c["failed"] for c in jobs.values()),
            "distributed.result_rows": len(groups),
        }
        return groups, root, layer

    @staticmethod
    def _expansion(core) -> Dict[str, float]:
        """Rows of the 2-hop per-root expansion: Σ over (u,t) of deg(u,t)²."""
        pdf = core.toPandas()
        deg = pdf.groupby(["u", "t"]).size().to_numpy()
        rows = int((deg.astype("int64") ** 2).sum())
        return {"core_edges": len(pdf), "rows": rows}

    def per_run(self) -> Dict[str, float]:
        mem = sparkenv.memory_mb(self.spark)
        out = {
            "mem.jvm_peak_rss_mb": mem["jvm"],
            "mem.pyworker_peak_rss_mb": mem["pyworkers"],
        }
        if self.expand:
            out["distributed.expand_rows"] = self.expand["rows"]
            out["distributed.replication"] = (
                self.expand["rows"] / self.expand["core_edges"]
            )
        return out

    def close(self) -> None:
        sparkenv.stop(self.spark)


class Loop:
    """Closed loop of checked enumerations; counts attempts and failures."""

    def __init__(self, base, seed: int, reference: str):
        self.base, self.seed, self.reference = base, seed, reference
        self.i = 0
        self.attempted = self.failed = 0

    def once(self, op: Callable) -> Tuple[float, bool, object]:
        """Run ``op(edges)`` on the next relabelling; ``(seconds, ok, out)``."""
        rng = np.random.default_rng([self.seed, self.i])
        case = workloads.relabel(self.base, rng)
        self.i += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = op(case.edges)
            dt = time.perf_counter() - t0
            groups = out[0] if isinstance(out, tuple) else out
            ok = workloads.digest(groups, case.v_back) == self.reference
            if not ok:
                print(f"wrong result in enumeration {self.i}", file=sys.stderr)
        except Exception:  # a failed operation; the loop keeps measuring
            dt = time.perf_counter() - t0
            traceback.print_exc()
            ok, out = False, None
        self.attempted += 1
        self.failed += not ok
        return dt, ok, out


def median_or(values: Sequence[float], default: float = 0.0) -> float:
    return statistics.median(values) if values else default


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: the program source {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "digests.json").read_text())[w.name]
    p = workloads.params(w)

    spark_s = 0.0
    if w.path == "dist":
        t = time.perf_counter()
        spark = sparkenv.start(SRC)
        try:
            sparkenv.preflight(spark)
            pipeline = DistPipeline(p, spark)
        except BaseException as exc:
            sparkenv.stop(spark)
            if not isinstance(exc, sparkenv.PreflightError):
                raise
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
        spark_s = time.perf_counter() - t
    else:
        pipeline = SeqPipeline(p)
    import_s = time.perf_counter() - T_PROCESS - spark_s

    try:
        return measure(args, w, pipeline, reference, import_s, spark_s)
    finally:
        pipeline.close()


def measure(args, w, pipeline, reference, import_s, spark_s) -> int:
    gen = []
    for _ in range(GENERATIONS):
        t = time.perf_counter()
        base = workloads.base_edges(w)
        gen.append(time.perf_counter() - t)
    loop = Loop(base, args.seed, reference["sha256"])

    t = time.perf_counter()
    for _ in range(WARMUPS[w.path]):
        loop.once(pipeline.run)
    pipeline.probe()  # its first call warms up its own code
    warmup_s = time.perf_counter() - t
    # Process start to first timed enumeration, with the input generated
    # once at its median time.
    setup_s = time.perf_counter() - T_PROCESS - sum(gen) + statistics.median(gen)

    tracer = Tracer(getattr(pipeline, "spark", None)) if args.trace else None
    plain: List[float] = []
    plain_failed: List[float] = []  # reported only if nothing succeeded
    traced: List[float] = []
    layers: List[Dict[str, float]] = []
    probes: List[float] = []
    last = 0.0  # seconds of the previous enumeration
    start = time.perf_counter()
    n = 0
    while True:
        probes += speed.sample(pipeline.probe, PROBE_SHARE[w.path] * last)
        if tracer is not None and n % 2 == 0:
            trace_id = n
            last, ok, out = loop.once(
                lambda e: pipeline.traced(e, tracer, trace_id)
            )
            if ok:
                _, root, layer = out
                attributed = sum(
                    s.seconds for s in tracer.children(trace_id, "enumerate")
                )
                layer["trace.traced_s"] = root.seconds
                layer["trace.unattributed_s"] = root.seconds - attributed
                layers.append(layer)
                traced.append(root.seconds)
        else:
            last, ok, _ = loop.once(pipeline.run)
            (plain if ok else plain_failed).append(last)
        n += 1
        per_op = (time.perf_counter() - start) / n
        # A traced run needs one traced and one untraced enumeration.
        if n >= (2 if tracer else 1) and (
            time.perf_counter() - start + per_op > args.seconds
        ):
            break

    probes += speed.sample(pipeline.probe, PROBE_SHARE[w.path] * last)
    # Times are reported at the reference speed (see speed.py).
    scale = pipeline.reference_s / statistics.median(probes)
    timed = [scale * x for x in plain]
    n_edges = len(base)
    enum_s = scale * statistics.median(plain or plain_failed)
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "path": w.path,
        "input_edges": n_edges,
        "params": [pipeline.p.tau_u, pipeline.p.tau_v, pipeline.p.lam],
        "samples": len(plain),
        "enumerate_s_quartiles": quartiles(timed) if timed else None,
        "enumerate_s_tail": tail_percentile(timed),
        "speed_scale": scale,
        "speed_probes": len(probes),
        "enumerate_wall_s": median_or(plain),
        "enumerate_wall_s_samples": [round(x, 4) for x in plain],
        "setup_wall_s": setup_s,
        "warmups": WARMUPS[w.path],
        "generations": GENERATIONS,
    }
    if w.path == "dist":
        detail.update(
            master=sparkenv.MASTER,
            shuffle_partitions=sparkenv.SHUFFLE_PARTITIONS,
            adaptive=sparkenv.ADAPTIVE,
            jit=sparkenv.JIT,
        )
    if tracer is None:
        metrics = {
            "enumerate_s": enum_s,
            "edges_per_s": n_edges / enum_s,
            "setup_s": scale * setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        units = E2E_UNITS
    else:
        values = {k: 0.0 for k in LAYER_UNITS}
        for k in {k for layer in layers for k in layer}:
            values[k] = median_or([layer[k] for layer in layers if k in layer])
        values.update(pipeline.per_run())
        values.update({
            "setup.import_s": import_s,
            "setup.generate_s": statistics.median(gen),
            "setup.spark_start_s": spark_s,
            "setup.warmup_s": warmup_s,
            "trace.overhead_s": median_or(traced) - median_or(plain),
            "speed.probe_s": statistics.median(probes),
        })
        metrics, units = values, LAYER_UNITS
        detail["traced_samples"] = len(layers)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            k: {"value": float(metrics[k]), "unit": units[k]} for k in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
