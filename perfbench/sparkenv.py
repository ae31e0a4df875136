"""Local Spark session for the benchmark: launch, preflight, probes, stop.

The session runs in local mode with 2 task slots, one shuffle partition per
slot and adaptive query execution off, so every enumeration runs the same
plan with the same jobs and tasks. Logs go through ``log4j2.properties``
next to this file (errors only), console progress is off, and every scratch
file Spark or the JVM writes lands in a per-process directory under
``perfbench/out``, which :func:`stop` removes.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import time
from pathlib import Path
from typing import Dict, List

MASTER = "local[2]"
SHUFFLE_PARTITIONS = 2
ADAPTIVE = False
DRIVER_MEMORY = "2g"
JIT = "-XX:TieredStopAtLevel=1"

HERE = Path(__file__).resolve().parent


class PreflightError(RuntimeError):
    """A Python worker cannot import ``repro``."""


def start(src: Path):
    """Start the session; workers find ``repro`` through ``PYTHONPATH``."""
    scratch = HERE / "out" / f"spark-{os.getpid()}"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(scratch)
    os.environ["TMPDIR"] = str(scratch / "tmp")
    # C1 only: the JVM reaches its steady state within the warm-ups, and
    # runs do not differ by where C2 happened to land.
    java_opts = (
        f"-Dlog4j2.configurationFile=file:{HERE / 'log4j2.properties'} "
        f"-Djava.io.tmpdir={scratch / 'tmp'} {JIT}"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f'--driver-java-options "{java_opts}" '
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.adaptive.enabled", str(ADAPTIVE).lower())
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def preflight(spark) -> None:
    """Fail early, with a clear message, when workers cannot import repro."""
    try:
        # A lambda is pickled by value: the worker needs only repro itself.
        spark.sparkContext.parallelize([0], 1).map(
            lambda _: __import__("repro").__name__
        ).collect()
    except Exception as exc:  # Py4JJavaError wraps the worker's traceback
        raise PreflightError(
            "a Spark Python worker cannot import 'repro'; "
            f"PYTHONPATH={os.environ.get('PYTHONPATH')!r}: "
            f"{str(exc).splitlines()[0]}"
        ) from exc


class Probe:
    """Speed probe of the Spark path: a fixed small job of the fan-out's kind.

    It shuffles a cached 10K-row frame by key and runs an ``applyInPandas``
    function over 100 groups, so it uses the JVM, the task slots and the
    Python workers as the Spark path does, and no program code. Each call
    returns its wall seconds.
    """

    #: Probe time, in seconds, that defines the reference speed (0.17-0.48 s
    #: on the baseline's 4-core VM, depending on the load of the host).
    REFERENCE_S = 0.4
    ROWS, KEYS = 10_000, 100

    def __init__(self, spark):
        import numpy as np
        import pandas as pd

        rng = np.random.default_rng(12345)
        pdf = pd.DataFrame({
            "k": rng.integers(0, self.KEYS, self.ROWS),
            "v": rng.integers(0, 1_000, self.ROWS),
        })
        self.df = spark.createDataFrame(pdf).cache()
        self.df.count()

    def __call__(self) -> float:
        import numpy as np
        import pandas as pd
        from pyspark.sql import functions as F

        def repeats(g):  # nested, so it is pickled by value for the workers
            _, counts = np.unique(g["v"].to_numpy(), return_counts=True)
            return pd.DataFrame({"n": [int((counts >= 2).sum())]})

        t0 = time.perf_counter()
        rows = (
            self.df.groupBy("k").applyInPandas(repeats, "n long")
            .agg(F.sum("n")).collect()
        )
        dt = time.perf_counter() - t0
        if not (rows and rows[0][0]):
            raise RuntimeError(f"the Spark speed probe returned {rows!r}")
        return dt


def jvm_pid(spark) -> int:
    return int(spark._jvm.java.lang.ProcessHandle.current().pid())


def _children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            out += [int(c) for c in Path(f"/proc/{pid}/task/{tid}/children")
                    .read_text().split()]
        except OSError:
            continue
    return out


def descendants(pid: int) -> List[int]:
    """All live descendant pids of ``pid`` (the JVM's Python workers)."""
    found, todo = [], _children(pid)
    while todo:
        p = todo.pop()
        found.append(p)
        todo += _children(p)
    return found


def peak_rss_mb(pid: int) -> float:
    """Resident high-water mark (``VmHWM``) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def memory_mb(spark) -> Dict[str, float]:
    """Peak RSS of the JVM and the summed peaks of its Python workers."""
    pid = jvm_pid(spark)
    return {
        "jvm": peak_rss_mb(pid),
        "pyworkers": sum(peak_rss_mb(p) for p in descendants(pid)),
    }


def job_counts(spark, group: str) -> Dict[str, int]:
    """Jobs, completed tasks and failed tasks run under a job group."""
    sc = spark.sparkContext
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    tasks = failed = 0
    for j in jobs:
        info = tracker.getJobInfo(j)
        for s in info.stageIds if info else ():
            st = tracker.getStageInfo(s)
            if st:
                tasks += st.numCompletedTasks
                failed += st.numFailedTasks
    return {"jobs": len(jobs), "tasks": tasks, "failed": failed}


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def stop(spark, timeout: float = 60.0) -> None:
    """Stop the session and the JVM, wait for the JVM and its workers."""
    from pyspark import SparkContext

    pid = jvm_pid(spark)
    workers = descendants(pid)
    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    deadline = time.monotonic() + timeout
    for p in [pid] + workers:
        while _alive(p) and time.monotonic() < deadline:
            time.sleep(0.05)
    shutil.rmtree(HERE / "out" / f"spark-{os.getpid()}", ignore_errors=True)
