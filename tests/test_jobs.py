"""Command-line checks of the ``jobs/`` scripts. Only
``run_mfg.py --distributed`` starts a Spark session, and the driver path
loads no pyspark."""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.params import Params
from repro.experiments.datasets import SPECS
from repro.experiments.exp1 import Exp1Row
from repro.experiments.table1 import Table1Row
from tests.conftest import mfg_run

ROOT = Path(__file__).resolve().parent.parent


def _run_job(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``jobs/<name>.py``; assert it started no Spark session (one
    would log "Using Spark's default log4j profile" to stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / f"{name}.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert "Spark" not in proc.stderr
    return proc


@pytest.mark.parametrize(
    "args, message",
    [
        (["--algorithm", "nope"], "invalid choice"),
        (["--distributed", "--algorithm", "filterv"], "vfree only"),
    ],
)
def test_run_mfg_rejects_bad_arguments(args, message):
    proc = _run_job("run_mfg", *args)
    assert proc.returncode == 2
    assert message in proc.stderr


@pytest.mark.parametrize(
    "job, args, message",
    [
        ("exp1", ["--datasets", "D1", "D99"], "invalid choice"),
        ("table1", ["--dataset", "D14"], "unrecognized arguments"),
        ("table3", ["--seed", "1"], "unrecognized arguments"),
        *[
            (job, ["--sf", sf], "invalid scale_factor value")
            for job in ("exp1", "run_mfg", "table1", "table2")
            for sf in ("nan", "inf", "-1")
        ],
    ],
)
def test_experiment_jobs_reject_bad_arguments(job, args, message):
    """Rejected before any dataset is generated: exit code 2, no table.
    ``--sf`` must be finite and > 0 (``datasets.scale_factor``)."""
    proc = _run_job(job, *args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stdout == ""


def test_run_mfg_driver_path_starts_no_spark():
    proc = _run_job("run_mfg", "--dataset", "D2", "--sf", "0.05")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# D2")


def test_run_mfg_distributed_path_gives_the_driver_groups():
    """``--distributed`` on D14 at sf=0.1 prints the driver run's groups.
    Its session leaves Arrow at Spark's default, off, and the edge frame it
    builds still keeps its rows out of the plan; the job's call is wrapped
    to report both."""
    args = ["--dataset", "D14", "--sf", "0.1"]
    driver = _run_job("run_mfg", *args)
    assert driver.returncode == 0, driver.stderr
    code = (
        "import runpy, sys\n"
        "from repro.core import distributed\n"
        "call = distributed.enumerate_mfg_distributed\n"
        "def reporting(edges, *a, **k):\n"
        "    conf = edges.sparkSession.conf\n"
        "    arrow = conf.get('spark.sql.execution.arrow.pyspark.enabled')\n"
        "    print('#arrow', arrow, 'local', edges.isLocal(), file=sys.stderr)\n"
        "    return call(edges, *a, **k)\n"
        "distributed.enumerate_mfg_distributed = reporting\n"
        f"sys.argv = ['run_mfg.py', *{args!r}, '--distributed']\n"
        f"runpy.run_path({str(ROOT / 'jobs' / 'run_mfg.py')!r}, "
        "run_name='__main__')\n"
    )
    submit = (
        "--master local[2] --driver-memory 512m "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), PYSPARK_SUBMIT_ARGS=submit
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "#arrow false local False" in proc.stderr
    head, *groups = proc.stdout.splitlines()
    driver_head, *driver_groups = driver.stdout.splitlines()
    assert head == driver_head.replace("distributed=False", "distributed=True")
    assert groups == driver_groups and groups


def test_table2_job_starts_no_spark():
    proc = _run_job("table2", "--sf", "0.02")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Dataset")
    assert len(proc.stdout.splitlines()) == 16


def test_driver_path_imports_no_pyspark():
    """The driver kernels, models and harnesses load no pyspark module."""
    code = (
        "import sys\n"
        "import repro.core.runner, repro.models.mfb, repro.models.msg\n"
        "import repro.experiments.table1, repro.experiments.table2\n"
        "import repro.experiments.table3, repro.experiments.exp1\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _load_job(name: str):
    """Import ``jobs/<name>.py`` as a module."""
    path = ROOT / "jobs" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exp1_exits_nonzero_when_algorithms_disagree(monkeypatch, capsys):
    job = _load_job("exp1")
    row = Exp1Row(SPECS["D2"], {
        "filterv": mfg_run("filterv", {frozenset({1}): {1}}, verifications=1),
        "vfree": mfg_run("vfree", {frozenset({2}): {1}}, evaluations=1),
    })
    monkeypatch.setattr(job, "run_exp1", lambda **_: [row])
    monkeypatch.setattr(sys, "argv", ["exp1.py"])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code not in (0, None)
    assert "D2" in str(exc.value.code)
    assert capsys.readouterr().out.startswith("Dataset")


def test_table1_exits_nonzero_when_algorithms_disagree(monkeypatch, capsys):
    job = _load_job("table1")
    row = Table1Row(
        mfg_run("filterv", {frozenset({1}): {1}}, verifications=1),
        mfg_run("vfree", {frozenset({2}): {1}}, evaluations=1),
    )
    monkeypatch.setattr(job, "run_table1", lambda **_: [row])
    monkeypatch.setattr(sys, "argv", ["table1.py"])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code not in (0, None)
    assert "(9, 5, 8)" in str(exc.value.code)
    assert "FilterV-CM" in capsys.readouterr().out


def test_exp1_exits_nonzero_when_a_dataset_has_no_group(monkeypatch, capsys):
    job = _load_job("exp1")
    row = Exp1Row(SPECS["D14"], {"vfree": mfg_run("vfree", evaluations=0)})
    monkeypatch.setattr(job, "run_exp1", lambda **_: [row])
    monkeypatch.setattr(sys, "argv", ["exp1.py"])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code not in (0, None)
    assert "D14" in str(exc.value.code)
    assert capsys.readouterr().out.startswith("Dataset")


def test_table1_exits_nonzero_when_a_column_has_no_group(monkeypatch, capsys):
    job = _load_job("table1")
    p = Params(10, 6, 10)
    row = Table1Row(
        mfg_run("filterv", params=p, verifications=0),
        mfg_run("vfree", params=p, evaluations=0),
    )
    monkeypatch.setattr(job, "run_table1", lambda **_: [row])
    monkeypatch.setattr(sys, "argv", ["table1.py"])
    with pytest.raises(SystemExit) as exc:
        job.main()
    assert exc.value.code not in (0, None)
    assert "(10, 6, 10)" in str(exc.value.code)
    assert "FilterV-CM" in capsys.readouterr().out


def test_exp1_job_exits_zero_when_algorithms_agree():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "exp1.py"),
         "--sf", "0.05", "--datasets", "D1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].startswith("D1")
