"""Command-line checks of ``jobs/run_mfg.py`` that start no Spark session."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_mfg(*args: str) -> subprocess.CompletedProcess:
    """Run ``jobs/run_mfg.py``; assert it started no Spark session (one
    would log "Using Spark's default log4j profile" to stderr)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_mfg.py"), *args],
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
    proc = _run_mfg(*args)
    assert proc.returncode == 2
    assert message in proc.stderr


def test_run_mfg_driver_path_starts_no_spark():
    proc = _run_mfg("--dataset", "D2", "--sf", "0.05")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("# D2")
