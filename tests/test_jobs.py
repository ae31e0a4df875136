"""Command-line checks of ``jobs/run_mfg.py`` that fail before Spark starts."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "args, message",
    [
        (["--algorithm", "nope"], "invalid choice"),
        (["--distributed", "--algorithm", "filterv"], "vfree only"),
    ],
)
def test_run_mfg_rejects_bad_arguments(args, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_mfg.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "SparkContext" not in proc.stderr
