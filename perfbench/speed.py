"""Machine-speed probe: a fixed piece of work timed between enumerations.

The measuring box is shared, and its speed moves by up to ~50% within
minutes (see README.md, "Steadiness"). The probe does the same work every
time, mixing the two kinds of work the program does: building nested Python
dicts of sets (as the index build does) and many small numpy calls (as
VFree's candidate computation does). It uses no program code, so a change to
the program never changes the probe. A run's times, multiplied by
``REFERENCE_S`` over the run's median probe time, are its times at the
reference speed; they move with the program, and much less with the box.
"""
from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

#: Probe time, in seconds, that defines the reference speed. On the 4-core
#: Intel Xeon VM (2.1 GHz) of the baseline, the probe took 13-42 ms,
#: depending on the load of the shared host.
REFERENCE_S = 0.040

_rng = np.random.default_rng(12345)
_TRIPLES = list(
    zip(*(_rng.integers(0, n, size=12_000).tolist() for n in (3_000, 200, 60)))
)
_ARRAYS = [
    _rng.integers(0, 5_000, size=int(n))
    for n in _rng.integers(5, 200, size=400)
]


def _dicts() -> int:
    gamma: dict = {}
    for a, b, c in _TRIPLES:
        gamma.setdefault(a, {}).setdefault(c, set()).add(b)
    return sum(len(sorted(per_t)) for per_t in gamma.values())


def _small_arrays() -> int:
    n = 0
    for _ in range(2):
        for a in _ARRAYS:
            uniq, cnt = np.unique(a, return_counts=True)
            bins = np.bincount(a % 97, minlength=97)
            n += len(np.flatnonzero(bins >= 2).tolist()) + int(cnt[0])
    return n


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _dicts()
    _small_arrays()
    return time.perf_counter() - t0


def sample(probe: Callable[[], float], seconds: float) -> List[float]:
    """Times of ``probe()``, called until they add up to ``seconds``
    (at least once)."""
    out = [probe()]
    while sum(out) < seconds:
        out.append(probe())
    return out
