"""Every kernel rejects a τ_U, τ_V or λ that is not an integer ≥ 1 (NaN,
1.5 and ``True`` included), as ``Params`` does."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.bk_alg import bk_alg
from repro.core.bruteforce import enumerate_mfg_bruteforce
from repro.core.filterv import filterv
from repro.core.gfcore import gfcore_local, gfcore_spark
from repro.core.params import Params, check_params
from repro.core.vfree import vfree
from repro.graph.schema import edges_from_pandas
from repro.synth_data import figure2_edges

KERNELS = {
    "vfree": vfree,
    "filterv": filterv,
    "bk_alg": bk_alg,
    "gfcore_local": gfcore_local,
    "bruteforce": enumerate_mfg_bruteforce,
}


#: Values that are not integers ≥ 1: non-positive ones, and ones that a
#: bare ``min(...) < 1`` test would let through.
BAD_VALUES = [0, -1, float("nan"), 1.5, True]


def _bad(position: int, value):
    params = [2, 2, 3]
    params[position] = value
    return params


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_rejects_non_positive(fig2, kernel, position, value):
    with pytest.raises(ValueError, match="positive"):
        KERNELS[kernel](fig2, *_bad(position, value))


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_gfcore_spark_rejects_before_any_job(spark, position, value):
    edges = edges_from_pandas(spark, figure2_edges())
    sc, group = spark.sparkContext, f"params-{position}-{value}"
    sc.setJobGroup(group, "parameter validation")
    try:
        with pytest.raises(ValueError, match="positive"):
            gfcore_spark(edges, *_bad(position, value))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


@pytest.mark.parametrize("position", [0, 1, 2])
def test_params_uses_the_shared_check(position):
    with pytest.raises(ValueError, match="positive"):
        Params(*_bad(position, 0))
    check_params(1, 1, 1)


@pytest.mark.parametrize("value", BAD_VALUES[2:])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_params_rejects_non_integer(position, value):
    with pytest.raises(ValueError, match="integers"):
        Params(*_bad(position, value))


def test_numpy_integers_are_accepted(fig2):
    p = [np.int64(2), np.int32(2), np.uint8(3)]
    check_params(*p)
    assert Params(*p).lam == 3
    assert vfree(fig2, *p) == vfree(fig2, 2, 2, 3)
