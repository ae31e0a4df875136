"""The paper's three parameters (τ_U, τ_V, λ) and their one validity check.

This module sits below every kernel, so the kernels, the runner and the
distributed path all validate through :func:`check_params`.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass


def _positive_int(value) -> bool:
    return (
        isinstance(value, numbers.Integral)
        and not isinstance(value, bool)
        and value >= 1
    )


def check_params(tau_u: int, tau_v: int, lam: int) -> None:
    """Raise ``ValueError`` unless ``τ_U``, ``τ_V`` and ``λ`` are all
    integers ≥ 1.

    Any ``numbers.Integral`` counts, numpy integers included, but ``bool``
    does not. A float such as ``1.5`` or NaN is rejected: NaN compares
    false with every threshold, so a kernel would silently return nothing.
    """
    if not all(map(_positive_int, (tau_u, tau_v, lam))):
        raise ValueError(
            "parameters must be positive integers, got "
            f"tau_u={tau_u!r}, tau_v={tau_v!r}, lam={lam!r}"
        )


@dataclass(frozen=True)
class Params:
    """The paper's three positive-integer parameters."""

    tau_u: int
    tau_v: int
    lam: int

    def __post_init__(self) -> None:
        check_params(self.tau_u, self.tau_v, self.lam)
