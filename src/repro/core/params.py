"""The paper's three parameters (τ_U, τ_V, λ) and their one validity check.

This module sits below every kernel, so the kernels, the runner and the
distributed path all validate through :func:`check_params`.
"""
from __future__ import annotations

from dataclasses import dataclass


def check_params(tau_u: int, tau_v: int, lam: int) -> None:
    """Raise ``ValueError`` unless ``τ_U``, ``τ_V`` and ``λ`` are all ≥ 1."""
    if min(tau_u, tau_v, lam) < 1:
        raise ValueError(
            "parameters must be positive, got "
            f"tau_u={tau_u}, tau_v={tau_v}, lam={lam}"
        )


@dataclass(frozen=True)
class Params:
    """The paper's three positive-integer parameters."""

    tau_u: int
    tau_v: int
    lam: int

    def __post_init__(self) -> None:
        check_params(self.tau_u, self.tau_v, self.lam)
