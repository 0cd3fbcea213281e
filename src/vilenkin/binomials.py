"""Cesaro binomial coefficients A_n^alpha; `verify` (verify.py) checks their identities.

A_0^alpha = 1, A_n^alpha = A_{n-1}^alpha * (alpha + n) / n. The convention
A_{-1}^alpha = 0 is used wherever telescoping needs it. Tables are built by
the multiplicative recurrence only; no Gamma-function shortcuts, so values
stay exact for integer alpha and fully reproducible otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError


def _check_order(alpha: float):
    if alpha < 0 and float(alpha).is_integer():
        raise DomainError(f"order alpha={alpha} is a negative integer")


def check_alphas(*alphas: float) -> None:
    """Raise UsageError unless every alpha lies in (0, 1): the orders -alpha of the means."""
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise UsageError(f"order -alpha with alpha={alpha} outside (0, 1)")


@dataclass(frozen=True)
class CesaroTable:
    """Values A_0^alpha .. A_nmax^alpha with the A_{-1} = 0 convention."""

    alpha: float
    values: np.ndarray

    def a(self, n: int) -> float:
        if n == -1:
            return 0.0
        if not 0 <= n < len(self.values):
            raise UsageError(f"index {n} outside -1..{len(self.values) - 1}")
        return float(self.values[n])


def cesaro_table(alpha: float, n_max: int) -> CesaroTable:
    _check_order(alpha)
    if n_max < 0:
        raise UsageError(f"table length {n_max} is negative")
    # cumprod is a sequential left fold, so it rounds exactly as the
    # recurrence A_n = A_{n-1} * ((alpha + n) / n) does term by term.
    n = np.arange(1, n_max + 1, dtype=np.float64)
    values = np.empty(n_max + 1, dtype=np.float64)
    values[0] = 1.0
    np.cumprod((alpha + n) / n, out=values[1:])
    values.setflags(write=False)
    return CesaroTable(alpha=alpha, values=values)
