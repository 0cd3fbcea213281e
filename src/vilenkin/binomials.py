"""Cesaro binomial coefficients A_n^alpha; `verify` (verify.py) checks their identities.

A_0^alpha = 1, A_n^alpha = A_{n-1}^alpha * (alpha + n) / n. The convention
A_{-1}^alpha = 0 is used wherever telescoping needs it. Tables are built by
the multiplicative recurrence only; no Gamma-function shortcuts, so values
stay exact for integer alpha and fully reproducible otherwise.

Every row of a scan asks for a table of the same alpha, so the last few
tables built are retained: at most _RETAINED_ALPHAS of them, none longer than
_RETAINED_ENTRIES, 256 KiB in all. A shorter request for a retained alpha is
served as a read-only prefix view, exact to the byte because the table is a
sequential fold. A longer one rebuilds at up to twice the retained length, so
an ascending run of orders rebuilds a logarithmic number of times. A table
above _RETAINED_ENTRIES is built per call: its row's transforms outweigh
it, and retaining tables of 2^16 entries raised the peak RSS of `converge`
at 2^20 cells by 7-8 MiB, as the heap could no longer return the space
around them.
"""

from __future__ import annotations

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

_RETAINED_ALPHAS = 4
_RETAINED_ENTRIES = 1 << 13  # twice the 4096-entry tables of a scan row
_retained: OrderedDict[float, np.ndarray] = OrderedDict()  # alpha -> A^alpha, least recent first
_retained_lock = threading.Lock()


def _check_order(alpha: float):
    if not math.isfinite(alpha):
        raise DomainError(f"order alpha={alpha} is not finite")
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


def _build(alpha: float, length: int) -> np.ndarray:
    # cumprod is a sequential left fold, so it rounds exactly as the
    # recurrence A_n = A_{n-1} * ((alpha + n) / n) does term by term.
    n = np.arange(1, length, dtype=np.float64)
    values = np.empty(length, dtype=np.float64)
    values[0] = 1.0
    np.cumprod((alpha + n) / n, out=values[1:])
    values.setflags(write=False)
    return values


def cesaro_table(alpha: float, n_max: int) -> CesaroTable:
    """A_0^alpha .. A_{n_max}^alpha, a read-only prefix of the table retained for alpha."""
    _check_order(alpha)
    if isinstance(n_max, bool):
        raise UsageError(f"table length {n_max!r} is not an integer")
    try:
        n_max = operator.index(n_max)
    except TypeError:
        raise UsageError(f"table length {n_max!r} is not an integer") from None
    if n_max < 0:
        raise UsageError(f"table length {n_max} is negative")
    key = float(alpha)
    with _retained_lock:
        values = _retained.get(key)
        if values is not None:
            _retained.move_to_end(key)
    if values is None or len(values) <= n_max:
        grown = 0 if values is None else min(2 * len(values), _RETAINED_ENTRIES)
        values = _build(key, max(n_max + 1, grown))
        if len(values) <= _RETAINED_ENTRIES:
            with _retained_lock:
                _retained[key] = values
                _retained.move_to_end(key)
                while len(_retained) > _RETAINED_ALPHAS:
                    _retained.popitem(last=False)
    return CesaroTable(alpha=alpha, values=values[: n_max + 1])
