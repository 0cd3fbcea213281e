"""Cesaro binomial coefficients A_n^alpha and their identities.

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


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the defining identities on 1..n_max.

    Relative residuals are normalized by the largest magnitude among the
    participating terms; normalizing by the (cancellation-small) difference
    alone is not meaningful in float64 once n is large.
    """

    alpha: float
    n_max: int
    difference_max_rel: float   # A_n^a - A_{n-1}^a = A_n^{a-1}
    sum_max_rel: float          # sum_{k=0}^{n} A_k^{a-1} = A_n^a
    sum_shifted_max_rel: float  # the k <= n-1 variant, reported for comparison

    @property
    def max_residual(self) -> float:
        return float(np.max([self.difference_max_rel, self.sum_max_rel]))  # NaN stays NaN


def identity_report(alpha: float, n_max: int) -> IdentityReport:
    if n_max < 1:
        raise UsageError(f"n_max={n_max} must be at least 1")
    t = cesaro_table(alpha, n_max).values
    t_lower = cesaro_table(alpha - 1, n_max).values

    diff = t[1:] - t[:-1]
    scale = np.maximum.reduce([np.abs(t[1:]), np.abs(t[:-1]), np.abs(t_lower[1:])])
    scale = np.maximum(scale, np.finfo(np.float64).tiny)
    diff_rel = float(np.max(np.abs(diff - t_lower[1:]) / scale))

    # Only the running sums are sequential. The Kahan update keeps them exact
    # enough for the residual to reflect the table entries, not the summation.
    partials = []
    partial = comp = 0.0
    for v in t_lower.tolist():
        y = v - comp
        s = partial + y
        comp = (s - partial) - y
        partial = s
        partials.append(s)
    partials = np.array(partials)
    denom = np.maximum(np.maximum(np.abs(t[1:]), np.abs(partials[1:])),
                       np.finfo(np.float64).tiny)
    sum_rel = float(np.max(np.abs(partials[1:] - t[1:]) / denom))
    sum_shifted_rel = float(np.max(np.abs(partials[:-1] - t[1:]) / denom))
    return IdentityReport(
        alpha=alpha,
        n_max=n_max,
        difference_max_rel=diff_rel,
        sum_max_rel=sum_rel,
        sum_shifted_max_rel=sum_shifted_rel,
    )


def asymptotic_ratio_residual(alpha: float, n: int) -> float:
    """|A_n^alpha / A_{2n}^alpha - 2^{-alpha}|; decays like O(1/n)."""
    if n < 1:
        raise UsageError(f"n={n} must be at least 1")
    t = cesaro_table(alpha, 2 * n).values
    if t[2 * n] == 0.0:
        raise DomainError(f"A_{2 * n}^{alpha} vanished; ratio undefined")
    return abs(float(t[n] / t[2 * n]) - 2.0 ** (-alpha))
