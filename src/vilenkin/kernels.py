"""Dirichlet and negative-order Cesaro kernels plus bound scans.

D_n = sum_{k<n} psi_k with D_0 = 0 is the partial sum S_n of a unit mass
(transform.partial_sum's Paley recursion); K_n^{-alpha} is a slice of one
Cesaro table, shared by every order of a call (_cesaro_kernels). Kernels live
on the coarsest grid that carries their frequencies and are lifted on demand.
Each bound scan returns its ratios so stability can be asserted, not assumed;
the exhaustive identity scans over these kernels, and the digit product form
of D_n they check, are the `verify` suites' (verify.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binomials
from .errors import UsageError
from .group import NumberSystem, coset_rep_cells, scale_of, trailing_zero_digits
from .transform import StepFunction, minimal_resolution, partial_sum, synthesize


def dirichlet(ns: NumberSystem, n: int, resolution: int | None = None) -> StepFunction:
    """D_n = S_n of the unit mass M_k 1_{cell 0}, k = minimal_resolution(n), lifted to resolution.

    The mass has fhat(nu) = 1 for nu < M_k. By default D_n is lifted to its
    natural grid, that of min(n + 1, M_N) frequencies: D_{M_k} = M_k 1_{I_k}
    is constant on the I_{k+1} cells. The dtype follows partial_sum's rule.
    """
    k = minimal_resolution(ns, n)  # with partial_sum, rejects n outside 0..M_N
    mass = np.zeros(ns.cells_at(k))
    mass[0] = ns.cells_at(k)
    r = minimal_resolution(ns, min(n + 1, ns.cell_count)) if resolution is None else resolution
    return partial_sum(StepFunction(ns, k, mass), n).lift(r)


def _cesaro_kernels(ns: NumberSystem, alpha: float, orders, resolution: int | None = None):
    """(n, A_{n-1}^{-alpha}, K_n^{-alpha}) for each order n, from one table A^{-alpha}.

    The orders and alpha are checked before the first kernel. cumprod is a
    sequential fold, so the prefix of the table that order n reads is
    cesaro_table(-alpha, n - 1), to the byte.
    """
    orders = list(orders)
    for n in orders:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"kernel order {n} outside 1..{ns.cell_count}")
    binomials.check_alphas(alpha)
    table = binomials.cesaro_table(-alpha, max(orders, default=1) - 1)
    for n in orders:
        a_n = table.a(n - 1)
        yield n, a_n, synthesize(ns, table.values[n - 1 :: -1] / a_n, resolution)


def cesaro_kernel(ns: NumberSystem, n: int, alpha: float,
                  resolution: int | None = None) -> StepFunction:
    """K_n^{-alpha} = (1/A_{n-1}^{-alpha}) sum_{nu<n} A_{n-1-nu}^{-alpha} psi_nu."""
    return next(_cesaro_kernels(ns, alpha, [n], resolution))[2]


@dataclass(frozen=True)
class BoundScanRecord:
    """One scanned kernel bound: the ratio that theory asserts is O(1)."""

    kind: str
    n: int
    alpha: float
    sup_ratio: float
    argmax_cell: int
    resolution: int
    # never filled, as a scan keeps no per-beta row; kept for readers of the attribute
    beta_ratios: np.ndarray | None = None


def majorant_ratio_scan(ns: NumberSystem, alpha: float, n_values) -> list[BoundScanRecord]:
    """|K_n^{-alpha}| |A_{n-1}^{-alpha}| against sum_{l<=A} M_l^{-alpha} D_{M_l}.

    The l = 0 term is identically 1, so the majorant never vanishes. Cell x
    takes the terms l <= min(v(x), A), v(x) its trailing zero digits, so the
    majorant is one gather from the running sums of M_l^{1-alpha}. Every
    K_n and A_{n-1}^{-alpha} come from one Cesaro table (_cesaro_kernels).
    """
    out = []
    for n, a_n, K in _cesaro_kernels(ns, alpha, n_values):
        r = K.resolution
        A = scale_of(ns, n) if n < ns.cell_count else ns.resolution
        top = min(A, r)
        terms = np.cumsum([ns.M[l] ** (1.0 - alpha) for l in range(top + 1)])
        majorant = terms[np.minimum(trailing_zero_digits(ns, r), top)]
        ratios = np.abs(K.cells) * abs(a_n) / majorant
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="majorant", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]), argmax_cell=arg,
                                   resolution=r))
    return out


def coset_decay_scan(ns: NumberSystem, alpha: float, k: int,
                     n_values=None) -> list[BoundScanRecord]:
    """beta^{1-alpha} |K_n^{-alpha}(Z_beta^(k))| / M_k over beta = 1..M_k-1.

    The decay estimate is sharp for orders n comparable to M_k; far above
    that the normalized kernel grows without bound.  The default n range is
    therefore the top admissible block [M_{k-1}, M_k].

    Each kernel is read at the representatives through the cached cell
    table coset_rep_cells(ns, k, r): one gather of M_k - 1 cells per row.
    The kernels come from one Cesaro table (_cesaro_kernels).
    """
    if not 1 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 1..{ns.resolution}")
    if n_values is None:
        n_values = range(ns.M[k - 1], ns.M[k] + 1)
    decay = np.arange(1, ns.M[k], dtype=np.float64) ** (1.0 - alpha)
    out = []
    for n, _, K in _cesaro_kernels(ns, alpha, n_values):
        r = K.resolution
        cells_at = coset_rep_cells(ns, k, r)[1:]
        ratios = np.abs(K.cells[cells_at]) * decay / ns.M[k]
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="coset_decay", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]),
                                   argmax_cell=int(cells_at[arg]),
                                   resolution=r))
    return out

