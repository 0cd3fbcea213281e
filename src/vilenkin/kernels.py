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

import functools
from dataclasses import dataclass

import numpy as np

from . import binomials
from .errors import UsageError
from .group import NumberSystem, coset_rep_cells, scale_of
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


@functools.lru_cache(maxsize=32, typed=True)  # typed: 1 - alpha keeps the type of alpha
def _majorant_terms(ns: NumberSystem, alpha: float) -> np.ndarray:
    """Running sums of M_l^{1-alpha} for l = 0..N, read-only; terms[0] = 1."""
    terms = np.cumsum([ns.M[l] ** (1.0 - alpha) for l in range(ns.resolution + 1)])
    terms.setflags(write=False)
    return terms


def majorant_ratio_scan(ns: NumberSystem, alpha: float, n_values) -> list[BoundScanRecord]:
    """|K_n^{-alpha}| |A_{n-1}^{-alpha}| against sum_{l<=A} M_l^{-alpha} D_{M_l}.

    The l = 0 term is identically 1, so the majorant never vanishes. Cell x
    takes the terms l <= min(v(x), A), v(x) its trailing zero digits, and x
    is a multiple of M_l exactly when v(x) >= l. So with base = |K| |A|, the
    multiples of M_l take base / terms[l] for l = 1..min(A, r) in turn, the
    last l that divides x winning, and every other cell keeps base (terms[0]
    = 1). The running sums of M_l^{1-alpha} are cached per (ns, alpha), and
    every K_n and A_{n-1}^{-alpha} come from one Cesaro table (_cesaro_kernels).
    """
    out = []
    for n, a_n, K in _cesaro_kernels(ns, alpha, n_values):
        terms = _majorant_terms(ns, alpha)  # alpha is checked once a kernel is out
        r = K.resolution
        A = scale_of(ns, n) if n < ns.cell_count else ns.resolution
        base = np.abs(K.cells)
        base *= abs(a_n)
        ratios = base.copy()
        for l in range(1, min(A, r) + 1):
            np.divide(base[:: ns.M[l]], terms[l], out=ratios[:: ns.M[l]])
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="majorant", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]), argmax_cell=arg,
                                   resolution=r))
    return out


# Weights are cached for scales of at most this many cells: the 32 entries
# then retain at most 1 MiB. A larger scale's row outweighs its weights.
_CACHED_CELLS = 1 << 12


@functools.lru_cache(maxsize=32, typed=True)  # typed: 1 - alpha keeps the type of alpha
def _cached_decay_weights(ns: NumberSystem, k: int, alpha: float) -> np.ndarray:
    decay = np.arange(1, ns.M[k], dtype=np.float64) ** (1.0 - alpha)
    decay.setflags(write=False)
    return decay


def _decay_weights(ns: NumberSystem, k: int, alpha: float) -> np.ndarray:
    """beta^{1-alpha} for beta = 1..M_k-1, read-only; cached while M_k <= _CACHED_CELLS."""
    if ns.M[k] <= _CACHED_CELLS:
        return _cached_decay_weights(ns, k, alpha)
    return _cached_decay_weights.__wrapped__(ns, k, alpha)


def coset_decay_scan(ns: NumberSystem, alpha: float, k: int,
                     n_values=None) -> list[BoundScanRecord]:
    """beta^{1-alpha} |K_n^{-alpha}(Z_beta^(k))| / M_k over beta = 1..M_k-1.

    The decay estimate is sharp for orders n comparable to M_k; far above
    that the normalized kernel grows without bound.  The default n range is
    therefore the top admissible block [M_{k-1}, M_k].

    Each kernel is read at the representatives through the cached cell
    table coset_rep_cells(ns, k, r): one gather of M_k - 1 cells per row,
    which a real kernel's ratios then overwrite.
    The kernels come from one Cesaro table (_cesaro_kernels), and the weights
    beta^{1-alpha} are cached per (ns, k, alpha) up to _CACHED_CELLS cells
    (_decay_weights), so a one-order call per row rebuilds neither.
    """
    if not 1 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 1..{ns.resolution}")
    if n_values is None:
        n_values = range(ns.M[k - 1], ns.M[k] + 1)
    binomials.check_alphas(alpha)  # before a weight is cached under alpha
    decay = _decay_weights(ns, k, alpha)
    out = []
    for n, _, K in _cesaro_kernels(ns, alpha, n_values):
        r = K.resolution
        cells_at = coset_rep_cells(ns, k, r)[1:]
        ratios = K.cells[cells_at]
        ratios = np.abs(ratios, out=None if ratios.dtype.kind == "c" else ratios)
        ratios *= decay
        ratios /= ns.M[k]
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="coset_decay", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]),
                                   argmax_cell=int(cells_at[arg]),
                                   resolution=r))
    return out

