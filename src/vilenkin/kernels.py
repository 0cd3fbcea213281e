"""Dirichlet and negative-order Cesaro kernels plus bound scans.

D_n = sum_{k<n} psi_k with D_0 = 0. Kernels live on the coarsest grid that
carries their frequencies and are lifted on demand. Each bound scan returns
its ratios so stability can be asserted, not assumed; the exhaustive identity
scans over these kernels are the `verify` suites' (verify.py).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import binomials
from .characters import character_block, synthesis_matrix
from .errors import DomainError, UsageError
from .group import (NumberSystem, coset_rep_cells, digit_axis, digit_tensor, scale_of,
                    trailing_zero_digits)
from .oscillation import modulus_of_continuity
from .transform import StepFunction, cesaro_weights, convolve, synthesize


def dirichlet(ns: NumberSystem, n: int, resolution: int | None = None) -> StepFunction:
    """D_n: M_k times the I_k indicator when n = M_k, the digit product form otherwise."""
    if n not in ns.M:
        return dirichlet_product(ns, n, resolution)
    k = ns.M.index(n)
    # D_n is constant on I_{k+1} cells; that is its natural grid.
    r = min(k + 1, ns.resolution) if resolution is None else resolution
    if r < k:
        raise UsageError(f"resolution {r} cannot carry {n} frequencies")
    out = np.zeros(ns.cells_at(r), dtype=np.complex128)
    out[::n] = n
    return StepFunction(ns, r, out)


def dirichlet_product(ns: NumberSystem, n: int, resolution: int | None = None) -> StepFunction:
    """D_n = psi_n sum_j D_{M_j} sum_{a=m_j-n_j}^{m_j-1} r_j^a over the digits n_j of n."""
    if not 0 <= n <= ns.cell_count:
        raise UsageError(f"kernel order {n} outside 0..{ns.cell_count}")
    if n == ns.cell_count:
        # No digit expansion at position N; the closed form is exact here.
        return dirichlet(ns, n, resolution)
    scale = scale_of(ns, n) if n else -1
    r = scale + 1 if resolution is None else resolution
    if r <= scale:
        raise UsageError(f"resolution {r} cannot carry the digit product form of D_{n}")
    return StepFunction(ns, r, _product_rows(ns, n, n + 1, r)[0])


@functools.lru_cache(maxsize=None)
def _root_tails(m: int) -> np.ndarray:
    """(m, m) rows sum_{a=m-q}^{m-1} r^a for q = 0..m-1, each summed upward from zero."""
    F = synthesis_matrix(m)
    out = np.zeros((m, m), dtype=np.complex128)
    for q in range(1, m):
        for a in range(m - q, m):
            out[q] += F[a]
    out.setflags(write=False)
    return out


def _product_rows(ns: NumberSystem, start: int, stop: int, resolution: int) -> np.ndarray:
    """The digit product form of D_n for n = start..stop-1, shape (stop-start, M_r), n < M_r.

    Every entry takes the operations of a lone order in the same order:
    the digit terms M_j 1_{I_j} (sum of r_j^a) added upward from digit 0,
    each on I_j alone (the last j digit-tensor axes at 0), then psi_n times
    their sum. A digit that is 0 in some rows but not all adds a zero term
    to those rows and character_block multiplies them by r_j^0 = 1; either
    changes at most the sign of a zero.
    """
    r = resolution
    rows = np.arange(start, stop, dtype=np.int64)
    acc = digit_tensor(np.zeros((stop - start, ns.cells_at(r)), dtype=np.complex128), ns, r)
    for j in range(r):
        m = ns.radix.radices[j]
        nj = (rows // ns.M[j]) % m
        if np.any(nj):
            on_I_j = (...,) + (0,) * j
            acc[on_I_j] += ns.M[j] * digit_axis(_root_tails(m)[nj], ns, r, j)[on_I_j]
    out = character_block(ns, start, stop, r)
    out *= acc.reshape(out.shape)  # in place: one row block fewer at the check's peak
    return out


def cesaro_kernel(ns: NumberSystem, n: int, alpha: float,
                  resolution: int | None = None) -> StepFunction:
    """K_n^{-alpha} = (1/A_{n-1}^{-alpha}) sum_{nu<n} A_{n-1-nu}^{-alpha} psi_nu."""
    if not 1 <= n <= ns.cell_count:
        raise UsageError(f"kernel order {n} outside 1..{ns.cell_count}")
    binomials.check_alphas(alpha)
    numerators, denominator = cesaro_weights(n, alpha)
    return synthesize(ns, numerators / denominator, resolution)


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


def _scan_table(ns: NumberSystem, alpha: float, n_values):
    """The checked orders of a scan and the one table A^{-alpha} up to the largest of them.

    cumprod is a sequential fold, so the prefix of the table that order n
    reads is the table cesaro_weights(n, alpha) builds, to the byte.
    """
    n_values = list(n_values)
    for n in n_values:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
    return n_values, binomials.cesaro_table(-alpha, max(n_values, default=1) - 1)


def majorant_ratio_scan(ns: NumberSystem, alpha: float, n_values) -> list[BoundScanRecord]:
    """|K_n^{-alpha}| |A_{n-1}^{-alpha}| against sum_{l<=A} M_l^{-alpha} D_{M_l}.

    The l = 0 term is identically 1, so the majorant never vanishes. Cell x
    takes the terms l <= min(v(x), A), v(x) its trailing zero digits, so the
    majorant is one gather from the running sums of M_l^{1-alpha}. Every
    K_n and A_{n-1}^{-alpha} come from one Cesaro table (_scan_table).
    """
    binomials.check_alphas(alpha)
    n_values, table = _scan_table(ns, alpha, n_values)
    out = []
    for n in n_values:
        numerators, a_n = table.values[n - 1 :: -1], table.a(n - 1)
        K = synthesize(ns, numerators / a_n)
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
    The kernels come from one Cesaro table (_scan_table), as cesaro_kernel
    would build them.
    """
    binomials.check_alphas(alpha)
    if not 1 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 1..{ns.resolution}")
    if n_values is None:
        n_values = range(ns.M[k - 1], ns.M[k] + 1)
    n_values, table = _scan_table(ns, alpha, n_values)
    decay = np.arange(1, ns.M[k], dtype=np.float64) ** (1.0 - alpha)
    out = []
    for n in n_values:
        K = synthesize(ns, table.values[n - 1 :: -1] / table.a(n - 1))
        r = K.resolution
        cells_at = coset_rep_cells(ns, k, r)[1:]
        ratios = np.abs(K.cells[cells_at]) * decay / ns.M[k]
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="coset_decay", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]),
                                   argmax_cell=int(cells_at[arg]),
                                   resolution=r))
    return out


def low_block_ratio(f: StepFunction, n: int, k: int, alpha: float) -> float:
    """Low-frequency block residue against the scaled modulus of continuity.

    LHS: sup_x |avg_u h(u) (f(x+u) - f(x))| / |A_n^{-alpha}| with
    h = sum_{nu < M_{k-1}} A_{n-nu}^{-alpha} psi_nu.
    RHS: sum_{r<k} (M_r / M_k) omega(f, 1/M_k).

    Returns LHS/RHS. A zero modulus with a nonvanishing LHS is flagged as a
    DomainError: band-limited inputs do leave a small residue (the kernel
    weights vary with nu), and no finite ratio describes them.
    """
    ns = f.ns
    if not 1 <= k < ns.resolution or not ns.M[k] <= n < ns.M[k + 1]:
        raise UsageError(f"need 1 <= k < {ns.resolution} and M_k <= n < M_(k+1); got k={k}, n={n}")
    binomials.check_alphas(alpha)
    t0 = binomials.cesaro_table(-alpha, n)
    weights = t0.values[n : n - ns.M[k - 1] : -1]  # A_{n-nu}, nu = 0..M_{k-1}-1
    h = synthesize(ns, weights)
    correlated = convolve(f, h.reflect())  # avg_u h(u) f(x+u)
    g = correlated.cells - f.cells * t0.a(n)
    lhs = float(np.abs(g).max()) / abs(t0.a(n))
    omega = modulus_of_continuity(f, k)
    scale = math.fsum(ns.M[r] / ns.M[k] for r in range(k))
    rhs = scale * omega
    if rhs == 0.0:
        if lhs <= 1e-12 * n:
            return 0.0
        raise DomainError(
            f"modulus of continuity vanished at scale {k} but the low block residue is {lhs:g}")
    return lhs / rhs
