"""Dirichlet and negative-order Cesaro kernels plus bound scans.

D_n = sum_{k<n} psi_k with D_0 = 0. Kernels are materialized on the coarsest
grid that carries their frequencies and lifted on demand. The scans quantify
kernel bounds empirically: each returns the scanned ratios so stability can
be asserted rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import binomials
from .characters import character_block, synthesis_matrix, vilenkin_on_cells
from .errors import DomainError, UsageError
from .group import (NumberSystem, coset_rep_cells, digit_axis, digit_tensor, digits_of,
                    scale_of, trailing_zero_digits)
from .oscillation import modulus_of_continuity
from .transform import StepFunction, cesaro_weights, convolve, synthesize

_ROW_BLOCK = 1 << 20  # entries in one block of D_n rows


def _extended_digits(ns: NumberSystem, n: int) -> list[int]:
    """Digits of 1 <= n <= M_N; n = M_N gets the virtual digit n_N = 1."""
    if n == ns.cell_count:
        return [0] * ns.resolution + [1]
    return list(digits_of(ns, n))


def dirichlet(ns: NumberSystem, n: int, resolution: int | None = None) -> StepFunction:
    """D_n: M_k times the I_k indicator when n = M_k, the digit product form otherwise."""
    if n not in ns.M:
        return dirichlet_product(ns, n, resolution)
    k = ns.M.index(n)
    # D_n is constant on I_{k+1} cells; that is its natural grid.
    r = min(k + 1, ns.resolution) if resolution is None else resolution
    if r < k:
        raise UsageError(f"resolution {r} cannot carry {n} frequencies")
    cells = ns.cells_at(r)
    out = np.zeros(cells, dtype=np.complex128)
    out[np.arange(cells) % n == 0] = n
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
    cells = ns.cells_at(r)
    idx = digit_tensor(np.arange(cells), ns, r)
    acc = np.zeros_like(idx, dtype=np.complex128)
    for j, nj in enumerate(digits_of(ns, n)):
        if nj == 0:
            continue
        m = ns.radix.radices[j]
        gsum = np.zeros(m, dtype=np.complex128)
        for a in range(m - nj, m):
            gsum += synthesis_matrix(m)[a]
        acc += ns.M[j] * (idx % ns.M[j] == 0) * digit_axis(gsum, ns, r, j)
    return StepFunction(ns, r, vilenkin_on_cells(ns, n, r) * acc.reshape(-1))


def cesaro_kernel(ns: NumberSystem, n: int, alpha: float,
                  resolution: int | None = None) -> StepFunction:
    """K_n^{-alpha} = (1/A_{n-1}^{-alpha}) sum_{nu<n} A_{n-1-nu}^{-alpha} psi_nu."""
    if not 1 <= n <= ns.cell_count:
        raise UsageError(f"kernel order {n} outside 1..{ns.cell_count}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"order -alpha with alpha={alpha} outside (0, 1)")
    numerators, denominator = cesaro_weights(n, alpha)
    return synthesize(ns, numerators / denominator, resolution)


def _dirichlet_sum(ns: NumberSystem, coeffs, resolution: int | None = None) -> StepFunction:
    """sum_{j=1}^{n} c_j D_j for coeffs (c_1, .., c_n): one synthesis of the suffix sums.

    The sum is the character sum with weight sum_{j>nu} c_j on psi_nu; a lone
    D_n is the case c = e_n, whose suffix sums are n ones.
    """
    c = np.asarray(coeffs)
    return synthesize(ns, np.cumsum(c[::-1])[::-1], resolution)


def _dirichlet_rows(ns: NumberSystem, first: int, last: int):
    """Rows D_first .. D_last at full resolution, in blocks of at most _ROW_BLOCK entries.

    The rows run downward when last < first. D_first is one _dirichlet_sum;
    each further row adds psi_n to the row before it, or subtracts psi_{n-1}
    going down. The running sum is carried from block to block, so the rows
    do not depend on the block size.
    """
    N, cells = ns.resolution, ns.cell_count
    step = 1 if last >= first else -1
    height = max(1, _ROW_BLOCK // cells)
    row = _dirichlet_sum(ns, np.arange(1, first + 1) == first, N).cells
    for a in range(first, last + step, step * height):
        b = a + step * min(height, abs(last - a) + 1)  # the block holds rows a, .., b - step
        rows = np.empty((abs(b - a), cells), dtype=np.complex128)
        rows[0] = row
        if step > 0:
            rows[1:] = character_block(ns, a, b - 1, N)
        else:
            rows[1:] = -character_block(ns, b + 1, a, N)[::-1]
        np.cumsum(rows, axis=0, out=rows)
        if b != last + step:
            row = rows[-1] + vilenkin_on_cells(ns, b - 1, N) if step > 0 \
                else rows[-1] - vilenkin_on_cells(ns, b, N)
        yield rows


@dataclass(frozen=True)
class RecursionReport:
    """Max residual per Dirichlet identity over its admissible parameter range."""

    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_dirichlet_recursions(ns: NumberSystem) -> RecursionReport:
    """Exhaustive residual scan of the Dirichlet kernel identities.

    Checked on every cell at full resolution, for every admissible parameter
    tuple with kernel order at most M_N:

    - scale_indicator: D_{M_k} = M_k 1_{I_k}
    - mean: cell average of D_n is 1 for n >= 1
    - digit_split: D_n = (sum_{q<n_k} r_k^q) D_{M_k} + r_k^{n_k} D_{n'},
      n = n_k M_k + n', the geometric factor written as an explicit root sum
      (the quotient form is 0/0 where r_k = 1)
    - block_shift: D_{j + n_k M_k} = D_{n_k M_k} + psi_{n_k M_k} D_j, j <= M_k
    - block_geometric: D_{j + r M_k} = (sum_{q<r} r_k^q) D_{M_k} + r_k^r D_j,
      1 <= r < m_k and j < M_k, plus r = m_k with j = 0
    - reflection: D_{n_s M_s - j} = D_{n_s M_s} - psi_{n_s M_s - 1} conj(D_j),
      1 <= n_s < m_s, 0 <= j <= n_s M_s
    - product_form: D_n = psi_n sum_j D_{M_j} sum_{a=m_j-n_j}^{m_j-1} r_j^a

    The rows come from _dirichlet_rows, so no more than a few blocks of them
    are held at once. digit_split is block_geometric for r < m_k and is
    evaluated once.
    """
    N = ns.resolution
    res = dict.fromkeys(("scale_indicator", "mean", "digit_split", "block_shift",
                         "block_geometric", "reflection", "product_form"), 0.0)

    def bump(key, diff):
        res[key] = max(res[key], float(np.abs(diff).max()))

    def row(n):
        return next(_dirichlet_rows(ns, n, n))[0]

    # every row once, in order: the scale indicators, the means and the product form
    idx = np.arange(ns.cell_count)
    for n, D in enumerate(itertools.chain.from_iterable(_dirichlet_rows(ns, 0, ns.cell_count))):
        if n in ns.M:
            bump("scale_indicator", D - np.where(idx % n == 0, n, 0).astype(np.complex128))
        if n:
            bump("mean", D.mean() - 1.0)
            bump("product_form", dirichlet_product(ns, n).lift(N).cells - D)

    # rows n_k M_k + j beside the rows D_j, j < M_k; r_k^a is row a % m_k of F_k on digit k's axis
    for k in range(N):
        m, Mk = ns.radix.radices[k], ns.M[k]
        powers = digit_axis(synthesis_matrix(m)[np.arange(m + 1) % m], ns, N, k)
        geo = np.cumsum(powers[:m], axis=0)  # geo[q] = sum_{a<=q} r_k^a
        D_Mk = digit_tensor(row(Mk), ns, N)
        for nk in range(1, m):
            base = nk * Mk
            D_base = digit_tensor(row(base), ns, N)
            for high, low in zip(_dirichlet_rows(ns, base, base + Mk - 1),
                                 _dirichlet_rows(ns, 0, Mk - 1)):
                high, low = digit_tensor(high, ns, N), digit_tensor(low, ns, N)
                bump("digit_split", high - geo[nk - 1] * D_Mk - powers[nk] * low)
                bump("block_shift", high - D_base - powers[nk] * low)
            bump("block_shift", digit_tensor(row(base + Mk), ns, N) - D_base - powers[nk] * D_Mk)
        bump("block_geometric", digit_tensor(row(ns.M[k + 1]), ns, N) - geo[m - 1] * D_Mk
             - powers[m] * digit_tensor(row(0), ns, N))
    res["block_geometric"] = max(res["block_geometric"], res["digit_split"])

    # rows n_s M_s - j going down, beside the rows D_j going up
    for s in range(N):
        for n_s in range(1, ns.radix.radices[s]):
            base = n_s * ns.M[s]
            psi, D_base = vilenkin_on_cells(ns, base - 1, N), row(base)
            for down, up in zip(_dirichlet_rows(ns, base, 0), _dirichlet_rows(ns, 0, base)):
                bump("reflection", down - D_base + psi * up.conj())

    return RecursionReport(residuals=res)


def block_decomposition_residuals(ns: NumberSystem, alpha: float, orders=None) -> np.ndarray:
    """Residual of the digit-block expansion of sum_{j=1}^{n} A_{n-j}^{-alpha-1} D_j, per n.

    The left side drives the order -alpha kernel (it equals
    A_{n-1}^{-alpha} K_n^{-alpha}); the right side resolves it into per-digit
    blocks: for each nonzero digit n_k,

        (prod_{l>k} psi_{n_l M_l}) [ D_{n_k M_k} A_{n^(k)-1}^{-alpha}
            - psi_{n_k M_k - 1} sum_{j<n_k M_k} A_{n^(k-1)+j}^{-alpha-1} conj(D_j) ].

    Zero digits contribute nothing and are skipped, so psi_{-1} never arises.
    orders defaults to 1 .. M_N. The left side, each D_{n_k M_k} and each
    inner sum are one _dirichlet_sum each. The two binomial tables are built
    once, for the largest order, and sliced per n: cumprod rounds every prefix
    as a table built for that n would. psi_{base-1}, psi_base and D_base are
    built once per base = n_k M_k.
    """
    orders = range(1, ns.cell_count + 1) if orders is None else list(orders)
    for n in orders:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    N = ns.resolution
    n_top = max(orders, default=1)
    t0 = binomials.cesaro_table(-alpha, n_top - 1)
    t1 = binomials.cesaro_table(-alpha - 1, n_top - 1)

    @functools.cache
    def psi(k):
        return vilenkin_on_cells(ns, k, N)

    @functools.cache
    def dirichlet_at(base):
        return _dirichlet_sum(ns, np.arange(1, base + 1) == base, N).cells

    out = np.empty(len(orders))
    for i, n in enumerate(orders):
        lhs = _dirichlet_sum(ns, t1.values[:n][::-1], N).cells
        dd = _extended_digits(ns, n)
        rhs = np.zeros(ns.cell_count, dtype=np.complex128)
        suffix = np.ones(ns.cell_count, dtype=np.complex128)  # prod_{l>k} psi_{n_l M_l}
        trunc = n  # n^(k) going down
        for k in range(len(dd) - 1, -1, -1):
            nk = dd[k]
            if nk == 0:
                continue
            base = nk * ns.M[k]
            below = trunc - base  # n^(k-1)
            # the weights are real, so conjugating the sum equals summing the conjugates; D_0 = 0
            inner = _dirichlet_sum(ns, t1.values[below + 1 : below + base], N).cells.conj()
            rhs += suffix * (dirichlet_at(base) * t0.a(trunc - 1) - psi(base - 1) * inner)
            if k < N:
                suffix = suffix * psi(base)
            trunc = below
        out[i] = np.abs(lhs - rhs).max()
    return out


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
    majorant is one gather from the running sums of M_l^{1-alpha}. K_n and
    A_{n-1}^{-alpha} come from one Cesaro table.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    out = []
    for n in n_values:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
        numerators, a_n = cesaro_weights(n, alpha)
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
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    if not 1 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 1..{ns.resolution}")
    if n_values is None:
        n_values = list(range(ns.M[k - 1], ns.M[k] + 1))
    decay = np.arange(1, ns.M[k], dtype=np.float64) ** (1.0 - alpha)
    out = []
    for n in n_values:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
        K = cesaro_kernel(ns, n, alpha)
        r = K.resolution
        cells_at = coset_rep_cells(ns, k, r)[1:]
        ratios = np.abs(K.cells[cells_at]) * decay / ns.M[k]
        arg = int(np.argmax(ratios))
        out.append(BoundScanRecord(kind="coset_decay", n=n, alpha=alpha,
                                   sup_ratio=float(ratios[arg]),
                                   argmax_cell=int(cells_at[arg]),
                                   resolution=r))
    return out


def dirichlet_l1_ratio(ns: NumberSystem, coeffs) -> float:
    """[(1/n) integral |sum_k a_k D_k|] * sqrt(n) / ||a||_2.

    The combination sum_{k=1}^{n} a_k D_k is one _dirichlet_sum.
    """
    a = np.asarray(coeffs, dtype=np.float64)
    if a.ndim != 1 or len(a) == 0:
        raise UsageError("coefficient vector must be one-dimensional and nonempty")
    n = len(a)
    if n > ns.cell_count:
        raise UsageError(f"{n} coefficients exceed M_N = {ns.cell_count}")
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        raise UsageError("coefficient vector is zero")
    l1 = float(np.abs(_dirichlet_sum(ns, a).cells).mean())
    return (l1 / n) * math.sqrt(n) / norm


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
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
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
