"""Dirichlet, Fejer, and negative-order Cesaro kernels plus bound scans.

D_n = sum_{k<n} psi_k with D_0 = 0. Kernels are materialized on the coarsest
grid that carries their frequencies and lifted on demand. The scans quantify
kernel bounds empirically: each returns the scanned ratios so stability can
be asserted rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binomials
from .characters import character_block, synthesis_matrix, vilenkin_on_cells
from .errors import DomainError, UsageError
from .group import (NumberSystem, coset_rep_cells, digit_axis, digit_tensor, digits_of,
                    scale_of)
from .oscillation import modulus_of_continuity
from .transform import StepFunction, cesaro_weights, convolve, fejer_weights, synthesize

_TABLE_CELL_CAP = 1 << 24


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


def dirichlet_table(ns: NumberSystem, n_max: int) -> np.ndarray:
    """Rows D_0 .. D_{n_max} on every full-resolution cell, built as cumulative character sums."""
    if not 0 <= n_max <= ns.cell_count:
        raise UsageError(f"table top {n_max} outside 0..{ns.cell_count}")
    cells = ns.cell_count
    if (n_max + 1) * cells > _TABLE_CELL_CAP:
        raise UsageError(f"table of {(n_max + 1) * cells} entries exceeds the cap")
    out = np.zeros((n_max + 1, cells), dtype=np.complex128)
    chunk = max(1, min(n_max, (1 << 20) // max(cells, 1)))
    for start in range(0, n_max, chunk):
        stop = min(n_max, start + chunk)
        block = character_block(ns, start, stop, ns.resolution)
        out[start + 1 : stop + 1] = np.cumsum(block, axis=0)
        if start > 0:
            out[start + 1 : stop + 1] += out[start]
    return out


def fejer_kernel(ns: NumberSystem, n: int, resolution: int | None = None) -> StepFunction:
    """(1/n) sum_{k=1}^{n} D_k = sum_{nu<n} (n - nu)/n psi_nu."""
    if not 1 <= n <= ns.cell_count:
        raise UsageError(f"kernel order {n} outside 1..{ns.cell_count}")
    numerators, denominator = fejer_weights(n)
    return synthesize(ns, numerators / denominator, resolution)


def cesaro_kernel(ns: NumberSystem, n: int, alpha: float,
                  resolution: int | None = None) -> StepFunction:
    """K_n^{-alpha} = (1/A_{n-1}^{-alpha}) sum_{nu<n} A_{n-1-nu}^{-alpha} psi_nu."""
    if not 1 <= n <= ns.cell_count:
        raise UsageError(f"kernel order {n} outside 1..{ns.cell_count}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"order -alpha with alpha={alpha} outside (0, 1)")
    numerators, denominator = cesaro_weights(n, alpha)
    return synthesize(ns, numerators / denominator, resolution)


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
    """
    N = ns.resolution
    cells = ns.cell_count
    T = dirichlet_table(ns, cells)
    idx = np.arange(cells)
    # r_k^a for a = 0..m_k is row a % m_k of F_k on digit k's axis; Tt holds T's rows as tensors
    powers = []
    for k in range(N):
        m = ns.radix.radices[k]
        powers.append(digit_axis(synthesis_matrix(m)[np.arange(m + 1) % m], ns, N, k))
    Tt = digit_tensor(T, ns, N)

    res = {key: 0.0 for key in (
        "scale_indicator", "mean", "digit_split", "block_shift",
        "block_geometric", "reflection", "product_form")}

    for k in range(N + 1):
        ref = np.where(idx % ns.M[k] == 0, ns.M[k], 0).astype(np.complex128)
        res["scale_indicator"] = max(res["scale_indicator"],
                                     float(np.abs(T[ns.M[k]] - ref).max()))

    means = T[1:].mean(axis=1)
    res["mean"] = float(np.abs(means - 1.0).max())

    for k in range(N):
        m = ns.radix.radices[k]
        Mk = ns.M[k]
        geo = np.cumsum(powers[k][:m], axis=0)  # geo[q] = sum_{a<=q} r_k^a
        for nk in range(1, m):
            base = nk * Mk
            gs = geo[nk - 1]
            for rest in range(Mk):
                lhs = Tt[base + rest]
                res["digit_split"] = max(res["digit_split"], float(
                    np.abs(lhs - gs * Tt[Mk] - powers[k][nk] * Tt[rest]).max()))
            for j in range(Mk + 1):
                lhs = Tt[base + j]
                res["block_shift"] = max(res["block_shift"], float(
                    np.abs(lhs - Tt[base] - powers[k][nk] * Tt[j]).max()))
        for rr in range(1, m + 1):
            base = rr * Mk
            for j in range(1 if rr == m else Mk):
                lhs = Tt[base + j]
                res["block_geometric"] = max(res["block_geometric"], float(
                    np.abs(lhs - geo[rr - 1] * Tt[Mk] - powers[k][rr] * Tt[j]).max()))

    for s in range(N):
        m = ns.radix.radices[s]
        for n_s in range(1, m):
            base = n_s * ns.M[s]
            psi = vilenkin_on_cells(ns, base - 1, N)
            for j in range(base + 1):
                lhs = T[base - j]
                res["reflection"] = max(res["reflection"], float(
                    np.abs(lhs - T[base] + psi * T[j].conj()).max()))

    for n in range(1, cells + 1):
        prod = dirichlet_product(ns, n).lift(N)
        res["product_form"] = max(res["product_form"], float(
            np.abs(prod.cells - T[n]).max()))

    return RecursionReport(residuals=res)


def block_decomposition_residual(ns: NumberSystem, n: int, alpha: float,
                                 table: np.ndarray) -> float:
    """Residual of the digit-block expansion of sum_{j=1}^{n} A_{n-j}^{-alpha-1} D_j.

    The left side drives the order -alpha kernel (it equals
    A_{n-1}^{-alpha} K_n^{-alpha}); the right side resolves it into per-digit
    blocks: for each nonzero digit n_k,

        (prod_{l>k} psi_{n_l M_l}) [ D_{n_k M_k} A_{n^(k)-1}^{-alpha}
            - psi_{n_k M_k - 1} sum_{j<n_k M_k} A_{n^(k-1)+j}^{-alpha-1} conj(D_j) ].

    Zero digits contribute nothing and are skipped, so psi_{-1} never arises.
    table holds at least the rows D_0 .. D_n of dirichlet_table.
    """
    return float(block_decomposition_residuals(ns, alpha, table, [n])[0])


def block_decomposition_residuals(ns: NumberSystem, alpha: float, table: np.ndarray,
                                  orders=None) -> np.ndarray:
    """block_decomposition_residual for each n in orders (default 1 .. len(table) - 1).

    The two binomial tables are built once, for the largest order, and sliced
    per n: cumprod rounds every prefix as a table built for that n would. The
    characters psi_{base-1} and psi_base are built once per base = n_k M_k.
    """
    orders = range(1, len(table)) if orders is None else list(orders)
    for n in orders:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    n_top = max(orders, default=1)
    t0 = binomials.cesaro_table(-alpha, n_top - 1)
    t1 = binomials.cesaro_table(-alpha - 1, n_top - 1)
    chars = {}

    def psi(k):
        if k not in chars:
            chars[k] = vilenkin_on_cells(ns, k, ns.resolution)
        return chars[k]

    cells = table.shape[1]
    out = np.empty(len(orders))
    for i, n in enumerate(orders):
        lhs = np.tensordot(t1.values[:n][::-1], table[1 : n + 1], axes=(0, 0))
        dd = _extended_digits(ns, n)
        rhs = np.zeros(cells, dtype=np.complex128)
        suffix = np.ones(cells, dtype=np.complex128)  # prod_{l>k} psi_{n_l M_l}
        trunc = n  # n^(k) going down
        for k in range(len(dd) - 1, -1, -1):
            nk = dd[k]
            if nk == 0:
                continue
            base = nk * ns.M[k]
            trunc_below = trunc - base  # n^(k-1)
            block = table[base] * t0.a(trunc - 1)
            # the weights are real, so conjugating the sum equals summing the conjugates
            inner = np.tensordot(t1.values[trunc_below : trunc_below + base],
                                 table[:base], axes=(0, 0)).conj()
            block = block - psi(base - 1) * inner
            rhs += suffix * block
            if k < ns.resolution:
                suffix = suffix * psi(base)
            trunc = trunc_below
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
    beta_ratios: np.ndarray | None = None


def majorant_ratio_scan(ns: NumberSystem, alpha: float, n_values) -> list[BoundScanRecord]:
    """|K_n^{-alpha}| |A_{n-1}^{-alpha}| against sum_{l<=A} M_l^{-alpha} D_{M_l}.

    The l = 0 term is identically 1, so the majorant never vanishes.
    """
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    out = []
    for n in n_values:
        if not 1 <= n <= ns.cell_count:
            raise UsageError(f"order {n} outside 1..{ns.cell_count}")
        K = cesaro_kernel(ns, n, alpha)
        r = K.resolution
        cells = ns.cells_at(r)
        A = scale_of(ns, n) if n < ns.cell_count else ns.resolution
        idx = np.arange(cells)
        majorant = np.zeros(cells)
        for l in range(min(A, r) + 1):
            majorant += ns.M[l] ** (1.0 - alpha) * (idx % ns.M[l] == 0)
        a_n = binomials.cesaro_coefficient(n - 1, -alpha)
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
                                   resolution=r, beta_ratios=ratios))
    return out


def dirichlet_l1_ratio(ns: NumberSystem, coeffs) -> float:
    """[(1/n) integral |sum_k a_k D_k|] * sqrt(n) / ||a||_2.

    The combination sum_{k=1}^{n} a_k D_k collapses to the character sum with
    suffix weights sum_{k>nu} a_k, so one synthesis evaluates it.
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
    suffix = np.cumsum(a[::-1])[::-1]
    comb = synthesize(ns, suffix)
    l1 = float(np.abs(comb.cells).mean())
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
    h = synthesize(ns, weights, f.resolution)
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
