"""Dirichlet and negative-order Cesaro kernels plus bound scans.

D_n = sum_{k<n} psi_k with D_0 = 0. Kernels are materialized on the coarsest
grid that carries their frequencies and lifted on demand. The scans quantify
kernel bounds empirically: each returns the scanned ratios so stability can
be asserted rather than assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import binomials
from .characters import ROW_BLOCK, character_block, synthesis_matrix, vilenkin_on_cells
from .errors import DomainError, UsageError
from .group import (NumberSystem, coset_rep_cells, digit_axis, digit_tensor, scale_of,
                    trailing_zero_digits)
from .oscillation import modulus_of_continuity
from .transform import StepFunction, cesaro_weights, convolve, synthesize, synthesize_rows


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


def _dirichlet_rows(ns: NumberSystem, first: int, last: int, resolution: int):
    """Rows D_first .. D_last at resolution r, in blocks of at most ROW_BLOCK entries.

    The orders are at most M_r and run downward when last < first. D_first
    is one synthesis of first ones; each further row adds psi_n to the row
    before it, or subtracts psi_{n-1} going down. The running sum is carried
    from block to block, so the rows do not depend on the block size.
    """
    r, cells = resolution, ns.cells_at(resolution)
    step = 1 if last >= first else -1
    height = max(1, ROW_BLOCK // cells)
    rows = None  # the block before: its last row starts the next, read only once it is due
    for a in range(first, last + step, step * height):
        b = a + step * min(height, abs(last - a) + 1)  # the block holds rows a, .., b - step
        row = synthesize(ns, np.ones(first), r).cells if rows is None else \
            rows[-1] + vilenkin_on_cells(ns, a - 1, r) if step > 0 else \
            rows[-1] - vilenkin_on_cells(ns, a, r)
        rows = np.empty((abs(b - a), cells), dtype=np.complex128)
        rows[0] = row
        if step > 0:
            rows[1:] = character_block(ns, a, b - 1, r)
        else:
            np.negative(character_block(ns, b + 1, a, r)[::-1], out=rows[1:])
        np.cumsum(rows, axis=0, out=rows)
        del row
        yield rows


@dataclass(frozen=True)
class RecursionReport:
    """Max residual per Dirichlet identity over its admissible parameter range."""

    residuals: dict

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))  # NaN if any is NaN


def verify_dirichlet_recursions(ns: NumberSystem) -> RecursionReport:
    """Exhaustive residual scan of the Dirichlet kernel identities.

    Checked for every admissible parameter tuple, kernel orders up to M_N:

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

    The identities of digit s name orders up to M_{s+1}, whose rows are
    constant on the cosets of I_{s+1}: each digit is checked on the cells of
    resolution s + 1, where a row reshaped to (m_s, M_s) meets r_s^a as a
    column. The rows come from _dirichlet_rows streams of M_s + 1 rows: up
    stream d runs D_{d M_s} .. D_{(d+1) M_s}, down stream c the same orders
    downward. A pass walks up streams e0, e0 + 1 in lockstep with down
    streams c0, c0 + 1, which meet in reflection, and with up stream 0 when
    c0 = 0, which meets the up streams d >= 1 (the orders of scale s) in the
    others. So a pass holds five blocks at most, whatever m_s; radix 2 is
    one pass. The last row of up stream m_s - 1 is D_{M_{s+1}}. digit_split is
    block_geometric for r < m_k and is evaluated once. A NaN stays NaN.
    """
    res = dict.fromkeys(("scale_indicator", "mean", "digit_split", "block_shift",
                         "block_geometric", "reflection", "product_form"), 0.0)

    def bump(key, diff, less=0.0):
        diff -= less  # in place, diff being a temporary: one block fewer is live
        res[key] = float(np.maximum(res[key], np.abs(diff).max(initial=0.0)))  # keeps a NaN

    for s in range(ns.resolution):
        r, m, Ms = s + 1, ns.radix.radices[s], ns.M[s]
        view = (m, Ms)  # a row at resolution s + 1, digit s outermost
        powers = synthesis_matrix(m)[np.arange(m + 1) % m][:, :, None]  # r_s^a on that view
        geo = np.cumsum(powers[:m], axis=0)  # geo[q] = sum_{a<=q} r_s^a
        for e0, c0 in ((e, c) for e in range(0, m, 2) for c in range(0, max(1, m - 1 - e), 2)):
            E, downs = range(e0, min(e0 + 2, m)), range(c0, min(c0 + 2, m - 1 - e0))
            ups = sorted({0, *E}) if c0 == 0 else list(E)
            streams = [_dirichlet_rows(ns, d * Ms, (d + 1) * Ms, r) for d in ups]
            streams += [_dirichlet_rows(ns, (c + 1) * Ms, c * Ms, r) for c in downs]
            j = 0  # each block holds rows j .. j + height - 1 of its stream
            for blocks in zip(*streams, strict=True):  # strict: each stream ends, block freed
                flat, down = dict(zip(ups, blocks)), dict(zip(downs, blocks[len(ups):]))
                up, height = {d: b.reshape((-1,) + view) for d, b in flat.items()}, len(blocks[0])
                if j == 0 and c0 == 0:  # copies: a view would keep the first blocks alive
                    D = {d: u[0].copy() for d, u in up.items() if d}  # D[d] = D_{d M_s}
                    D1 = D[1] if e0 == 0 else D1
                k = min(height, Ms - j)  # the rows j < M_s, none in a last block of row M_s alone
                for d in ups[1:] if c0 == 0 else ():
                    bump("mean", flat[d][:k].mean(axis=1) - 1.0)
                    bump("product_form", _product_rows(ns, d * Ms + j, d * Ms + j + k, r),
                         less=flat[d][:k])
                    bump("digit_split", up[d][:k] - geo[d - 1] * D1, less=powers[d] * up[0][:k])
                    bump("block_shift", up[d] - D[d], less=powers[d] * up[0])
                for c, e in ((c, e) for c in downs for e in E if c + e <= m - 2):
                    d = c + e + 1  # D_{d M_s} - D_{d M_s - j} = psi_{d M_s - 1} conj(D_j)
                    bump("reflection", vilenkin_on_cells(ns, d * Ms - 1, r) * flat[e].conj(),
                         less=synthesize(ns, np.ones(d * Ms), r).cells - down[c])
                if m - 1 in ups and j + height > Ms:  # up stream m_s - 1 ends at D_{M_{s+1}}
                    last = flat[m - 1][-1].copy()
                j += height
                del blocks, flat, down, up  # before the next blocks are built
        bump("scale_indicator", D1 - np.where(np.arange(Ms) == 0, Ms, 0))
        bump("block_geometric", last.reshape(view) - geo[m - 1] * D1)  # r_s^m D_0 = 0
    bump("block_geometric", res["digit_split"])
    bump("scale_indicator", last - np.where(np.arange(ns.cell_count) == 0, ns.cell_count, 0))
    bump("mean", last.mean() - 1.0)
    bump("product_form", dirichlet_product(ns, ns.cell_count).cells - last)
    return RecursionReport(residuals=res)


def block_decomposition_residuals(ns: NumberSystem, alpha: float) -> np.ndarray:
    """Residual of the digit-block expansion of sum_{j=1}^{n} A_{n-j}^{-alpha-1} D_j, per n.

    The left side drives the order -alpha kernel (it equals
    A_{n-1}^{-alpha} K_n^{-alpha}); the right side resolves it into per-digit
    blocks: for each nonzero digit n_k,

        (prod_{l>k} psi_{n_l M_l}) [ D_{n_k M_k} A_{n^(k)-1}^{-alpha}
            - psi_{n_k M_k - 1} sum_{j<n_k M_k} A_{n^(k-1)+j}^{-alpha-1} conj(D_j) ].

    Zero digits contribute nothing, so psi_{-1} never arises. Entry n - 1
    is order n, for n = 1 .. M_N.

    The bracket of digit k depends on t = n mod M_{k+1} = n^(k) alone and
    lives at resolution k + 1 (_BlockTerms). So the right side R(n) of an
    order of scale s, M_s <= n < M_{s+1}, is the level recursion

        R(n) = T_s(n) + psi_{n_s M_s} R(n mod M_s),   R(0) = 0,

    at resolution s + 1, and n = M_N is the one term of its virtual digit
    n_N = 1. Each term is synthesized once, with the left sides of the same
    orders, in batches of rows at that resolution (ROW_BLOCK entries at
    most). The rows of R below M_L, for the largest L with M_L^2 <=
    ROW_BLOCK, are one table lifted to resolution L; the orders above are
    reached depth first from batches of that table's rows, one frame per
    digit above L, so no more than a few batches are held at once. The
    batches are fixed by the grid; an order that no batch reached raises
    RuntimeError rather than reading as a zero residual. The two binomial
    tables are built once, up to M_N, and sliced per n: cumprod rounds
    every prefix as a table built for that n would, and so does the cumsum
    of A^{-alpha-1} that weights the left sides.
    """
    binomials.check_alphas(alpha)
    N, M = ns.resolution, ns.M
    terms = _BlockTerms(ns, alpha)
    found = np.full(ns.cell_count + 1, np.nan)  # an order no batch reaches stays NaN

    def record(s, n, R):
        found[n] = terms.residuals(s, n, R)

    L = max(k for k in range(N + 1) if M[k] * M[k] <= ROW_BLOCK)
    height = max(1, ROW_BLOCK // ns.cell_count)  # rows of one batch above the table

    # the table: rows R(t), t < M_L, lifted to resolution L; batches of one scale and top digit
    table = np.zeros((M[L], M[L]), dtype=np.complex128)
    for s in range(L):
        rows = max(1, ROW_BLOCK // M[s + 1])
        for d in range(1, ns.radix.radices[s]):
            for a in range(d * M[s], (d + 1) * M[s], rows):
                n = np.arange(a, min(a + rows, (d + 1) * M[s]))
                R = terms.level(s, d, n, table[n % M[s], : M[s]])
                table[n] = np.tile(R, M[L] // M[s + 1])
                record(s, n, R)

    def climb(n, R, low):
        # n: orders whose digits below low are fixed, R their right sides
        for s in range(low, N):
            for d in range(1, ns.radix.radices[s]):
                R_up = terms.level(s, d, n + d * M[s], R)
                record(s, n + d * M[s], R_up)
                climb(n + d * M[s], R_up, s + 1)

    if L < N:
        for a in range(0, M[L], height):
            n = np.arange(a, min(a + height, M[L]))
            climb(n, table[n], L)
    n = np.array([M[N]])
    record(N, n, terms.level(N, 1, n, None))
    missed = np.flatnonzero(np.isnan(found[1:])) + 1
    if len(missed):
        raise RuntimeError(f"block terms reached no residual for orders {missed[:8].tolist()}")
    return found[1:]


class _BlockTerms:
    """The batched pieces of block_decomposition_residuals for one alpha.

    t0 and t1 are A^{-alpha} and A^{-alpha-1} up to index M_N - 1. The
    left side of order n weighs psi_nu with prefix[n - 1 - nu], the running
    sum of t1, which is what the suffix sums of its coefficients come to;
    both are read as windows of one array.
    """

    def __init__(self, ns: NumberSystem, alpha: float):
        self.ns = ns
        self.t0 = binomials.cesaro_table(-alpha, ns.cell_count - 1).values
        self.t1 = binomials.cesaro_table(-alpha - 1, ns.cell_count - 1).values
        # prefix[n - 1 - nu] for nu < n and 0 past it is the window at M_N - n
        self.lhs_weights = np.concatenate([np.zeros(ns.cell_count), np.cumsum(self.t1)])[::-1]
        self._bases = {}

    def base(self, s: int, d: int):
        """D_base, the synthesis of base ones, and psi_{base-1} at resolution min(s + 1, N).

        base = d M_s; each pair is built once.
        """
        if (s, d) not in self._bases:
            r = min(s + 1, self.ns.resolution)
            base = d * self.ns.M[s]
            self._bases[s, d] = (synthesize(self.ns, np.ones(base), r).cells,
                                 vilenkin_on_cells(self.ns, base - 1, r))
        return self._bases[s, d]

    def level(self, s: int, d: int, n: np.ndarray, low) -> np.ndarray:
        """R(n) for orders n with top digit n_s = d from the rows low = R(n mod M_s).

        The digit-s term is D_base A_{n-1}^{-alpha} - psi_{base-1} conj(inner),
        base = d M_s, inner = sum_{j<base} A_{n mod M_s + j}^{-alpha-1} D_j:
        the synthesis of its coefficients' suffix sums. The rows are at
        resolution s + 1; s = N is the order M_N alone, the term with base
        M_N and no rows below.
        """
        ns, M = self.ns, self.ns.M
        r = min(s + 1, ns.resolution)
        base = d * M[s]
        weights = np.zeros((len(n), M[r]))
        if base > 1:
            # coefficients t1[n mod M_s + j], j = 1 .. base-1, summed from the top down
            coeffs = np.lib.stride_tricks.sliding_window_view(self.t1, base - 1)[n - base + 1]
            np.cumsum(coeffs[:, ::-1], axis=1, out=weights[:, base - 2 :: -1])
        inner = synthesize_rows(ns, weights, r)
        D, psi = self.base(s, d)
        term = D * self.t0[n - 1][:, None] - psi * inner.conj()
        if s == ns.resolution:
            return term
        m, q = ns.radix.radices[s], low.shape[1]
        factor = synthesis_matrix(m)[d]  # psi_{d M_s} on digit s's axis
        # low broadcasts over the digits from q up
        R = term.reshape(len(n), m, M[s] // q, q) + factor[:, None, None] * low[:, None, None, :]
        return R.reshape(len(n), M[s + 1])

    def residuals(self, s: int, n: np.ndarray, R: np.ndarray) -> np.ndarray:
        """max over cells of |left side - R| per order, both at R's resolution."""
        ns = self.ns
        r = min(s + 1, ns.resolution)
        windows = np.lib.stride_tricks.sliding_window_view(self.lhs_weights, ns.M[r])
        lhs = synthesize_rows(ns, windows[ns.cell_count - n], r)
        return np.abs(lhs - R).max(axis=1)


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
