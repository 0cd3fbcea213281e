"""The `verify` suites, name -> suite in SUITES, and the exhaustive scans only they run.

A suite takes (ns, rng) and returns {"passed", "max_residual", "details"},
its thresholds the literals in its body; a scan returns its residuals and
the suite takes the max. The library modules never import this; cli does.
"""

from __future__ import annotations

import functools

import numpy as np

from . import binomials, config, kernels, oracles, transform
from .characters import ROW_BLOCK, character_block, root_table, synthesis_matrix, vilenkin_on_cells
from .errors import DomainError, UsageError
from .families import random_cells
from .group import NumberSystem, coset_rep_cells, digit_axis, digit_matrix, digit_tensor
from .transform import StepFunction, forward, inverse, sup_distance, synthesize, synthesize_rows


def _worst(*values: float) -> float:
    """The largest of values, NaN if any is NaN (Python's max drops a NaN that is not first)."""
    return float(np.max(values))


def _suite_group(ns: NumberSystem, rng: np.random.Generator) -> dict:
    r = ns.resolution
    cells = ns.cells_at(r)
    failures = 0
    # digit expansion and cell index are mutually inverse on every cell
    D = digit_matrix(ns, r)
    weights = np.array(ns.M[:r], dtype=np.int64)
    failures += int(not np.array_equal(D @ weights, np.arange(cells)))
    # the digit-axis actions against digit-row arithmetic on every cell: cell x
    # of the index function translated by t holds the cell of x - t,
    # sum_j ((x_j - t_j) mod m_j) M_j, and row a of table j holds that term for
    # t_j = a and every x; translating back by -t is the identity. A block of M_l
    # t (ROW_BLOCK entries at most) shares its digits from l up with its first t, a
    tables = [((D[:, j] - np.arange(m)[:, None]) % m) * ns.M[j]
              for j, m in enumerate(ns.radix.radices)]
    index = StepFunction(ns, r, np.arange(cells))
    block = max(m for m in ns.M if m <= max(1, ROW_BLOCK // cells))
    first = sum(table[D[:block, j]] for j, table in enumerate(tables))  # x - t for t < M_l
    for a in range(0, cells, block):
        minus = first + sum(table[D[a, j]] - table[0] for j, table in enumerate(tables))
        for t, minus_t in enumerate(minus, start=a):
            moved = index.translate(t)
            failures += int(not np.array_equal(moved.cells, minus_t))
            back = moved.translate(int(minus_t[0]))
            failures += int(not np.array_equal(back.cells, index.cells))
    reflected = index.reflect()
    # and the reflection holds the cell of -x
    failures += int(not np.array_equal(reflected.cells, (-D % ns.radix.radices) @ weights))
    failures += int(not np.array_equal(reflected.reflect().cells, index.cells))
    # the representatives of the cosets at every level are M_k distinct residues mod M_k
    for k in range(r + 1):
        residues = np.sort(coset_rep_cells(ns, k, r) % ns.M[k])
        failures += int(not np.array_equal(residues, np.arange(ns.M[k])))
    return {"passed": failures == 0, "max_residual": float(failures),
            "details": {"cells": cells, "failures": failures}}


def character_shift_residual(ns: NumberSystem) -> float:
    """Max deviation in psi_{M_k}^{-n_k}(e_k) psi_{M_k}^{n_k}(t) = psi_{M_k}^{n_k}(t - e_k).

    Checked for every k, every 1 <= n_k < m_k, every value t_k of digit k.
    """
    worst = 0.0
    for k, m in enumerate(ns.radix.radices):
        roots = root_table(m)
        tk = np.arange(m)
        for nk in range(1, m):
            lhs = roots[(-nk) % m] * roots[(nk * tk) % m]
            rhs = roots[(nk * ((tk - 1) % m)) % m]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def unity_gap_residual(ns: NumberSystem) -> tuple[float, float]:
    """Check |1 - psi_{M_k}^{-n_k}(e_k)| = 2 sin(pi n_k / m_k) over all k, n_k.

    Returns (max identity residual, min gap - 2 sin(pi / max_radix)); the
    second entry is nonnegative when the uniform lower bound holds.
    """
    worst = 0.0
    min_gap = np.inf
    for k, m in enumerate(ns.radix.radices):
        roots = root_table(m)
        for nk in range(1, m):
            gap = abs(1 - roots[(-nk) % m])
            worst = max(worst, abs(gap - 2 * np.sin(np.pi * nk / m)))
            min_gap = min(min_gap, gap)
    return worst, float(min_gap - 2 * np.sin(np.pi / ns.radix.max_radix))


def _suite_characters(ns: NumberSystem, rng: np.random.Generator) -> dict:
    r = ns.resolution
    cells = ns.cells_at(r)
    # row a of the Gram, <psi_a, psi_k> / M for every k, is the analysis of psi_a:
    # one fast transform per block of character rows, never the (M, M) matrix
    gram_res = 0.0
    height = max(1, ROW_BLOCK // cells)
    for a in range(0, cells, height):
        b = min(cells, a + height)
        rows = character_block(ns, a, b, r)
        gram = transform._staged(rows, ns, r, analysis=True).reshape(b - a, cells) / cells
        gram[np.arange(b - a), np.arange(a, b)] -= 1.0
        gram_res = _worst(gram_res, np.abs(gram).max())
    shift_res = character_shift_residual(ns)
    identity_res, gap_margin = unity_gap_residual(ns)
    passed = gram_res <= 1e-10 and shift_res <= 1e-10 \
        and identity_res <= 1e-10 and gap_margin >= -1e-12
    return {"passed": passed, "max_residual": _worst(gram_res, shift_res, identity_res),
            "details": {"gram": gram_res, "shift": shift_res,
                        "unity_identity": identity_res, "gap_margin": gap_margin}}


def identity_report(alpha: float, n_max: int) -> tuple[float, float]:
    """Relative residuals of the defining identities on 1..n_max: (difference, sum).

    difference: A_n^a - A_{n-1}^a = A_n^{a-1}; sum: sum_{k=0}^{n} A_k^{a-1} = A_n^a.
    Each is normalized by the largest magnitude among the participating
    terms; normalizing by the (cancellation-small) difference alone is not
    meaningful in float64 once n is large.
    """
    if n_max < 1:
        raise UsageError(f"n_max={n_max} must be at least 1")
    t = binomials.cesaro_table(alpha, n_max).values
    t_lower = binomials.cesaro_table(alpha - 1, n_max).values

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
    return diff_rel, sum_rel


def asymptotic_ratio_residual(alpha: float, n: int) -> float:
    """|A_n^alpha / A_{2n}^alpha - 2^{-alpha}|; decays like O(1/n)."""
    if n < 1:
        raise UsageError(f"n={n} must be at least 1")
    t = binomials.cesaro_table(alpha, 2 * n).values
    if t[2 * n] == 0.0:
        raise DomainError(f"A_{2 * n}^{alpha} vanished; ratio undefined")
    return abs(float(t[n] / t[2 * n]) - 2.0 ** (-alpha))


def _suite_binomials(ns: NumberSystem, rng: np.random.Generator) -> dict:
    details = {}
    worst = 0.0
    for a in (0.25, 0.5, 0.75, 0.9):
        for alpha in (a, -a):
            residual = _worst(*identity_report(alpha, 10_000))
            details[f"identities_{alpha}"] = residual
            worst = _worst(worst, residual)
    ratio = _worst(asymptotic_ratio_residual(0.5, 10_000),
                   asymptotic_ratio_residual(-0.5, 10_000))
    details["ratio_residual"] = ratio
    t = binomials.cesaro_table(-0.5, 1000)
    monotone = bool(np.all(t.values > 0) and np.all(np.diff(t.values) < 0))
    details["negative_order_decreasing"] = monotone
    passed = worst <= 1e-10 and ratio <= 0.01 and monotone
    return {"passed": passed, "max_residual": worst, "details": details}


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


def _base_rows(ns: NumberSystem, base: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """D_base, the synthesis of base ones, and psi_{base-1} at the given resolution."""
    return synthesize(ns, np.ones(base), resolution).cells, \
        vilenkin_on_cells(ns, base - 1, resolution)


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


def verify_dirichlet_recursions(ns: NumberSystem) -> dict:
    """Exhaustive residual scan of the Dirichlet kernel identities: the max residual of each.

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
    one pass. The reflection's two base rows are synthesized per block and
    pair and live only for that check. The last row of up stream m_s - 1 is
    D_{M_{s+1}}. digit_split is block_geometric for r < m_k and is
    evaluated once. A NaN stays NaN.
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
            pairs = [(c, e) for c in downs for e in E if c + e <= m - 2]
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
                for c, e in pairs:  # D_{d M_s} - D_{d M_s - j} = psi_{d M_s - 1} conj(D_j)
                    d = c + e + 1
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
    bump("product_form", kernels.dirichlet(ns, ns.cell_count).cells - last)
    return res


def _suite_dirichlet(ns: NumberSystem, rng: np.random.Generator) -> dict:
    residuals = verify_dirichlet_recursions(ns)
    worst = _worst(*residuals.values())
    passed = worst <= 1e-9 and residuals["mean"] <= 1e-10
    return {"passed": passed, "max_residual": worst, "details": residuals}


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
        # _base_rows of every base d M_s at resolution s + 1, and of M_N (s = N, d = 1) at N
        self.bases = {(s, d): _base_rows(ns, d * ns.M[s], min(s + 1, ns.resolution))
                      for s, m in enumerate(ns.radix.radices + (2,)) for d in range(1, m)}

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
        D, psi = self.bases[s, d]
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


def _suite_block(ns: NumberSystem, rng: np.random.Generator) -> dict:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        worst = _worst(worst, block_decomposition_residuals(ns, alpha).max())
    return {"passed": worst <= 1e-9, "max_residual": worst,
            "details": {"n_max": ns.cell_count}}


def _suite_routes(ns: NumberSystem, rng: np.random.Generator) -> dict:
    f = random_cells(ns, rng)
    worst = 0.0
    n_top = min(64, ns.cell_count)
    sums = oracles.partial_sum_rows(f, n_top)  # S_1 f .. S_{n_top} f, shared by every (alpha, n)
    for alpha in (0.25, 0.5, 0.75):
        means = oracles.cesaro_means_of_partial_sums(f, sums, alpha)
        for n, b in zip(range(1, n_top + 1), means):
            a = transform.cesaro_mean(f, n, alpha)
            c = transform.convolve(f, kernels.cesaro_kernel(ns, n, alpha))
            worst = _worst(worst, _worst(sup_distance(a, b), sup_distance(a, c)) / n)
    return {"passed": worst <= 1e-9, "max_residual": worst,
            "details": {"n_max": n_top, "normalized_by": "n"}}


def _suite_transform(ns: NumberSystem, rng: np.random.Generator) -> dict:
    f = random_cells(ns, rng)
    cf = forward(f)
    cn = oracles.forward(f)
    fast_vs_naive = float(np.max(np.abs(cf.coeffs - cn.coeffs)))
    roundtrip = sup_distance(inverse(cf), f)
    order = list(rng.permutation(ns.resolution))
    permuted = float(np.max(np.abs(oracles.staged_forward(f, order).coeffs - cf.coeffs)))
    parseval = 0.0
    for _ in range(50):
        g = random_cells(ns, rng)
        c = forward(g)
        lhs = float(np.mean(np.abs(g.cells) ** 2))
        rhs = float(np.sum(np.abs(c.coeffs) ** 2))
        parseval = _worst(parseval, abs(lhs - rhs) / max(lhs, 1.0))
    worst = _worst(fast_vs_naive, roundtrip, permuted, parseval)
    passed = fast_vs_naive <= 1e-10 and roundtrip <= 1e-10 \
        and permuted <= 1e-10 and parseval <= 1e-9
    return {"passed": passed, "max_residual": worst,
            "details": {"fast_vs_naive": fast_vs_naive, "roundtrip": roundtrip,
                        "permuted_stages": permuted, "parseval": parseval}}


# the suite of each name the config accepts, in config order
SUITES = {name: globals()[f"_suite_{name}"] for name in config.SUITES}
