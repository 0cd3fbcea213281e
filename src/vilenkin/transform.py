"""Step functions on G_m, the Vilenkin transform, and Cesaro means.

A StepFunction holds one value per I_r-cell, indexed by the mixed radix
cell index, and a point t of G_m is its cell index too. The dtype follows
the data: float64 for real values (ints and bools included), complex128 for
complex ones. Reshaped, the cells are a tensor with one axis per digit
(group.digit_tensor; group owns the axis rule). Translation and reflection
cycle its axes, and the character system is a pure tensor product, so
analysis and synthesis are the Kronecker product of one small DFT per
digit. Adjacent digits are fused into blocks of bounded radix product; each
block is one cached Kronecker matrix built from the shared root-of-unity
tables and applied as one matmul, which off Walsh grids also rotates the
block's digits to the top of the cell index. A block of radix-2 digits has
a real matrix. On a Walsh grid (every radix 2) every block, character, Cesaro
weight and kernel is real-valued, so real values stay float64 end to end;
otherwise the values are complex128 from the transform's entry on (_staged
gives the rules). The order of the factors is mathematically inert:
oracles.staged_forward applies them one digit at a time in any order, and
the tests and the verify suite compare it with the fused path. Every mean,
and convolution, is one spectral multiplier: forward, weight coefficient
nu, inverse, at the coarsest resolution carrying the weights, then lifted.
A sum over nu < M_k uses characters of the low k digits alone, so it is
constant on the cosets of I_k and needs only the coefficients of E_k f, the
average of f over the high digits: f is folded to M_k cells, transformed,
weighted and synthesized at resolution k, and tiled back to its own grid
(S_{M_k} f = E_k f is the classical case); converge reads means untiled.
The partial sum S_n f is folded the same way but runs no transform: it
takes two GEMMs per Kronecker block by Paley's lemma (partial_sum).

Cesaro mean convention (the tests and the routes suite check all three):

    sigma_n^{-alpha} f
        = (1/A_{n-1}^{-alpha}) sum_{nu=0}^{n-1} A_{n-1-nu}^{-alpha} fhat(nu) psi_nu
        = (1/A_{n-1}^{-alpha}) sum_{nu=1}^{n}   A_{n-nu}^{-alpha-1} S_nu f
        = f convolved with the order -alpha kernel of length n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import binomials
from .characters import analysis_matrix, synthesis_matrix
from .errors import UsageError, ValidationError
from .group import NumberSystem, digit_tensor, digits_of


def _values(values) -> np.ndarray:
    """values as complex128 when complex, else as float64 (ints and bools too)."""
    arr = np.asarray(values)
    return arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)


def _cell_values(ns: NumberSystem, resolution: int, values, name: str) -> np.ndarray:
    """_values(values), checked to be one-dimensional with M_resolution entries."""
    arr = _values(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    expect = ns.cells_at(resolution)
    if len(arr) != expect:
        raise ValidationError(f"{len(arr)} {name} != M_{resolution} = {expect}")
    return arr


@dataclass
class StepFunction:
    """Function constant on the I_resolution cells of G_m."""

    ns: NumberSystem
    resolution: int
    cells: np.ndarray

    def __post_init__(self):
        self.cells = _cell_values(self.ns, self.resolution, self.cells, "cells")

    def lift(self, resolution: int) -> "StepFunction":
        """Re-express on the finer grid; values depend only on low digits."""
        if resolution < self.resolution:
            raise UsageError(f"cannot lift {self.resolution} down to {resolution}")
        reps = self.ns.cells_at(resolution) // len(self.cells)
        return StepFunction(self.ns, resolution, np.tile(self.cells, reps))

    def translate(self, t: int) -> "StepFunction":
        """g with g(x) = f(x - t), t a point given by its cell index 0 <= t < M_N.

        Digit axis j rolls by t_j; digits of t at or above the resolution act
        on no cell. The basis point e_k is t = M_k. On the (-1, m_j, M_j) view,
        digit value a takes the slab of a - t_j mod m_j: two slice copies.
        """
        r = self.resolution
        cells = self.cells
        for j, tj in enumerate(digits_of(self.ns, t)[:r]):
            if tj:
                src = cells.reshape(-1, self.ns.radix.radices[j], self.ns.M[j])
                cells = np.concatenate((src[:, -tj:], src[:, :-tj]), axis=1).reshape(-1)
        return StepFunction(self.ns, r, cells.copy() if cells is self.cells else cells)

    def reflect(self) -> "StepFunction":
        """g with g(x) = f(-x): the flip sends x_j to m_j - 1 - x_j, a roll by one adds 1."""
        r = self.resolution
        arr = np.flip(digit_tensor(self.cells, self.ns, r))
        for axis in range(r):
            arr = np.roll(arr, 1, axis=axis)
        return StepFunction(self.ns, r, arr.reshape(-1) if r else self.cells.copy())


@dataclass
class CoefficientVector:
    """fhat(0) .. fhat(M_r - 1) for a resolution-r step function."""

    ns: NumberSystem
    resolution: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = _cell_values(self.ns, self.resolution, self.coeffs, "coeffs")


# Largest radix product P of a fused block, whose Kronecker matrix is (P x P).
# Of 16, 32 and 64, 32 gave the fastest benchmark passes on 2^11 to 2^20 cells
# (2-core VM): 16 and 64 were up to 27% slower on scan p90 and large_grid wall.
_BLOCK_CAP = 32


@functools.lru_cache(maxsize=None)
def _digit_blocks(radices: tuple) -> tuple:
    """Runs (j0, j1) of adjacent digits, lowest first, each with radix product <= _BLOCK_CAP.

    A digit whose radix alone exceeds the cap forms its own block.
    """
    blocks, j0, p = [], 0, 1
    for j, m in enumerate(radices):
        if j > j0 and p * m > _BLOCK_CAP:
            blocks.append((j0, j))
            j0, p = j, 1
        p *= m
    if radices:
        blocks.append((j0, len(radices)))
    return tuple(blocks)


@functools.lru_cache(maxsize=None)
def _kronecker(radices: tuple, analysis: bool) -> np.ndarray:
    """F_{j1-1} kron ... kron F_{j0} for one block's radices, highest digit outermost.

    float64 when the matrix has no imaginary part (every radix 2), else complex128.
    """
    K = np.ones((1, 1), dtype=np.complex128)
    for m in reversed(radices):
        K = np.kron(K, analysis_matrix(m) if analysis else synthesis_matrix(m))
    if not K.imag.any():
        # every radix is 2: root_table snaps +-1 exactly, so K is exactly real
        K = np.ascontiguousarray(K.real)
    K.setflags(write=False)
    return K


def _staged(values: np.ndarray, ns: NumberSystem, resolution: int, analysis: bool) -> np.ndarray:
    """Apply the per-digit DFTs as one Kronecker matrix per block of adjacent digits.

    For the block of digits j0 <= j < j1 the cell index splits as
    high * M_j1 + mid * M_j0 + low with 0 <= mid < P = M_j1 / M_j0, and the
    block's Kronecker matrix K acts on mid alone. values may hold several
    rows of M_resolution cells back to back, each transformed alone, and
    the result is a new array. Real values stay float64 on a Walsh grid
    (every radix of ns is 2), where every K is real. On any other grid,
    whatever the resolution, values are taken as complex once, here at the
    entry, so a mean or kernel on a prefix of radix-2 digits is complex too.

    On a Walsh grid the cells reshaped to (M_r / M_j1, P, M_j0) take one
    real matmul K @ cells on the float64 view (rows, P, w M_j0), w floats
    per value, with complex parts as interleaved columns. The lowest block
    (M_j0 = 1) is (rows, P) @ K.T, complex for complex values. Elsewhere
    each block, lowest first, is one 2-D GEMM K @ (-1, P).T (a real K taken
    as complex) that moves its digits from the bottom of the cell index to
    the top: the last block leaves the cells in natural order with the row
    index last, and one transpose restores the rows. On Walsh grids this
    rotation measured slower; elsewhere it beat stacked small matmuls.
    """
    radices = ns.radix.radices[:resolution]
    walsh = ns.radix.max_radix == 2
    real = values.dtype.kind != "c" and walsh
    arr = np.ascontiguousarray(values, dtype=np.float64 if real else np.complex128)
    if resolution == 0:
        return arr.copy()
    for j0, j1 in _digit_blocks(radices):
        K = _kronecker(radices[j0:j1], analysis)
        low, p = ns.M[j0], ns.M[j1] // ns.M[j0]
        if not walsh:
            arr = K @ arr.reshape(-1, p).T
        elif low == 1:
            arr = arr.reshape(-1, p) @ K.T
        else:
            arr = _block_matmul(K, arr.reshape(-1, p, low))
    return arr.reshape(-1) if walsh else arr.reshape(ns.M[resolution], -1).T.reshape(-1)


def forward(f: StepFunction) -> CoefficientVector:
    """fhat(k) = (1/M_r) sum_cells f(x) conj(psi_k(x)), in O(M_r * sum of block sizes)."""
    return CoefficientVector(f.ns, f.resolution, _spectrum(f, f.resolution))


def _spectrum(f: StepFunction, k: int) -> np.ndarray:
    """fhat(0) .. fhat(M_k - 1) of f, transformed at resolution k <= f.resolution.

    psi_nu with nu < M_k depends on the low k digits alone, so these are the
    coefficients of E_k f, the average of f over the high digits: the cells
    reshaped to (M_r / M_k, M_k) are summed down the columns, transformed at
    resolution k and scaled once by 1/M_r. At k = r this is forward's
    spectrum, with no fold.
    """
    cells = f.cells if k == f.resolution else f.cells.reshape(-1, f.ns.cells_at(k)).sum(axis=0)
    coeffs = _staged(cells, f.ns, k, analysis=True)
    _scale(coeffs, f.ns.cells_at(f.resolution))
    return coeffs


def inverse(c: CoefficientVector) -> StepFunction:
    """f(x) = sum_k fhat(k) psi_k(x)."""
    cells = _staged(c.coeffs, c.ns, c.resolution, analysis=False)
    return StepFunction(c.ns, c.resolution, cells)


def _lifted(g: StepFunction, resolution: int) -> StepFunction:
    """g on the grid of resolution, with no copy when it is g's own."""
    return g if g.resolution == resolution else g.lift(resolution)


def minimal_resolution(ns: NumberSystem, n_freqs: int) -> int:
    """Smallest r with M_r >= n_freqs: the coarsest grid carrying psi_0..psi_{n-1}."""
    if n_freqs > ns.cell_count:
        raise UsageError(f"{n_freqs} frequencies exceed M_N = {ns.cell_count}")
    r = 0
    while ns.M[r] < n_freqs:
        r += 1
    return r


def synthesize(ns: NumberSystem, weights, resolution: int | None = None) -> StepFunction:
    """sum_nu weights[nu] psi_nu as a StepFunction.

    The sum is synthesized at minimal_resolution(len(weights)), the coarsest
    grid carrying its characters, and lifted to resolution (by default that
    grid itself). Real weights on a Walsh grid give a float64 function.
    """
    w = _values(weights)
    k = minimal_resolution(ns, len(w))
    r = k if resolution is None else resolution
    if len(w) > ns.cells_at(r):
        raise UsageError(f"{len(w)} weights exceed M_{r} = {ns.cells_at(r)}")
    padded = np.zeros(ns.cells_at(k), dtype=w.dtype)
    padded[: len(w)] = w
    return _lifted(inverse(CoefficientVector(ns, k, padded)), r)


def synthesize_rows(ns: NumberSystem, weights: np.ndarray, resolution: int) -> np.ndarray:
    """sum_nu weights[i, nu] psi_nu for each row i of a (rows, M_resolution) array.

    The rows are synthesized back to back in one transform pass. A row's
    bytes can depend on how many rows share the pass, so a caller that wants
    the same row from different calls must pass the same rows.
    """
    rows = len(weights)
    return _staged(_values(weights).reshape(-1), ns, resolution, analysis=False).reshape(
        rows, ns.cells_at(resolution))


def multiplier(f: StepFunction, weights, denominator: float = 1.0) -> StepFunction:
    """sum_{nu < len(weights)} fhat(nu) weights[nu] / denominator psi_nu.

    Frequencies at or past len(weights) are dropped, so the sum is constant
    on the cosets of I_k for k = minimal_resolution(len(weights)): f is
    folded to resolution k (_spectrum), weighted, synthesized there and
    lifted to f's resolution with one tile. At k = f.resolution there is no
    fold and no lift. The division follows the product with fhat, so a mean
    rounds as (fhat w) / A, not fhat (w / A). The product takes the result
    type of fhat and the weights, so a real f and real weights on a Walsh
    grid stay float64.
    """
    k = minimal_resolution(f.ns, min(len(weights), len(f.cells)))
    c = CoefficientVector(f.ns, k, _spectrum(f, k))
    return _lifted(_weighted_inverse(c, weights, denominator), f.resolution)


def _weighted_inverse(c: CoefficientVector, weights, denominator: float) -> StepFunction:
    """The weight step and inverse of multiplier on a resolution-k spectrum, not lifted."""
    cut = min(len(weights), len(c.coeffs))
    w = _values(weights[:cut])
    out = np.zeros(len(c.coeffs), dtype=np.result_type(c.coeffs, w))
    np.multiply(c.coeffs[:cut], w, out=out[:cut])
    _scale(out[:cut], denominator)
    return inverse(CoefficientVector(c.ns, c.resolution, out))


def _scale(values: np.ndarray, denominator: float) -> None:
    """values /= denominator in place, for a contiguous float64 or complex128 array.

    Every float of the float64 view, both parts of a complex value, is
    multiplied by 1/denominator, a real number. Complex division by a real
    number computes the same products (Smith's algorithm with a zero
    imaginary divisor) at several times the cost; only the sign of an
    exactly zero part can differ.
    """
    parts = values.view(np.float64)
    parts *= 1.0 / denominator


def partial_sum(f: StepFunction, n: int) -> StepFunction:
    """S_n f = sum_{nu < n} fhat(nu) psi_nu, S_0 f = 0, with no transform.

    f is folded to g = E_k f, k = minimal_resolution(n), as in _spectrum.
    By Paley's lemma, in the top Kronecker block of P cells (synthesis S,
    analysis A), with b = n // M_j0 and g as (P, M_j0),
    S_n g = S[:, :b] (A[:b] g / P) + S[:, b] (x) S_{n mod M_j0}(A[b] g / P):
    two GEMMs on M_k cells and the same on the M_j0 cells of the carry, in
    place of a multiplier's two transforms. One tile lifts the result. The
    dtype follows _staged's rule, and the result never shares f's cells.
    """
    ns, r, M = f.ns, f.resolution, len(f.cells)
    if not 0 <= n <= ns.cell_count:
        raise UsageError(f"partial sum order {n} outside 0..{ns.cell_count}")
    real = f.cells.dtype.kind != "c" and ns.radix.max_radix == 2
    g = f.cells.astype(np.float64 if real else np.complex128, copy=n >= M)
    if n == 0 or n >= M:
        return StepFunction(ns, r, np.zeros_like(g) if n == 0 else g)
    k = minimal_resolution(ns, n)
    if k < r:
        g = g.reshape(-1, ns.cells_at(k)).sum(axis=0)
        _scale(g, M // len(g))
    return _lifted(StepFunction(ns, k, _partial_cells(g, n, ns, k) if n < len(g) else g), r)


def _partial_cells(g: np.ndarray, n: int, ns: NumberSystem, k: int) -> np.ndarray:
    """S_n g for 0 < n < M_k on the M_k cells g: partial_sum's step, top block first."""
    radices, j0 = ns.radix.radices, _digit_blocks(ns.radix.radices[:k])[-1][0]
    S, A = _kronecker(radices[j0:k], False), _kronecker(radices[j0:k], True)
    b, low = divmod(n, ns.M[j0])
    X = _block_matmul(A[:b + (low > 0)] / len(A), g.reshape(len(A), -1))
    if low:  # row b is the carry: its own partial sum, one block down
        X[b] = _partial_cells(X[b], low, ns, j0)
    return _block_matmul(S[:, :len(X)], X).reshape(-1)


def _block_matmul(K: np.ndarray, values: np.ndarray) -> np.ndarray:
    """K @ values, a real K meeting complex values on their float64 view (no upcast of K)."""
    if K.dtype.kind == "c" or values.dtype.kind != "c":
        return K @ values
    return (K @ values.view(np.float64)).view(np.complex128)


def fejer_mean(f: StepFunction, n: int) -> StepFunction:
    """(1/n) sum_{k=1}^{n} S_k f: the weight of psi_nu is (n - nu) / n."""
    if not 1 <= n <= f.ns.cell_count:
        raise UsageError(f"mean order {n} outside 1..{f.ns.cell_count}")
    return multiplier(f, n - np.arange(n), n)


def cesaro_mean(f: StepFunction, n: int, alpha: float) -> StepFunction:
    """sigma_n^{-alpha} f for 0 < alpha < 1; see the module docstring for the convention."""
    return next(cesaro_means(f, [n], alpha))


def cesaro_means(f: StepFunction, orders, alpha: float):
    """sigma_n^{-alpha} f for each n in orders, in order, with f transformed once per resolution.

    The orders are checked on the call, and f is folded and transformed
    there once for each distinct minimal resolution among the orders (the
    resolution multiplier works at); the means are built one at a time as
    the returned iterator is consumed. One Cesaro table serves every order:
    cumprod is a sequential fold, so a prefix of the table for the largest
    order is the table of a smaller one, to the byte.
    """
    means, = _cesaro_means(f, orders, [alpha])
    return (_lifted(mean, f.resolution) for mean in means)


def _cesaro_means(f: StepFunction, orders, alphas):
    """cesaro_means before the lift, for each alpha from one set of spectra of f."""
    orders = list(orders)
    for n in orders:
        if not 1 <= n <= f.ns.cell_count:
            raise UsageError(f"mean order {n} outside 1..{f.ns.cell_count}")
    binomials.check_alphas(*alphas)
    level = {n: minimal_resolution(f.ns, min(n, len(f.cells))) for n in orders}
    spectra = {k: CoefficientVector(f.ns, k, _spectrum(f, k)) for k in sorted(set(level.values()))}

    def means(alpha):  # the table is built with the first mean
        table = binomials.cesaro_table(-alpha, max(orders, default=1) - 1)
        for n in orders:
            yield _weighted_inverse(spectra[level[n]], table.values[n - 1 :: -1], table.a(n - 1))

    return map(means, alphas)  # lazily: a table is freed with its alpha's iterator


def convolve(f: StepFunction, g: StepFunction) -> StepFunction:
    """(f * g)(x) = integral of f(x - t) g(t) over the normalized Haar measure.

    The coarser operand's spectrum is the multiplier's weight on the finer
    one, so the product is taken at the coarser resolution and lifted once.
    """
    if f.ns != g.ns:
        raise ValidationError("operands live on different groups")
    fine, coarse = (f, g) if f.resolution >= g.resolution else (g, f)
    return multiplier(fine, forward(coarse).coeffs)


def sup_distance(f: StepFunction, g: StepFunction) -> float:
    """Uniform distance; the coarser operand broadcasts over the rows of the finer one."""
    if f.ns != g.ns:
        raise ValidationError("operands live on different groups")
    fine, coarse = (f, g) if f.resolution >= g.resolution else (g, f)
    # a lift tiles the coarse cells, so each row of len(coarse) fine cells meets them whole
    return float(np.abs(fine.cells.reshape(-1, len(coarse.cells)) - coarse.cells).max())

