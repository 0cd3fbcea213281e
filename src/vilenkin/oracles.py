"""Reference forms of the fast paths, for tests, the `verify` suites (verify.py) and `bench`.

Each evaluates its definition literally: the transform as a character sum
or as one digit's DFT at a time, in any digit order, and a coset
representative decoded one digit at a time. The library modules never
import this; verify and cli do.
"""

import numpy as np

from . import binomials
from .characters import ROW_BLOCK, analysis_matrix, character_block, synthesis_matrix
from .errors import UsageError
from .group import NumberSystem, digit_matrix, digit_tensor, tensor_axis
from .transform import CoefficientVector, StepFunction, forward as fast_forward

def forward(f: StepFunction) -> CoefficientVector:
    """fhat(k) = (1/M_r) sum_cells f(x) conj(psi_k(x)) as a literal character sum.

    Each block of characters, ROW_BLOCK entries at most, meets f as
    conj(block @ conj(f)), which is block.conj() @ f without a conjugated
    copy of the block.
    """
    ns, r = f.ns, f.resolution
    cells = ns.cells_at(r)
    coeffs = np.empty(cells, dtype=np.complex128)
    chunk = max(1, min(cells, ROW_BLOCK // max(cells, 1)))
    f_conj = f.cells.conj()
    for start in range(0, cells, chunk):
        stop = min(cells, start + chunk)
        block = character_block(ns, start, stop, r)
        coeffs[start:stop] = np.conj(block @ f_conj) / cells
    return CoefficientVector(ns, r, coeffs)


def _per_digit(values: np.ndarray, ns: NumberSystem, r: int, analysis: bool,
               order) -> np.ndarray:
    """One (m_j x m_j) DFT per digit axis of the digit tensor, digit j in the given order."""
    order = range(r) if order is None else list(order)
    if sorted(order) != list(range(r)):
        raise UsageError(f"stage order {list(order)} is not a permutation of 0..{r - 1}")
    arr = digit_tensor(values, ns, r).copy()
    for j in order:
        m = ns.radix.radices[j]
        mat = analysis_matrix(m) if analysis else synthesis_matrix(m)
        axis = tensor_axis(r, j)
        arr = np.moveaxis(np.tensordot(mat, arr, axes=([1], [axis])), 0, axis)
    return arr.reshape(-1)


def staged_forward(f: StepFunction, order=None) -> CoefficientVector:
    """fhat as one small DFT per digit, applied in order (default 0..r-1)."""
    coeffs = _per_digit(f.cells, f.ns, f.resolution, True, order) / f.ns.cells_at(f.resolution)
    return CoefficientVector(f.ns, f.resolution, coeffs)


def staged_inverse(c: CoefficientVector, order=None) -> StepFunction:
    """f = sum_k fhat(k) psi_k as one small DFT per digit, applied in order."""
    return StepFunction(c.ns, c.resolution, _per_digit(c.coeffs, c.ns, c.resolution, False, order))


def convolve(f: StepFunction, g: StepFunction) -> StepFunction:
    """(f * g)(x) = (1/M_r) sum_t f(x - t) g(t), summed over the cells t."""
    r = max(f.resolution, g.resolution)
    ff, gg = f.lift(r), g.lift(r)
    cells = f.ns.cells_at(r)
    D = digit_matrix(f.ns, r)
    ms = np.array(f.ns.radix.radices[:r], dtype=np.int64)
    weights = np.array(f.ns.M[:r], dtype=np.int64)
    acc = np.zeros(cells, dtype=np.complex128)
    for t in range(cells):
        if gg.cells[t] == 0:
            continue
        idx = ((D - D[t]) % ms) @ weights
        acc += gg.cells[t] * ff.cells[idx]
    return StepFunction(f.ns, r, acc / cells)


def coset_rep(ns: NumberSystem, beta: int, k: int) -> int:
    """Cell index of Z_beta^(k), the representative of the beta-th coset of I_k.

    beta = sum_{j<k} x_j * (M_k / M_{j+1}) enumerates the cosets; the digits
    are recovered greedily from the largest weight down, so the map is a
    bijection from 0..M_k-1 onto the cells below M_k.
    """
    if not 0 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 0..{ns.resolution}")
    if not 0 <= beta < ns.M[k]:
        raise UsageError(f"coset index {beta} outside 0..{ns.M[k] - 1}")
    cell, rem = 0, beta
    for j in range(k):
        digit, rem = divmod(rem, ns.M[k] // ns.M[j + 1])
        cell += digit * ns.M[j]
    return cell


def dirichlet_table(ns: NumberSystem, n_max: int) -> np.ndarray:
    """The (n_max + 1) x M_N table of D_0 .. D_{n_max}, as cumulative character sums."""
    if not 0 <= n_max <= ns.cell_count:
        raise UsageError(f"table top {n_max} outside 0..{ns.cell_count}")
    out = np.zeros((n_max + 1, ns.cell_count), dtype=np.complex128)
    out[1:] = np.cumsum(character_block(ns, 0, n_max), axis=0)
    return out


def cesaro_mean_partial_sums(f: StepFunction, n: int, alpha: float) -> StepFunction:
    """sigma_n^{-alpha} f = (1/A_{n-1}^{-alpha}) sum_{nu=1}^{n} A_{n-nu}^{-alpha-1} S_nu f."""
    t0 = binomials.cesaro_table(-alpha, n - 1)
    t1 = binomials.cesaro_table(-alpha - 1, n)
    c = fast_forward(f)
    cells = f.ns.cells_at(f.resolution)
    psi = character_block(f.ns, 0, min(n, cells), f.resolution)
    running = np.zeros(cells, dtype=np.complex128)  # S_nu f, one character at a time
    acc = np.zeros(cells, dtype=np.complex128)
    for nu in range(1, n + 1):
        if nu <= cells:
            running = running + c.coeffs[nu - 1] * psi[nu - 1]
        acc += t1.a(n - nu) * running
    return StepFunction(f.ns, f.resolution, acc / t0.a(n - 1))


def partial_sum_rows(f: StepFunction, n_top: int) -> np.ndarray:
    """(n_top, M_r) rows S_1 f .. S_{n_top} f: one cumulative sum of the rows fhat(nu) psi_nu."""
    c = fast_forward(f).coeffs
    psi = character_block(f.ns, 0, n_top, f.resolution)
    return np.cumsum(c[:n_top, None] * psi, axis=0)


def cesaro_means_of_partial_sums(f: StepFunction, sums: np.ndarray, alpha: float):
    """sigma_n^{-alpha} f for n = 1 .. len(sums), as cesaro_mean_partial_sums defines it.

    sums holds the rows S_1 f .. S_{n_top} f of partial_sum_rows; mean n
    weighs the first n of them by A_{n-nu}^{-alpha-1}, nu = 1..n, in one
    contraction. The two binomial tables are built once, for n_top.
    """
    n_top = len(sums)
    t0 = binomials.cesaro_table(-alpha, n_top - 1)
    t1 = binomials.cesaro_table(-alpha - 1, n_top - 1)
    for n in range(1, n_top + 1):
        yield StepFunction(f.ns, f.resolution, t1.values[n - 1 :: -1] @ sums[:n] / t0.a(n - 1))
