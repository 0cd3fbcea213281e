"""Quadratic reference forms of the fast paths, for tests, `verify` and `bench`.

Each evaluates its definition literally; the library modules never import this.
"""

import numpy as np

from . import binomials
from .characters import character_block, vilenkin_on_cells
from .group import NumberSystem, digit_matrix
from .transform import CoefficientVector, StepFunction, forward as fast_forward

def forward(f: StepFunction) -> CoefficientVector:
    """fhat(k) = (1/M_r) sum_cells f(x) conj(psi_k(x)) as a literal character sum."""
    ns, r = f.ns, f.resolution
    cells = ns.cells_at(r)
    coeffs = np.empty(cells, dtype=np.complex128)
    chunk = max(1, min(cells, (1 << 22) // max(cells, 1)))
    for start in range(0, cells, chunk):
        stop = min(cells, start + chunk)
        block = character_block(ns, start, stop, r)
        coeffs[start:stop] = block.conj() @ f.cells / cells
    return CoefficientVector(ns, r, coeffs)


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


def dirichlet(ns: NumberSystem, n: int, resolution: int) -> StepFunction:
    """D_n = sum_{k<n} psi_k, one character at a time."""
    acc = np.zeros(ns.cells_at(resolution), dtype=np.complex128)
    for k in range(n):
        acc += vilenkin_on_cells(ns, k, resolution)
    return StepFunction(ns, resolution, acc)


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
