"""Rademacher functions and Vilenkin characters; `verify` (verify.py) checks their identities.

r_k(x) = exp(2 pi i x_k / m_k) and psi_n = prod_k r_k^{n_k}. All values are
read from per-radix root-of-unity tables with the angle reduced to an index
mod m_k first, so equal angles always produce bit-identical complex values.

Each factor depends on one digit, so on the digit tensor (group owns the
axis rule) a character is an outer product: r_j^a is row a of
synthesis_matrix(m_j), a length-m_j vector broadcast on digit j's axis.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import UsageError, ValidationError
from .group import NumberSystem


@functools.lru_cache(maxsize=None)
def root_table(m: int) -> np.ndarray:
    """The m-th roots of unity exp(2 pi i a / m), a = 0..m-1.

    Quarter-turn angles are snapped to exact 1, -1, i, -i so the Walsh
    case (m = 2) stays exactly real and conjugation pairs cancel exactly.
    """
    a = np.arange(m)
    table = np.exp(2j * np.pi * a / m)
    exact = {0: 1.0, 1: 1j, 2: -1.0, 3: -1j}
    quads = a * 4 % m == 0
    table[quads] = [exact[q] for q in a[quads] * 4 // m]
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=None)
def synthesis_matrix(m: int) -> np.ndarray:
    """(m, m) matrix F[a, b] = exp(2 pi i a b / m), built from the root table."""
    a = np.arange(m)
    F = root_table(m)[np.outer(a, a) % m]
    F.setflags(write=False)
    return F


@functools.lru_cache(maxsize=None)
def analysis_matrix(m: int) -> np.ndarray:
    F = synthesis_matrix(m).conj()
    F.setflags(write=False)
    return F


def vilenkin_on_cells(ns: NumberSystem, n: int, resolution: int | None = None) -> np.ndarray:
    """psi_n evaluated on every cell at the given resolution: the one row of character_block.

    psi_n depends only on digits below the scale of n, so the requested
    resolution must cover every nonzero digit of n.
    """
    r = ns.resolution if resolution is None else resolution
    if not 0 <= n < ns.cell_count:
        raise ValidationError(f"character index {n} outside 0..{ns.cell_count - 1}")
    if n >= ns.M[r]:
        raise UsageError(f"character {n} does not live at resolution {r}")
    return character_block(ns, n, n + 1, r)[0]


ROW_BLOCK = 1 << 18  # entries in one block of reference rows: characters, D_n rows, block terms


def character_block(ns: NumberSystem, start: int, stop: int, resolution: int | None = None) -> np.ndarray:
    """Rows psi_n on all cells for n = start..stop-1, shape (stop-start, M_r).

    Row n is the outer product of the synthesis matrix rows F_j[n_j], grown
    from digit 0 upward in the output itself: the first M_j cells of a row
    hold the product of the low j digits, and slab x of the first M_{j+1}
    cells is that product times F_j[n_j][x], one broadcast multiply per
    digit value. The slabs are written from the top down, so slab 0, the
    product itself, is multiplied in place last. Each entry is multiplied
    in the order digit 0, 1, .. and always as the product so far times the
    new factor; swapping the operands changes the last bits on some grids.
    A digit that is 0 in every row copies the product to its other slabs.
    """
    r = ns.resolution if resolution is None else resolution
    if not 0 <= start <= stop <= ns.M[r]:
        raise UsageError(f"character range {start}..{stop} outside 0..{ns.M[r]}")
    rows = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, ns.cells_at(r)), dtype=np.complex128)
    out[:, :1] = 1.0
    for j in range(r):
        m, low = ns.radix.radices[j], ns.M[j]
        nj = (rows // low) % m
        product = out[:, :low]
        factors = synthesis_matrix(m)[nj] if np.any(nj) else None
        for x in range(m - 1, -1 if factors is not None else 0, -1):
            slab = out[:, x * low : (x + 1) * low]
            # ufuncs, not assignments: an assignment would copy the overlapping source first
            if factors is None:
                np.positive(product, out=slab)
            else:
                np.multiply(product, factors[:, x, None], out=slab)
    return out
