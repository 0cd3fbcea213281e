"""Bounded Vilenkin group arithmetic and mixed-radix indexing.

G_m is the product of the cyclic groups Z_{m_k}, added coordinatewise. Through the
ladder M_0 = 1, M_{k+1} = m_k M_k, the cell index sum_j x_j M_j is the one
representation of a point (e_k is the index M_k), and functions hold one value per
cell. The one axis rule: read as a C-order tensor, the flat cells put digit j on
axis r-1-j (tensor_axis, digit_tensor, digit_axis); translation, reflection and the
characters act on that tensor, the transform on runs of adjacent axes. The cosets of
I_k are the residues mod M_k: coset_rep_cells gives the cell of each Z_beta^(k),
coset_key_table the beta of each cell. Tables are written from per-digit pieces, with no
per-cell division. Every scan row reads coset_rep_cells and trailing_zero_digits, so they
are cached; digit_matrix (reference code only) and coset_key_table never are: each call builds one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError, ValidationError

# Cell counts must stay addressable as signed 64-bit indices.
_INDEX_LIMIT = 2**62


@dataclass(frozen=True)
class RadixSequence:
    """Generating radix vector m_0 .. m_{N-1}, every entry at least 2."""

    radices: tuple[int, ...]

    def __post_init__(self):
        if len(self.radices) == 0:
            raise ValidationError("radix sequence must be nonempty")
        for k, m in enumerate(self.radices):
            if not isinstance(m, int) or isinstance(m, bool):
                raise ValidationError(f"radix m_{k}={m!r} is not an integer")
            if m < 2:
                raise ValidationError(f"radix m_{k}={m} is below 2")

    def __len__(self) -> int:
        return len(self.radices)

    @property
    def max_radix(self) -> int:
        return max(self.radices)


@dataclass(frozen=True)
class NumberSystem:
    """Radix vector plus the ladder M_0=1, M_{k+1} = m_k M_k."""

    radix: RadixSequence
    M: tuple[int, ...]

    @property
    def resolution(self) -> int:
        return len(self.radix)

    @property
    def cell_count(self) -> int:
        return self.M[-1]

    def cells_at(self, resolution: int) -> int:
        if not 0 <= resolution <= self.resolution:
            raise UsageError(f"resolution {resolution} outside 0..{self.resolution}")
        return self.M[resolution]


def build_number_system(radix: RadixSequence) -> NumberSystem:
    ladder = [1]
    for m in radix.radices:
        ladder.append(ladder[-1] * m)
        if ladder[-1] > _INDEX_LIMIT:
            raise ConfigurationError(
                f"cell count {ladder[-1]} exceeds the addressable limit {_INDEX_LIMIT}"
            )
    return NumberSystem(radix=radix, M=tuple(ladder))


def number_system(radices) -> NumberSystem:
    """Shorthand: build a NumberSystem straight from an iterable of radices."""
    return build_number_system(RadixSequence(tuple(int(m) for m in radices)))


def digits_of(ns: NumberSystem, n: int) -> tuple[int, ...]:
    """Mixed-radix digits n_0 .. n_{N-1} of an index 0 <= n < M_N."""
    if not 0 <= n < ns.cell_count:
        raise UsageError(f"index {n} outside 0..{ns.cell_count - 1}")
    out = []
    for m in ns.radix.radices:
        out.append(n % m)
        n //= m
    return tuple(out)


def scale_of(ns: NumberSystem, n: int) -> int:
    """The A with M_A <= n < M_{A+1}; requires n >= 1."""
    if n < 1 or n >= ns.cell_count:
        raise UsageError(f"index {n} outside 1..{ns.cell_count - 1}")
    A = 0
    while ns.M[A + 1] <= n:
        A += 1
    return A


@functools.lru_cache(maxsize=None)
def coset_rep_cells(ns: NumberSystem, k: int, resolution: int) -> np.ndarray:
    """Resolution-r cell index of Z_beta^(k) for every beta = 0..M_k-1.

    Digit j of Z_beta^(k) is (beta // (M_k/M_{j+1})) mod m_j for j < k: the
    outer sum of arange(m_j) * M_j over the digits, digit 0 outermost, with 0
    for a digit at or above the resolution. oracles.coset_rep decodes one beta.
    """
    if not 0 <= k <= ns.resolution:
        raise UsageError(f"scale {k} outside 0..{ns.resolution}")
    if not 0 <= resolution <= ns.resolution:
        raise UsageError(f"resolution {resolution} outside 0..{ns.resolution}")
    cells = np.zeros(1, dtype=np.int64)
    for j, m in enumerate(ns.radix.radices[:k]):
        term = np.arange(m, dtype=np.int64) * (ns.M[j] if j < resolution else 0)
        cells = np.add.outer(cells, term).reshape(-1)
    cells.setflags(write=False)
    return cells


@functools.lru_cache(maxsize=None)
def trailing_zero_digits(ns: NumberSystem, resolution: int) -> np.ndarray:
    """v(x) for every resolution-r cell x: how many of its low digits are 0 (r for x = 0).

    x % M_l == 0 exactly when l <= v(x); the multiples of M_l are every M_l-th cell.
    """
    v = np.zeros(ns.cells_at(resolution), dtype=np.intp)
    for l in range(1, resolution + 1):
        v[:: ns.M[l]] += 1
    v.setflags(write=False)
    return v


def tensor_axis(resolution: int, j: int) -> int:
    """Axis of digit j in the digit tensor: a C-order reshape of sum_j x_j M_j puts it at r-1-j."""
    return resolution - 1 - j


def digit_tensor(values: np.ndarray, ns: NumberSystem, resolution: int) -> np.ndarray:
    """View of (..., M_r) cell values as (...,) + the digit tensor, radices in reverse."""
    return values.reshape(values.shape[:-1] + tuple(ns.radix.radices[:resolution][::-1]))


def digit_axis(values: np.ndarray, ns: NumberSystem, resolution: int, j: int) -> np.ndarray:
    """View of (..., m_j) per-digit-value entries that broadcasts on digit j's tensor axis."""
    shape = [1] * resolution
    shape[tensor_axis(resolution, j)] = ns.radix.radices[j]
    return values.reshape(values.shape[:-1] + tuple(shape))


def digit_matrix(ns: NumberSystem, resolution: int) -> np.ndarray:
    """(M_r, r) int64 digits of every cell, never cached: row q M_h + i holds i's, then q's."""
    r, h = resolution, resolution // 2  # split: one broadcast write of np.indices per half
    out = np.empty((ns.cells_at(r), r), dtype=np.int64)
    view = out.reshape(ns.M[r] // ns.M[h], ns.M[h], r)
    for lo, hi, part in ((0, h, view[:, :, :h]), (h, r, view[:, :, h:].swapaxes(0, 1))):
        digits = np.indices(ns.radix.radices[lo:hi][::-1], dtype=np.int64)
        part[...] = digits.reshape(hi - lo, ns.M[hi] // ns.M[lo])[::-1].T
    out.setflags(write=False)
    return out


def coset_key_table(ns: NumberSystem, resolution: int, k: int) -> np.ndarray:
    """Coset index beta of every resolution-r cell at scale k: the inverse of coset_rep_cells.

    beta = sum_{j<k} x_j M_k/M_{j+1} repeats every M_k cells; never cached. The first M_k keys
    are built in place: slab a of the first M_{j+1} is the first M_j plus a M_k/M_{j+1}.
    No library code calls it; it stays only because the perfbench set-ups warm it.
    """
    if not 0 <= k <= resolution <= ns.resolution:
        raise UsageError(f"scale {k} or resolution {resolution} outside 0..{ns.resolution}")
    key = np.zeros(ns.M[resolution], dtype=np.int64)
    for j, m in enumerate(ns.radix.radices[:k]):
        for a in range(1, m):  # slab by slab: a broadcast add can buffer both operands
            np.add(key[: ns.M[j]], a * (ns.M[k] // ns.M[j + 1]), out=key[a * ns.M[j] :][: ns.M[j]])
    key.reshape(-1, ns.M[k])[1:] = key[: ns.M[k]]
    key.setflags(write=False)
    return key
