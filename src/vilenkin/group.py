"""Bounded Vilenkin group arithmetic and mixed-radix indexing.

The group G_m is the product of cyclic groups Z_{m_0} x Z_{m_1} x ... with
coordinatewise addition mod m_k. Indices n < M_N and group elements are
identified with their mixed-radix digit vectors through the number system
M_0 = 1, M_{k+1} = m_k * M_k, so the cell index sum_j x_j M_j is the one
representation of a point: e_k is the index M_k, and x - t is the index of
the digit rows (digit_matrix) subtracted mod m. Functions downstream hold
one value per cell at that index. This module owns the digit/index
plumbing, the coset tables, and the one axis rule: read as a C-order
tensor, the flat cells put digit j on axis r-1-j (tensor_axis,
digit_tensor, digit_axis). Translation, reflection and every character act
on that tensor, and the transform on runs of its adjacent axes merged into
one. The cell index also makes the cosets of I_k the residues mod M_k, and
coset_rep_cells gives the residue of each Z_beta^(k).
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


@functools.lru_cache(maxsize=None)
def digit_matrix(ns: NumberSystem, resolution: int) -> np.ndarray:
    """(M_r, r) int64 array: row i holds the digits of cell index i."""
    r = resolution
    cells = ns.cells_at(r)
    idx = np.arange(cells, dtype=np.int64)
    out = np.empty((cells, r), dtype=np.int64)
    for j in range(r):
        out[:, j] = (idx // ns.M[j]) % ns.radix.radices[j]
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def coset_key_table(ns: NumberSystem, resolution: int, k: int) -> np.ndarray:
    """Coset index beta of every resolution-r cell at scale k: the inverse of coset_rep_cells."""
    if not 0 <= k <= resolution:
        raise UsageError(f"scale {k} outside 0..{resolution}")
    D = digit_matrix(ns, resolution)
    w = np.array([ns.M[k] // ns.M[j + 1] for j in range(k)], dtype=np.int64)
    if k == 0:
        return np.zeros(ns.cells_at(resolution), dtype=np.int64)
    key = D[:, :k] @ w
    key.setflags(write=False)
    return key
