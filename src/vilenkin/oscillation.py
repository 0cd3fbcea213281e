"""Oscillation functionals on coset structure, Young functions, series tests.

omega_beta(k) is the value diameter of f over the beta-th coset of I_k;
omega(f, 1/M_k) = max_beta omega_beta(k) is the modulus of continuity,
O(f, M_k) sums beta >= 1, nu(M_k, f) sums every coset including beta = 0.

The cosets of I_k are the residues of the cell index mod M_k, so the cells
reshaped to (M_r/M_k, M_k) and transposed hold one coset per row, with
Z_beta^(k) + I_k in row coset_rep_cells(ns, k, r)[beta]. Row 0 is beta = 0,
and every reduction over the rows is a max or an fsum, which ignore order.

The difference condition at scale k shifts only the low k digits, so it is a
convolution over G_k applied to each of the M_r/M_k rows of M_k cells: the
staged passes run over k digits, not r, and the weight is M_k values. A
vanishing difference transforms to zero, so exact zeros stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError, ValidationError
from .group import coset_rep_cells
from .transform import StepFunction, _staged

_IMAG_TOL = 1e-13
_PAIR_BLOCK = 1 << 20


def _coset_values(f: StepFunction, k: int) -> np.ndarray:
    """(M_k, M_r/M_k) view: row c holds f on the coset whose low k digits index c."""
    if not 0 <= k <= f.resolution:
        raise UsageError(f"scale {k} outside 0..{f.resolution}")
    return f.cells.reshape(-1, f.ns.M[k]).T


def _row_diameters(rows: np.ndarray) -> np.ndarray:
    """Per-row diameter max |z_i - z_j|.

    A real dtype takes max - min at once; so do complex rows whose imaginary
    part is negligible.
    """
    if rows.dtype.kind != "c":
        return rows.max(axis=1) - rows.min(axis=1)
    if float(np.abs(rows.imag).max(initial=0.0)) <= _IMAG_TOL * max(1.0, float(np.abs(rows).max(initial=0.0))):
        re = rows.real
        return re.max(axis=1) - re.min(axis=1)
    # pairwise differences in column blocks of at most _PAIR_BLOCK entries
    width = max(1, _PAIR_BLOCK // rows.size)
    out = np.zeros(len(rows))
    for j in range(0, rows.shape[1], width):
        block = np.abs(rows[:, :, None] - rows[:, None, j : j + width]).max(axis=(1, 2))
        np.maximum(out, block, out=out)
    return out


def modulus_of_continuity(f: StepFunction, k: int) -> float:
    """omega(f, 1/M_k) = sup over x, t in I_k of |f(x - t) - f(x)|.

    Translating by t in I_k preserves digits below k, so the sup equals the
    largest coset diameter at scale k. For k >= resolution it is 0.
    """
    if k < 0:
        raise UsageError(f"scale {k} is negative")
    if k >= f.resolution:
        return 0.0
    return float(_row_diameters(_coset_values(f, k)).max())


@dataclass(frozen=True)
class OscillationProfile:
    """Per-scale oscillation summary for k = 0..resolution."""

    resolution: int
    scale_cells: tuple[int, ...]          # M_k
    omega: np.ndarray                     # max_beta omega_beta(k)
    total: np.ndarray                     # O(f, M_k) = sum_{beta>=1} omega_beta
    nu: np.ndarray                        # nu(M_k, f) = sum over all beta


def oscillation_profile(f: StepFunction) -> OscillationProfile:
    r = f.resolution
    omega = np.zeros(r + 1)
    total = np.zeros(r + 1)
    nu = np.zeros(r + 1)
    for k in range(r + 1):
        d = _row_diameters(_coset_values(f, k))
        omega[k] = d.max()
        nu[k] = math.fsum(d.tolist())
        total[k] = nu[k] - float(d[0])
    return OscillationProfile(
        resolution=r,
        scale_cells=tuple(f.ns.M[: r + 1]),
        omega=omega,
        total=total,
        nu=nu,
    )


@dataclass(frozen=True)
class YoungFunction:
    """The power Young function M(u) = u^p, p >= 1: convex, M(0) = 0, strictly increasing."""

    p: float

    def __post_init__(self):
        if self.p < 1.0:
            raise ValidationError(f"power Young function needs p >= 1, got {self.p}")

    def __call__(self, u: float) -> float:
        if u < 0:
            raise DomainError(f"Young function argument {u} is negative")
        return float(u) ** self.p

    def inverse(self, v: float) -> float:
        if v < 0:
            raise DomainError(f"Young function value {v} is negative")
        return float(v) ** (1.0 / self.p)


def young_oscillation_score(f: StepFunction, M: YoungFunction) -> float:
    """sup_k sum_{beta=1}^{M_k - 1} M(omega_beta(k))."""
    best = 0.0
    for k in range(f.resolution + 1):
        d = _row_diameters(_coset_values(f, k))
        best = max(best, math.fsum(map(M, d[1:].tolist())))
    return best


def difference_condition(f: StepFunction, k: int, alpha: float) -> float:
    """sup_x sum_{beta=1}^{M_k - 1} beta^{alpha-1} |f(x - Z_beta) - f(x - Z_beta - e_k)|.

    The sum is a group convolution over the low k digits: with
    d = |f - f(. - e_k)| and W the weight beta^{alpha-1} on the resolution-k
    cell of Z_beta^(k), it is sum_{t in G_k} d(x - t) W(t). Subtracting t
    changes only digits below k, and group addition has no carry, so each of
    the M_r/M_k rows of M_k cells (one value of the high digits) is convolved
    alone: the staged passes run over the k low digits, and W is M_k values.
    A vanishing d transforms to zero, so exact zeros stay exact.
    """
    ns = f.ns
    if not 1 <= k < f.resolution:
        raise UsageError(f"scale {k} outside 1..{f.resolution - 1}")
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    shifted = f.translate(ns.M[k])  # e_k
    d = np.abs(f.cells - shifted.cells)  # |f(y) - f(y - e_k)|
    weight = np.zeros(ns.M[k])
    weight[coset_rep_cells(ns, k, k)[1:]] = np.arange(1, ns.M[k], dtype=np.float64) ** (alpha - 1.0)
    spectrum = _staged(d, ns, k, analysis=True).reshape(-1, ns.M[k]) \
        * _staged(weight, ns, k, analysis=True)
    acc = _staged(spectrum.reshape(-1), ns, k, analysis=False)
    # a zero spectrum can synthesize -0.0 (0 times a negative root); + 0.0 makes it 0.0
    return float(acc.real.max() / ns.M[k]) + 0.0


@dataclass(frozen=True)
class SeriesReport:
    """Partial sums of a positive series plus the increments for diagnosis."""

    terms: np.ndarray
    partials: np.ndarray
    converges: bool | None = None

    @property
    def total(self) -> float:
        return float(self.partials[-1]) if len(self.partials) else 0.0


def oscillation_series(f: StepFunction, alpha: float) -> SeriesReport:
    """Terms nu(M_k, f) / M_k^{1-alpha} for k = 1..resolution."""
    if not 0.0 < alpha < 1.0:
        raise UsageError(f"alpha={alpha} outside (0, 1)")
    if f.resolution < 1:
        raise UsageError("a resolution-0 function has no scale k >= 1")
    prof = oscillation_profile(f)
    terms = np.array([prof.nu[k] / prof.scale_cells[k] ** (1.0 - alpha)
                      for k in range(1, prof.resolution + 1)])
    return SeriesReport(terms=terms, partials=np.cumsum(terms))


def young_series(M: YoungFunction, ns, alpha: float) -> SeriesReport:
    """Terms M_k^alpha * M^{-1}(1/M_k) for k = 1..N, with a decay verdict.

    converges is True when the trailing term ratios stay strictly below 1,
    the geometric-decay signature; for M(u) = u^p the ratio is
    (M_{k+1}/M_k)^{alpha - 1/p}, below 1 exactly when alpha < 1/p.
    """
    terms = np.array([ns.M[k] ** alpha * M.inverse(1.0 / ns.M[k])
                      for k in range(1, ns.resolution + 1)])
    converges = None
    if len(terms) >= 2:
        ratios = terms[1:] / terms[:-1]
        tail = ratios[len(ratios) // 2 :]
        converges = bool(np.all(tail < 0.999))
    return SeriesReport(terms=terms, partials=np.cumsum(terms), converges=converges)


def jensen_step_residual(f: StepFunction, M: YoungFunction) -> float:
    """Largest violation of M(nu_k / M_k) <= (1/M_k) sum_beta M(omega_beta(k)); <= 0 when Jensen holds."""
    worst = -np.inf
    for k in range(f.resolution + 1):
        d = _row_diameters(_coset_values(f, k))
        mk = f.ns.M[k]
        values = d.tolist()
        lhs = M(math.fsum(values) / mk)
        rhs = math.fsum(map(M, values)) / mk
        worst = max(worst, lhs - rhs)
    return float(worst)
