"""Oscillation functionals on coset structure, Young functions, series tests.

omega_beta(k) is the value diameter of f over the beta-th coset of I_k;
omega(f, 1/M_k) = max_beta omega_beta(k) is the modulus of continuity,
O(f, M_k) sums beta >= 1, nu(M_k, f) sums every coset including beta = 0.

The cosets of I_k are the residues of the cell index mod M_k, so the cells
reshaped to (M_r/M_k, M_k) and transposed hold one coset per row, with
Z_beta^(k) + I_k in row coset_rep_cells(ns, k, r)[beta]. Row 0 is beta = 0,
and every reduction over the rows is a max or an fsum, which ignore order.

Real values (complex ones by their real part when the imaginary part is
negligible) take every level's diameters from one ladder of coset extremes:
hi_k is hi_{k+1} reshaped to (m_k, M_k) and maxed down its columns, from
hi_r = the cells, and lo_k alike with min; max and min are exact.

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


def _real_part(values: np.ndarray) -> np.ndarray | None:
    """Real values, or the real part of complex ones whose imaginary part is negligible.

    Negligible is relative to the largest finite |value|, so an infinite
    cell does not make every imaginary part negligible.
    """
    if values.dtype.kind == "c":
        size = np.abs(values)
        scale = float(size.max(initial=0.0, where=np.isfinite(size)))
        if not float(np.abs(values.imag).max(initial=0.0)) <= _IMAG_TOL * max(1.0, scale):
            return None
    return values.real


def _row_diameters(rows: np.ndarray) -> np.ndarray:
    """Per-row diameter max |z_i - z_j|: max - min when _real_part reads the rows as real."""
    re = _real_part(rows)
    if re is not None:
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


def coset_extremes(f: StepFunction) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """[(hi_k, lo_k) for k = 0..r], f's max and min per residue mod M_k; None if f is complex."""
    hi = lo = _real_part(f.cells)
    if hi is None:
        return None
    ladder = [(hi, lo)]
    for k in range(f.resolution - 1, -1, -1):
        hi = hi.reshape(-1, f.ns.M[k]).max(axis=0)
        lo = lo.reshape(-1, f.ns.M[k]).min(axis=0)
        ladder.append((hi, lo))
    return ladder[::-1]


@dataclass(frozen=True)
class OscillationProfile:
    """Per-scale oscillation summary for k = 0..resolution."""

    resolution: int
    scale_cells: tuple[int, ...]          # M_k
    omega: np.ndarray                     # max_beta omega_beta(k)
    total: np.ndarray                     # O(f, M_k) = sum_{beta>=1} omega_beta
    nu: np.ndarray                        # nu(M_k, f) = sum over all beta

    def series(self, alpha: float) -> "SeriesReport":
        """Terms nu(M_k, f) / M_k^{1-alpha} for k = 1..resolution: oscillation_series."""
        if not 0.0 < alpha < 1.0:
            raise UsageError(f"alpha={alpha} outside (0, 1)")
        if self.resolution < 1:
            raise UsageError("a resolution-0 function has no scale k >= 1")
        terms = np.array([self.nu[k] / self.scale_cells[k] ** (1.0 - alpha)
                          for k in range(1, self.resolution + 1)])
        return SeriesReport(terms=terms, partials=np.cumsum(terms))


def oscillation_profile(f: StepFunction) -> OscillationProfile:
    return _profile(f, coset_extremes(f))


def _profile(f: StepFunction, extremes) -> OscillationProfile:  # extremes = coset_extremes(f)
    r = f.resolution
    omega, total, nu = np.zeros((3, r + 1))
    for k in range(r + 1):
        d = _row_diameters(_coset_values(f, k)) if extremes is None else np.subtract(*extremes[k])
        omega[k] = d.max()
        nu[k] = math.fsum(d.tolist()) if d.any() else 0.0  # level r is all 0 for finite f
        total[k] = nu[k] - float(d[0])
    return OscillationProfile(resolution=r, scale_cells=tuple(f.ns.M[: r + 1]),
                              omega=omega, total=total, nu=nu)


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
    """sup_x sum_{beta=1}^{M_k - 1} beta^{alpha-1} |f(x - Z_beta) - f(x - Z_beta - e_k)|."""
    return difference_conditions(f, k, [alpha])[0]


def difference_conditions(f: StepFunction, k: int, alphas) -> list[float]:
    """difference_condition(f, k, alpha) for each alpha of the sequence alphas.

    The sum is a group convolution over the low k digits: with
    d = |f - f(. - e_k)| and W the weight beta^{alpha-1} on the resolution-k
    cell of Z_beta^(k), it is sum_{t in G_k} d(x - t) W(t). Subtracting t
    changes only digits below k, and group addition has no carry, so each of
    the M_r/M_k rows of M_k cells (one value of the high digits) is convolved
    alone: the staged passes run over the k low digits, and W is M_k values.
    d (f.translate(M_k)'s pairs, by one flat and one digit-0 slab difference)
    and its spectrum serve every alpha; each alpha adds one weight product
    and one synthesis.
    """
    ns = f.ns
    if not 1 <= k < f.resolution:
        raise UsageError(f"scale {k} outside 1..{f.resolution - 1}")
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise UsageError(f"alpha={alpha} outside (0, 1)")
    mk, cells = ns.M[k], f.cells
    d = np.empty_like(cells)  # f(y) - f(y - e_k): y - M_k, but y + (m_k - 1) M_k at digit 0
    np.subtract(cells[mk:], cells[:-mk], out=d[mk:])
    view, slab = cells.reshape(-1, ns.radix.radices[k], mk), d.reshape(-1, ns.radix.radices[k], mk)
    np.subtract(view[:, 0], view[:, -1], out=slab[:, 0])
    spectrum = _staged(np.abs(d), ns, k, analysis=True).reshape(-1, mk)
    out, product = [], np.empty_like(spectrum)  # one buffer for every alpha's product
    for alpha in alphas:
        weight = np.zeros(mk)
        weight[coset_rep_cells(ns, k, k)[1:]] = np.arange(1, mk, dtype=np.float64) ** (alpha - 1.0)
        np.multiply(spectrum, _staged(weight, ns, k, analysis=True), out=product)
        acc = _staged(product.reshape(-1), ns, k, analysis=False)
        # a zero spectrum can synthesize -0.0 (0 times a negative root); + 0.0 makes it 0.0
        out.append(float(acc.real.max() / mk) + 0.0)
    return out


@dataclass(frozen=True)
class SeriesReport:
    """Partial sums of a positive series plus the increments for diagnosis."""

    terms: np.ndarray
    partials: np.ndarray
    converges: bool | None = None


def oscillation_series(f: StepFunction, alpha: float) -> SeriesReport:
    """Terms nu(M_k, f) / M_k^{1-alpha} for k = 1..resolution: oscillation_profile(f).series."""
    return oscillation_profile(f).series(alpha)


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
