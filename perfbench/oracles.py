"""Reference computations the benchmark checks the package against.

Nothing here imports vilenkin. Transforms are `np.fft.fftn` on the digit
tensor (digit 0 is the fastest axis, so axes are the radices reversed),
Cesaro weights come from the recurrence A_j = A_{j-1} (j + a) / j, coset
diameters come from reshaping, and coset representatives are decoded
big-endian as in the README.
"""

from __future__ import annotations

import math

import numpy as np


def ladder(radices) -> list[int]:
    out = [1]
    for m in radices:
        out.append(out[-1] * m)
    return out


def spectrum(cells: np.ndarray, radices) -> np.ndarray:
    """fhat(nu) = (1/M) sum_x f(x) conj(psi_nu(x))."""
    t = np.asarray(cells, dtype=np.complex128).reshape(tuple(radices)[::-1])
    return np.fft.fftn(t).reshape(-1) / t.size


def synthesis(coeffs: np.ndarray, radices) -> np.ndarray:
    """sum_nu c(nu) psi_nu on every cell."""
    t = np.asarray(coeffs, dtype=np.complex128).reshape(tuple(radices)[::-1])
    return np.fft.ifftn(t).reshape(-1) * t.size


def cesaro_numbers(a: float, n: int) -> np.ndarray:
    """A_0^a .. A_{n-1}^a."""
    j = np.arange(1, n, dtype=np.float64)
    return np.concatenate(([1.0], np.cumprod((a + j) / j)))


def cesaro_weights(n: int, alpha: float, size: int) -> np.ndarray:
    """Multiplier of the order -alpha mean of length n, zero-padded to size."""
    A = cesaro_numbers(-alpha, n)
    w = np.zeros(size)
    cut = min(n, size)
    w[:cut] = A[n - 1 :: -1][:cut] / A[n - 1]
    return w


def fejer_weights(n: int, size: int) -> np.ndarray:
    w = np.zeros(size)
    cut = min(n, size)
    w[:cut] = (n - np.arange(cut)) / n
    return w


def partial_weights(n: int, size: int) -> np.ndarray:
    w = np.zeros(size)
    w[: min(n, size)] = 1.0
    return w


def n_schedule(radices, spec: dict) -> list[int]:
    """Orders of a config `n_schedule`; the default adds M_k - 1 and M_k + M_{k-1} to each M_k."""
    M = ladder(radices)
    kind = spec.get("kind", "scales_and_neighbors")
    if kind == "list":
        return [int(n) for n in spec["values"]]
    if kind == "scales":
        return M[1:]
    if kind == "scales_and_neighbors":
        values = set()
        for k in range(1, len(radices) + 1):
            values.update((M[k], M[k] - 1))
            if k >= 2 and M[k] + M[k - 1] <= M[-1]:
                values.add(M[k] + M[k - 1])
        return sorted(values)
    raise ValueError(f"no reference for schedule {kind!r}")


def minimal_resolution(radices, n: int) -> int:
    M = ladder(radices)
    return next(r for r, m in enumerate(M) if m >= n)


def scale(radices, n: int) -> int:
    """A with M_A <= n < M_{A+1}; the full resolution for n = M_N."""
    M = ladder(radices)
    if n >= M[-1]:
        return len(radices)
    return max(a for a in range(len(radices)) if M[a] <= n)


def cesaro_kernel(radices, n: int, alpha: float) -> np.ndarray:
    """K_n^{-alpha} on the coarsest grid that carries its frequencies."""
    r = minimal_resolution(radices, n)
    size = ladder(radices)[r]
    return synthesis(cesaro_weights(n, alpha, size), radices[:r])


def coset_rep_cells(radices, k: int, r: int) -> np.ndarray:
    """Resolution-r cell index of Z_beta^(k) for beta = 1..M_k-1.

    beta = sum_{j<k} x_j M_k / M_{j+1}, so digit j is (beta // w_j) mod m_j.
    """
    M = ladder(radices)
    beta = np.arange(1, M[k], dtype=np.int64)
    cells = np.zeros_like(beta)
    for j in range(min(k, r)):
        cells += ((beta // (M[k] // M[j + 1])) % radices[j]) * M[j]
    return cells


def coset_decay_ratios(radices, n: int, alpha: float, k: int) -> np.ndarray:
    """beta^{1-alpha} |K_n(Z_beta^(k))| / M_k for beta = 1..M_k-1."""
    K = cesaro_kernel(radices, n, alpha)
    r = minimal_resolution(radices, n)
    M = ladder(radices)
    beta = np.arange(1, M[k], dtype=np.float64)
    return np.abs(K[coset_rep_cells(radices, k, r)]) * beta ** (1.0 - alpha) / M[k]


def majorant_ratios(radices, n: int, alpha: float) -> np.ndarray:
    K = cesaro_kernel(radices, n, alpha)
    r = minimal_resolution(radices, n)
    M = ladder(radices)
    idx = np.arange(M[r])
    majorant = np.zeros(M[r])
    for l in range(min(scale(radices, n), r) + 1):
        majorant += M[l] ** (1.0 - alpha) * (idx % M[l] == 0)
    return np.abs(K) * abs(cesaro_numbers(-alpha, n)[n - 1]) / majorant


def coset_diameters(cells: np.ndarray, radices, k: int) -> np.ndarray:
    """Diameter of a real function on each coset of I_k, indexed by low digits.

    Index 0 is the coset of 0 (beta = 0); the rest come in another order
    than beta, which sums and maxima do not see.
    """
    M = ladder(radices)
    rows = np.asarray(cells).real.reshape(M[-1] // M[k], M[k])
    return rows.max(axis=0) - rows.min(axis=0)


def oscillation_profile(cells: np.ndarray, radices):
    """(omega, total, nu) for k = 0..r on a real function."""
    r = len(radices)
    omega, total, nu = np.zeros(r + 1), np.zeros(r + 1), np.zeros(r + 1)
    for k in range(r + 1):
        d = coset_diameters(cells, radices, k)
        omega[k] = d.max()
        nu[k] = math.fsum(d)
        total[k] = nu[k] - d[0]
    return omega, total, nu


def series_partials(cells: np.ndarray, radices, alpha: float) -> np.ndarray:
    """Partial sums of nu(M_k, f) / M_k^{1-alpha} for k = 1..r."""
    _, _, nu = oscillation_profile(cells, radices)
    M = ladder(radices)
    return np.cumsum([nu[k] / M[k] ** (1.0 - alpha) for k in range(1, len(radices) + 1)])


def difference_condition(cells: np.ndarray, radices, k: int, alpha: float) -> float:
    """sup_x sum_{beta>=1} beta^{alpha-1} |f(x - Z_beta) - f(x - Z_beta - e_k)|.

    Computed as one group convolution over the low digits: d = |f - f(. - e_k)|
    convolved with the weight beta^{alpha-1} placed on the representatives.
    """
    r = len(radices)
    M = ladder(radices)
    t = np.asarray(cells, dtype=np.complex128).reshape(tuple(radices)[::-1])
    d = np.abs(t - np.roll(t, 1, axis=r - 1 - k))
    grids = np.meshgrid(*[np.arange(m) for m in radices[:k][::-1]], indexing="ij")
    beta = sum(g * (M[k] // M[k - a]) for a, g in enumerate(grids))
    w = np.where(beta > 0, np.maximum(beta, 1).astype(np.float64) ** (alpha - 1.0), 0.0)
    low = tuple(range(r - k, r))
    acc = np.fft.ifftn(np.fft.fftn(d, axes=low) * np.fft.fftn(w), axes=low)
    return float(acc.real.max())


def close(got, want, rel: float = 1e-9, scale: float | None = None) -> bool:
    """|got - want| <= rel * scale elementwise; scale defaults to max(|want|, 1e-300)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    s = float(np.max(np.abs(want), initial=0.0)) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= rel * max(s, 1e-300)))
