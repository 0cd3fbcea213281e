"""Built-in test-function families, shared by the CLI and the test suite.

Only the builders live here; config.family_from_spec reads a function spec.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .group import NumberSystem, coset_rep_cells, digit_axis, digit_tensor
from .characters import root_table
from .transform import StepFunction


def lacunary(ns: NumberSystem, coeffs, resolution: int | None = None) -> StepFunction:
    """f = sum_k c_k Re psi_{M_k}; coordinate k contributes c_k cos(2 pi x_k / m_k)."""
    c = np.asarray(coeffs, dtype=np.float64)
    r = ns.resolution if resolution is None else resolution
    if len(c) > r:
        raise UsageError(f"{len(c)} coefficients exceed resolution {r}")
    cells = digit_tensor(np.zeros(ns.cells_at(r)), ns, r)
    for k, ck in enumerate(c):
        if ck:
            cells += ck * digit_axis(root_table(ns.radix.radices[k]).real, ns, r, k)
    return StepFunction(ns, r, cells.reshape(-1))


def inverse_scale_coeffs(ns: NumberSystem) -> np.ndarray:
    """c_k = 1 / M_k, the standard summable lacunary profile."""
    return 1.0 / np.array(ns.M[: ns.resolution], dtype=np.float64)


def digit_indicator(ns: NumberSystem, level: int, coset: int = 0,
                    resolution: int | None = None) -> StepFunction:
    """Indicator of the coset Z_coset^(level) + I_level: the cells of one residue mod M_level."""
    r = ns.resolution if resolution is None else resolution
    if not 0 <= level <= r:
        raise UsageError(f"level {level} outside 0..{r}")
    if not 0 <= coset < ns.M[level]:
        raise UsageError(f"coset {coset} outside 0..{ns.M[level] - 1}")
    cells = np.zeros(ns.cells_at(r), dtype=bool)
    cells[coset_rep_cells(ns, level, r)[coset] :: ns.M[level]] = True
    return StepFunction(ns, r, cells)


def random_lipschitz(ns: NumberSystem, rng: np.random.Generator, bound: float = 1.0,
                     resolution: int | None = None) -> StepFunction:
    """f(x) = sum_k u_k x_k / (m_k M_k) with u_k uniform in [-bound, bound].

    Each digit change at scale k moves f by at most bound/M_k, a Lipschitz
    profile matched to the scale ladder. Term k is one broadcast of the
    values x_k u_k / (m_k M_k) on digit k's axis, as in lacunary.
    """
    r = ns.resolution if resolution is None else resolution
    u = rng.uniform(-bound, bound, size=r)
    cells = digit_tensor(np.zeros(ns.cells_at(r)), ns, r)
    for k in range(r):
        m = ns.radix.radices[k]
        cells += digit_axis(np.arange(m) * (u[k] / (m * ns.M[k])), ns, r, k)
    return StepFunction(ns, r, cells.reshape(-1))


def random_cells(ns: NumberSystem, rng: np.random.Generator,
                 resolution: int | None = None, real: bool = False) -> StepFunction:
    """Independent standard normal cells, complex128 unless real=True (then float64)."""
    r = ns.resolution if resolution is None else resolution
    cells = rng.standard_normal(ns.cells_at(r))
    if not real:
        cells = cells + 1j * rng.standard_normal(ns.cells_at(r))
    return StepFunction(ns, r, cells)
