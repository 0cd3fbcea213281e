"""The means, kernels and convolution built on transform.multiplier.

Each oracle below writes out, by hand, the order of operations of the
multiplier: fold f to k = minimal_resolution(cut) by summing the rows of
its cells reshaped to (M_r / M_k, M_k), transform at resolution k and
divide by M_r, weight, inverse at resolution k, and tile to f's
resolution. The weight rounds as (fhat * w) / A for a mean and w / A for
a kernel. The multiplier must reproduce these exactly, not merely to
rounding. The full-resolution form (forward f, zero the tail of the
spectrum, inverse at f's resolution) is kept as a second oracle at rel 1e-12.
The partial sum runs no transform; its oracle writes out the operations of
its block recursion instead, and the full-resolution form checks it too.
"""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vilenkin as vk
from vilenkin import binomials, families, kernels, oracles, transform
from vilenkin.transform import CoefficientVector, forward, inverse, synthesize

SRC = pathlib.Path(transform.__file__).parent


def _weighted(f, n, weight_of):
    M = len(f.cells)
    cut = min(n, M)
    k = transform.minimal_resolution(f.ns, cut)
    Mk = f.ns.cells_at(k)
    folded = f.cells.reshape(-1, Mk).sum(axis=0) if k < f.resolution else f.cells
    c = transform._staged(folded, f.ns, k, analysis=True) / M
    out = np.zeros(Mk, dtype=np.complex128)
    out[:cut] = weight_of(c[:cut], cut)
    return np.tile(inverse(CoefficientVector(f.ns, k, out)).cells, M // Mk)


def _weighted_full_resolution(f, n, weight_of):
    c = forward(f)
    cut = min(n, len(c.coeffs))
    out = np.zeros_like(c.coeffs)
    out[:cut] = weight_of(c.coeffs[:cut], cut)
    return inverse(CoefficientVector(f.ns, f.resolution, out)).cells


def _partial_weight(c, cut):
    return c


def _fejer_weight(n):
    return lambda c, cut: c * (n - np.arange(cut)) / n


def _cesaro_weight(n, alpha):
    t = binomials.cesaro_table(-alpha, n - 1)
    return lambda c, cut: c * t.values[n - 1 :: -1][:cut] / t.a(n - 1)


def _synthesized(ns, w, resolution):
    """sum_nu w[nu] psi_nu: padded to M_k in w's dtype, inverse at k = minimal_resolution(len(w)), tiled."""
    k = transform.minimal_resolution(ns, len(w))
    out = np.zeros(ns.cells_at(k), dtype=w.dtype)
    out[: len(w)] = w
    cells = inverse(CoefficientVector(ns, k, out)).cells
    return np.tile(cells, ns.cells_at(resolution) // len(cells))


def _synthesized_full_resolution(ns, w, resolution):
    out = np.zeros(ns.cells_at(resolution), dtype=np.complex128)
    out[: len(w)] = w
    return inverse(CoefficientVector(ns, resolution, out)).cells


def cesaro_kernel_weights(n, alpha):
    t = binomials.cesaro_table(-alpha, n - 1)
    return t.values[::-1] / t.a(n - 1)


def convolve_oracle(f, g):
    """The coarser operand's spectrum weighs the finer one's, at the coarser resolution."""
    fine, coarse = (f, g) if f.resolution >= g.resolution else (g, f)
    return _weighted(fine, len(coarse.cells), lambda c, cut: c * forward(coarse).coeffs)


def convolve_full_resolution(f, g):
    r = max(f.resolution, g.resolution)
    cf, cg = forward(f.lift(r)), forward(g.lift(r))
    return inverse(CoefficientVector(f.ns, r, cf.coeffs * cg.coeffs)).cells


def _close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


def _orders(ns):
    return sorted({1, 2, 3, ns.M[1], ns.M[2] - 1, ns.M[2] + 1, ns.cell_count - 1, ns.cell_count})


def _functions(ns, rng):
    # the coarse one carries fewer coefficients than most orders keep
    return [families.random_cells(ns, rng), families.random_cells(ns, rng, resolution=2)]


def test_means_bitwise(ns, rng):
    for f in _functions(ns, rng):
        means = []
        for n in _orders(ns):
            means.append((n, transform.fejer_mean(f, n), _fejer_weight(n)))
            means += [(n, transform.cesaro_mean(f, n, alpha), _cesaro_weight(n, alpha))
                      for alpha in (0.25, 0.5, 0.75)]
        for n, mean, weight_of in means:
            assert mean.resolution == f.resolution
            assert mean.cells.tobytes() == _weighted(f, n, weight_of).tobytes()
            assert _close(mean.cells, _weighted_full_resolution(f, n, weight_of))


def _view_matmul(K, values):
    """K @ values; a real K meets complex values on their float64 view, complex parts as columns."""
    if K.dtype.kind == "c" or values.dtype.kind != "c":
        return K @ values
    return (K @ values.view(np.float64)).view(np.complex128)


def _partial_sum_oracle(f, n):
    """S_n f by the operations of partial_sum's block recursion, written out as two walks.

    f is folded to k = minimal_resolution(n) like _weighted (the row sum,
    then every float times 1 / (M_r / M_k)). Down: the top block of the
    first k digits (P cells, analysis A, synthesis S, b = n // M_j0) gives
    X = (A[:rows] / P) @ g with rows = b, or b + 1 when n mod M_j0 > 0,
    whose row b is the next g, with n mod M_j0 and k = j0. Up: row b of
    each X takes the result from the block below, and the result is
    S[:, :rows] @ X. Tiled to f's resolution. n = 0 gives zeros and
    n >= M_r a copy, in float64 for real f on a Walsh grid, else complex128.
    """
    ns, M = f.ns, len(f.cells)
    real = f.cells.dtype.kind != "c" and set(ns.radix.radices) == {2}
    g = f.cells.astype(np.float64 if real else np.complex128)
    if n == 0 or n >= M:
        return np.zeros_like(g) if n == 0 else g
    k = transform.minimal_resolution(ns, n)
    Mk = ns.cells_at(k)
    if Mk < M:
        g = g.reshape(-1, Mk).sum(axis=0)
        g.view(np.float64)[:] *= 1.0 / (M // Mk)
    levels = []
    while n < Mk:
        j0 = transform._digit_blocks(ns.radix.radices[:k])[-1][0]
        S = transform._kronecker(ns.radix.radices[j0:k], False)
        A = transform._kronecker(ns.radix.radices[j0:k], True)
        b, low = divmod(n, ns.M[j0])
        rows = b + (low > 0)
        X = _view_matmul(A[:rows] / len(A), g.reshape(len(A), -1))
        levels.append((S[:, :rows], X, b))
        if not low:
            break
        g, n, k, Mk = X[b], low, j0, ns.M[j0]
    out = g  # S_{M_k} g = g: only when the walk never started, n = M_k
    for i, (S, X, b) in enumerate(reversed(levels)):
        if i:
            X[b] = out
        out = _view_matmul(S, X).reshape(-1)
    return np.tile(out, M // len(out))


def test_partial_sum_bitwise(ns, rng, staged_passes):
    # the block recursion makes no transform pass at all
    for f in _functions(ns, rng):
        for n in [0] + _orders(ns):
            staged_passes.clear()
            got = transform.partial_sum(f, n)
            assert staged_passes == []
            assert got.resolution == f.resolution
            assert got.cells.tobytes() == _partial_sum_oracle(f, n).tobytes()
            assert _close(got.cells, _weighted_full_resolution(f, n, _partial_weight))


def test_kernels_bitwise(ns):
    for n in _orders(ns):
        for resolution in (None, ns.resolution):
            r = transform.minimal_resolution(ns, n) if resolution is None else resolution
            kernels_of_n = [(kernels.cesaro_kernel(ns, n, alpha, resolution),
                             cesaro_kernel_weights(n, alpha)) for alpha in (0.25, 0.5, 0.75)]
            # real weights: float64 exactly on a Walsh grid, whatever the synthesis level
            real = ns.radix.max_radix == 2
            for kernel, w in kernels_of_n:
                assert kernel.resolution == r
                assert kernel.cells.dtype == (np.float64 if real else np.complex128)
                assert kernel.cells.tobytes() == _synthesized(ns, w, r).tobytes()
                assert _close(kernel.cells, _synthesized_full_resolution(ns, w, r))


def test_convolve_bitwise(ns, rng):
    f, coarse = _functions(ns, rng)
    g = families.random_cells(ns, rng)
    for a, b in ((f, g), (f, coarse), (coarse, g), (coarse, coarse)):
        got = transform.convolve(a, b)
        assert got.resolution == max(a.resolution, b.resolution)
        assert got.cells.tobytes() == convolve_oracle(a, b).tobytes()
        assert _close(got.cells, convolve_full_resolution(a, b))


def test_multiplier_drops_frequencies_past_the_weights(ns, rng):
    f = families.random_cells(ns, rng)
    weights = rng.standard_normal(ns.M[2])
    got = forward(transform.multiplier(f, weights, 4.0)).coeffs
    want = np.zeros(ns.cell_count, dtype=np.complex128)
    want[: ns.M[2]] = forward(f).coeffs[: ns.M[2]] * weights / 4.0
    assert np.max(np.abs(got - want)) < 1e-12


def _imports_oracles(tree) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "vilenkin.oracles" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in ("oracles", "vilenkin.oracles"):
                return True
            if module in ("", "vilenkin") and any(a.name == "oracles" for a in node.names):
                return True
    return False


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem not in ("oracles", "verify", "cli")))
def test_fast_paths_do_not_import_oracles(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert not _imports_oracles(tree)


def _fresh_import_loads(module: str) -> str:
    """Which of vilenkin.verify and vilenkin.oracles a fresh `import module` loads.

    A fresh interpreter: the test process has imported both already.
    """
    code = (f"import sys, {module}; "
            "print(sorted(m for m in ('vilenkin.verify', 'vilenkin.oracles') if m in sys.modules))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=60).stdout


def test_importing_the_package_loads_neither_verify_nor_oracles():
    assert _fresh_import_loads("vilenkin").strip() == "[]"


def test_importing_the_cli_loads_neither_verify_nor_oracles():
    # only run_verify reads verify and only run_bench reads oracles, each importing its own
    assert _fresh_import_loads("vilenkin.cli").strip() == "[]"


def test_import_guard_detects_an_oracle_import():
    for line in ("from . import oracles", "from .oracles import forward",
                 "import vilenkin.oracles", "from vilenkin import oracles"):
        assert _imports_oracles(ast.parse(line))


def _reads_name(tree, name) -> bool:
    """Whether the module imports name from anywhere or reads it as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
    return False


@pytest.mark.parametrize("module", ["characters", "kernels"])
def test_character_paths_do_not_read_digit_matrix(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert not _reads_name(tree, "digit_matrix")


def test_digit_matrix_guard_detects_a_read():
    for line in ("from .group import (NumberSystem,\n    digit_matrix)",
                 "from . import group\ngroup.digit_matrix(ns, 3)"):
        assert _reads_name(ast.parse(line), "digit_matrix")
    assert not _reads_name(ast.parse("from .group import digit_axis"), "digit_matrix")


@pytest.mark.parametrize("radices", [[2] * 7, [2, 3, 4, 2], [3, 5, 2]], ids=str)
def test_shared_partial_sums_match_the_partial_sum_oracle(radices):
    # the routes suite's reference: S_1 f .. S_n f built once, each mean a weighted sum of them
    ns = vk.number_system(radices)
    f = families.random_cells(ns, np.random.default_rng(5))
    n_top = min(40, ns.cell_count)
    sums = oracles.partial_sum_rows(f, n_top)
    for alpha in (0.25, 0.6):
        means = list(oracles.cesaro_means_of_partial_sums(f, sums, alpha))
        assert len(means) == n_top
        for n, got in enumerate(means, start=1):
            want = oracles.cesaro_mean_partial_sums(f, n, alpha).cells
            assert np.max(np.abs(got.cells - want)) <= 1e-12 * np.max(np.abs(want))
