"""The means, kernels and convolution built on transform.multiplier.

Each oracle below writes out forward transform, weight, inverse transform by
hand, in the order of operations the means and kernels have always used:
(fhat * w) / A for a mean, w / A for a kernel. The multiplier must reproduce
them exactly, not merely to rounding.
"""

import ast
import pathlib

import numpy as np
import pytest

from vilenkin import binomials, families, kernels, transform
from vilenkin.transform import CoefficientVector, forward, inverse, synthesize

SRC = pathlib.Path(transform.__file__).parent


def _weighted(f, n, weight_of):
    c = forward(f)
    cut = min(n, len(c.coeffs))
    out = np.zeros_like(c.coeffs)
    out[:cut] = weight_of(c.coeffs[:cut], cut)
    return inverse(CoefficientVector(f.ns, f.resolution, out))


def partial_sum_oracle(f, n):
    return _weighted(f, n, lambda c, cut: c)


def fejer_mean_oracle(f, n):
    return _weighted(f, n, lambda c, cut: c * (n - np.arange(cut)) / n)


def cesaro_mean_oracle(f, n, alpha):
    t = binomials.cesaro_table(-alpha, n - 1)
    return _weighted(f, n, lambda c, cut: c * t.values[n - 1 :: -1][:cut] / t.a(n - 1))


def fejer_kernel_oracle(ns, n, resolution):
    return synthesize(ns, (n - np.arange(n)) / n, resolution)


def cesaro_kernel_oracle(ns, n, alpha, resolution):
    t = binomials.cesaro_table(-alpha, n - 1)
    return synthesize(ns, t.values[::-1] / t.a(n - 1), resolution)


def convolve_oracle(f, g):
    r = max(f.resolution, g.resolution)
    cf, cg = forward(f.lift(r)), forward(g.lift(r))
    return inverse(CoefficientVector(f.ns, r, cf.coeffs * cg.coeffs))


def _orders(ns):
    return sorted({1, 2, 3, ns.M[1], ns.M[2] - 1, ns.M[2] + 1, ns.cell_count - 1, ns.cell_count})


def _functions(ns, rng):
    # the coarse one carries fewer coefficients than most orders keep
    return [families.random_cells(ns, rng), families.random_cells(ns, rng, resolution=2)]


def test_means_bitwise(ns, rng):
    for f in _functions(ns, rng):
        assert np.array_equal(transform.partial_sum(f, 0).cells, partial_sum_oracle(f, 0).cells)
        for n in _orders(ns):
            assert np.array_equal(transform.partial_sum(f, n).cells,
                                  partial_sum_oracle(f, n).cells)
            assert np.array_equal(transform.fejer_mean(f, n).cells,
                                  fejer_mean_oracle(f, n).cells)
            for alpha in (0.25, 0.5, 0.75):
                assert np.array_equal(transform.cesaro_mean(f, n, alpha).cells,
                                      cesaro_mean_oracle(f, n, alpha).cells)


def test_kernels_bitwise(ns):
    for n in _orders(ns):
        for resolution in (None, ns.resolution):
            r = transform.minimal_resolution(ns, n) if resolution is None else resolution
            assert np.array_equal(kernels.fejer_kernel(ns, n, resolution).cells,
                                  fejer_kernel_oracle(ns, n, r).cells)
            for alpha in (0.25, 0.5, 0.75):
                assert np.array_equal(kernels.cesaro_kernel(ns, n, alpha, resolution).cells,
                                      cesaro_kernel_oracle(ns, n, alpha, r).cells)


def test_convolve_bitwise(ns, rng):
    f, coarse = _functions(ns, rng)
    g = families.random_cells(ns, rng)
    for a, b in ((f, g), (f, coarse), (coarse, g)):
        assert np.array_equal(transform.convolve(a, b).cells, convolve_oracle(a, b).cells)


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


@pytest.mark.parametrize("module", ["transform", "kernels", "oscillation"])
def test_fast_paths_do_not_import_oracles(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert not _imports_oracles(tree)


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
