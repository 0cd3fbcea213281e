"""The dtype follows the data: float64 in, float64 out on an all-radix-2 grid; complex128 otherwise.

A real f runs the transform in real arithmetic exactly when every radix of
the grid is 2 (then every Kronecker block is real), whatever the resolution
the transform runs at; otherwise it is taken as complex once, at the
transform's entry. Either way the result equals, to rounding, the same call
on f taken as complex.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import characters, config, families, oscillation
from vilenkin.transform import (CoefficientVector, StepFunction, cesaro_means, convolve,
                                forward, inverse, multiplier, synthesize)

from test_oscillation import _difference_condition_full  # the np.fft.fftn reference

MAX_CELLS = 4096


@st.composite
def _grids(draw):
    """Radix tuples with m in 2..40 and at most 4096 cells: a run of 2s, then (often) any radices."""
    radices, cells = [], 1
    for _ in range(draw(st.integers(0, 12))):
        radices.append(2)
        cells *= 2
    while (not radices or draw(st.booleans())) and cells * 2 <= MAX_CELLS:
        radices.append(draw(st.integers(2, min(40, MAX_CELLS // cells))))
        cells *= radices[-1]
    return radices


def _dtype(ns):
    """The dtype of a real input's result: float64 on a Walsh grid, complex128 otherwise."""
    return np.float64 if set(ns.radix.radices) == {2} else np.complex128


def _matches(got, want, dtype):
    assert got.dtype == dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_real_input_matches_complex_and_keeps_its_dtype(data):
    ns = vk.number_system(data.draw(_grids()))
    r = data.draw(st.integers(0, ns.resolution))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = StepFunction(ns, r, rng.standard_normal(ns.cells_at(r)))
    fc = StepFunction(ns, r, f.cells + 0j)
    alpha = data.draw(st.floats(0.05, 0.95))

    c, cc = forward(f), forward(fc)
    _matches(c.coeffs, cc.coeffs, _dtype(ns))
    _matches(inverse(c).cells, inverse(cc).cells, _dtype(ns))

    weights = rng.standard_normal(data.draw(st.integers(1, ns.cells_at(r))))
    _matches(multiplier(f, weights, 3.0).cells, multiplier(fc, weights, 3.0).cells, _dtype(ns))
    real = synthesize(ns, weights).cells
    _matches(real, synthesize(ns, weights + 0j).cells, _dtype(ns))
    imag = rng.standard_normal(len(weights))
    _matches(synthesize(ns, weights + 1j * imag).cells,
             real + 1j * synthesize(ns, imag).cells, np.complex128)

    orders = data.draw(st.lists(st.integers(1, ns.cell_count), min_size=1, max_size=4))
    for n, got, want in zip(orders, cesaro_means(f, orders, alpha),
                            cesaro_means(fc, orders, alpha)):
        _matches(got.cells, want.cells, _dtype(ns))

    rg = data.draw(st.integers(0, ns.resolution))
    g = StepFunction(ns, rg, rng.standard_normal(ns.cells_at(rg)))
    gc = StepFunction(ns, rg, g.cells + 0j)
    _matches(convolve(f, g).cells, convolve(fc, gc).cells, _dtype(ns))
    # a complex operand makes the product complex
    h = StepFunction(ns, rg, g.cells + 1j * rng.standard_normal(ns.cells_at(rg)))
    _matches(convolve(f, h).cells, convolve(fc, h).cells, np.complex128)

    if r >= 2:
        k = data.draw(st.integers(1, r - 1))
        got = oscillation.difference_condition(f, k, alpha)
        assert got == pytest.approx(oscillation.difference_condition(fc, k, alpha), rel=1e-12)
        assert got == pytest.approx(_difference_condition_full(f, k, alpha), rel=1e-12)


@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2]], ids=str)
def test_values_keep_their_kind(radices, tmp_path):
    ns = vk.number_system(radices)
    r, cells = ns.resolution, ns.cell_count
    for values, dtype in ((np.arange(cells), np.float64), (np.ones(cells, dtype=bool), np.float64),
                          (np.ones(cells, dtype=np.float32), np.float64),
                          (np.ones(cells), np.float64), (np.ones(cells) + 0j, np.complex128)):
        assert StepFunction(ns, r, values).cells.dtype == dtype
        assert CoefficientVector(ns, r, values).coeffs.dtype == dtype
    rng = np.random.default_rng(0)
    real = [families.lacunary(ns, families.inverse_scale_coeffs(ns)),
            families.digit_indicator(ns, 1, 1), families.random_lipschitz(ns, rng),
            families.random_cells(ns, rng, real=True)]
    assert all(f.cells.dtype == np.float64 for f in real)
    assert families.random_cells(ns, rng).cells.dtype == np.complex128
    # the characters and the file family stay complex on every grid
    assert characters.vilenkin_on_cells(ns, 1).dtype == np.complex128
    path = tmp_path / "f.json"
    path.write_text('{"radix": %s, "resolution": 1, "cells": %s}'
                    % (list(radices), [[1.0, 0.0]] * radices[0]), encoding="utf-8")
    _, build = config.family_from_spec(ns, {"family": "file", "path": str(path)})
    assert build(None).cells.dtype == np.complex128
