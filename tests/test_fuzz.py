"""Differential fuzz: the fast paths against their reference forms on drawn grids.

Grids are drawn as in test_dtype.py: radices m in 2..40, so a radix above
the block cap of the transform is drawn too, at most 4096 cells, and often
a run of 2s below the rest. Every comparison is at relative 1e-12 of the
largest reference value (test_transform._close).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import characters, families, oracles, transform

from test_dtype import _grids
from test_transform import _close, _oracle_rows


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_staged_matches_per_digit_oracle(data):
    # zero to three rows of real or complex values, analysis or synthesis, at any resolution
    ns = vk.number_system(data.draw(_grids()))
    k = data.draw(st.integers(0, ns.resolution))
    rows = data.draw(st.integers(0, 3))
    analysis, real = data.draw(st.booleans()), data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cells = ns.cells_at(k)
    values = rng.standard_normal((rows, cells))
    if not real:
        values = values + 1j * rng.standard_normal((rows, cells))

    got = transform._staged(values.reshape(-1), ns, k, analysis)
    walsh = set(ns.radix.radices) == {2}
    assert got.dtype == (np.float64 if real and walsh else np.complex128)
    assert got.shape == (rows * cells,) and got.flags.c_contiguous
    if rows:
        assert _close(got, _oracle_rows(values, ns, k, analysis, rng))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_partial_sum_matches_character_sums(data):
    # f of any resolution, real or complex values, n anywhere in 0..M_N
    ns = vk.number_system(data.draw(_grids()))
    resolution = data.draw(st.integers(0, ns.resolution))
    real = data.draw(st.booleans())
    n = data.draw(st.integers(0, ns.cell_count))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = families.random_cells(ns, rng, resolution=resolution, real=real)

    got = transform.partial_sum(f, n)
    walsh = set(ns.radix.radices) == {2}
    assert got.cells.dtype == (np.float64 if real and walsh else np.complex128)
    assert got.resolution == resolution
    fhat = oracles.forward(f).coeffs
    cut, cells = min(n, len(fhat)), len(fhat)
    want = np.zeros(cells, dtype=np.complex128)
    step = max(1, characters.ROW_BLOCK // cells)  # sum_{nu < n} fhat(nu) psi_nu, in row blocks
    for start in range(0, cut, step):
        stop = min(cut, start + step)
        want += fhat[start:stop] @ characters.character_block(ns, start, stop, resolution)
    assert _close(got.cells, want)
