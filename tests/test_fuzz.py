"""Differential fuzz: the fast paths against their reference forms on drawn grids.

Grids are drawn as in test_dtype.py: radices m in 2..40, so a radix above
the block cap of the transform is drawn too, at most 4096 cells, and often
a run of 2s below the rest. Every comparison is at relative 1e-12 of the
largest reference value (test_transform._close), unless it says otherwise.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import characters, families, kernels, oracles, oscillation, transform

from test_dtype import _grids
from test_kernels import _coset_decay_loop, _majorant_loop
from test_oscillation import _difference_condition_loop, _difference_condition_translated
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


def _dirichlet_row(ns, n, resolution):
    """Row n of oracles.dirichlet_table on the first M_resolution cells, summed in row blocks.

    The table itself would hold (n + 1) x M_N entries, 256 MiB at 4096 cells.
    """
    cells = ns.cells_at(resolution)
    want = np.zeros(cells, dtype=np.complex128)
    step = max(1, characters.ROW_BLOCK // cells)
    for start in range(0, n, step):
        want += characters.character_block(ns, start, min(n, start + step), resolution).sum(axis=0)
    return want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dirichlet_matches_character_sums(data):
    # n anywhere in 0..M_N, lifted to any grid that carries it
    ns = vk.number_system(data.draw(_grids()))
    n = data.draw(st.integers(0, ns.cell_count))
    k = transform.minimal_resolution(ns, n)
    r = data.draw(st.integers(k, ns.resolution))

    got = kernels.dirichlet(ns, n, r)
    walsh = set(ns.radix.radices) == {2}
    assert got.resolution == r
    assert got.cells.dtype == (np.float64 if walsh else np.complex128)
    want = np.tile(_dirichlet_row(ns, n, k), ns.cells_at(r) // ns.cells_at(k))
    if n in ns.M:  # D_{M_k} = M_k 1_{I_k}, exactly
        assert np.array_equal(got.cells, np.where(np.arange(ns.cells_at(r)) % n, 0.0, n))
    if walsh:  # sums of +-1: the reference is exact too
        assert np.array_equal(got.cells, want)
    assert _close(got.cells, want)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_bound_scans_match_their_loops(data):
    # a few orders anywhere in 1..M_N, and for the coset decay any scale k
    ns = vk.number_system(data.draw(_grids()))
    alpha = data.draw(st.floats(0.05, 0.95))
    orders = data.draw(st.lists(st.integers(1, ns.cell_count), min_size=1, max_size=3))
    k = data.draw(st.integers(1, ns.resolution))

    majorant = kernels.majorant_ratio_scan(ns, alpha, orders)
    assert [rec.n for rec in majorant] == orders
    for rec in majorant:  # byte for byte, as test_kernels asks of the level loop
        ratio, arg, r = _majorant_loop(ns, alpha, rec.n)
        assert np.float64(rec.sup_ratio).tobytes() == np.float64(ratio).tobytes()
        assert (rec.argmax_cell, rec.resolution) == (arg, r)
    decay = kernels.coset_decay_scan(ns, alpha, k, orders)
    assert [rec.n for rec in decay] == orders
    for rec in decay:  # to rounding, as test_kernels asks of the per-beta loop
        want, cells = _coset_decay_loop(ns, alpha, k, rec.n)
        assert rec.sup_ratio == pytest.approx(want.max(), rel=1e-12)
        assert rec.argmax_cell in cells[want >= want.max() * (1 - 1e-12)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_difference_conditions_match_translate_and_loop(data):
    # several alphas at any scale of f, with calls on other (group, scale, alphas) between
    # them, so that cached weight spectra are hit and evicted
    ns = vk.number_system(data.draw(_grids()))
    assume(ns.resolution >= 2)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = families.random_cells(ns, rng, resolution=data.draw(st.integers(2, ns.resolution)),
                              real=data.draw(st.booleans()))
    k = data.draw(st.integers(1, f.resolution - 1))
    alphas = data.draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4))
    others = data.draw(st.lists(st.tuples(_grids(), st.floats(0.05, 0.95)), max_size=3))

    for step in range(2):  # the second pass reads the spectra the first one cached
        for radices, alpha in others:
            other = vk.number_system(radices)
            if other.resolution >= 2:
                g = families.random_cells(other, rng, real=True)
                oscillation.difference_conditions(g, other.resolution - 1, [alpha, 1 - alpha])
        if data.draw(st.booleans()):
            oscillation._cached_weight_spectrum.cache_clear()
        got = oscillation.difference_conditions(f, k, alphas)
        assert got == [_difference_condition_translated(f, k, a) for a in alphas]
    for value, alpha in zip(got, alphas):
        assert value == pytest.approx(_difference_condition_loop(f, k, alpha), rel=1e-12)
