"""Input integrity and memory budgets of the transform paths.

Every public path leaves the bytes of its input arrays as they were, and
returns arrays that share no memory with them or with one another. A call
may reuse only buffers it owns: the fold or converted copy it made, or an
array a caller hands to _staged with consume=True. The budgets bound the
transient peak of a call above its inputs, in arrays of M cells, by
tracemalloc (numpy reports its data buffers to it).
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import vilenkin as vk
from vilenkin import binomials, kernels, oscillation, transform
from vilenkin.transform import CoefficientVector, StepFunction, _digit_blocks

# Walsh grids of 1 to 4 Kronecker blocks (5 radix-2 digits a block), radix-8
# grids of 1 to 5 blocks, a grid of two radices above the block cap, and a
# mixed grid: the block count's parity decides which buffer holds a result.
WALSH = [[2] * 5, [2] * 7, [2] * 12, [2] * 16]
OCTAL = [[8] * b for b in range(1, 6)]
GRIDS = WALSH + OCTAL + [[64, 64], [2, 3, 4, 2, 3, 3, 3]]


def test_grids_cover_one_to_five_blocks():
    counts = {len(_digit_blocks(tuple(radices))) for radices in GRIDS}
    assert counts >= {1, 2, 3, 4, 5}
    assert {len(_digit_blocks(tuple(radices))) for radices in WALSH} == {1, 2, 3, 4}


def _arrays(result) -> list:
    if isinstance(result, StepFunction):
        return [result.cells]
    if isinstance(result, CoefficientVector):
        return [result.coeffs]
    if isinstance(result, np.ndarray):
        return [result]
    if isinstance(result, (list, tuple)):
        return [a for item in result for a in _arrays(item)]
    return []  # floats and scan records hold no array


def _untouched(call, *inputs):
    """call(), checking that the inputs keep their bytes and share no memory with a result."""
    before = [(a.dtype, a.tobytes()) for a in inputs]
    result = call()
    if not isinstance(result, (StepFunction, CoefficientVector, np.ndarray, list)):
        result = list(result)  # an iterator of means
    assert [(a.dtype, a.tobytes()) for a in inputs] == before
    outs = _arrays(result)
    for out, a in itertools.product(outs, inputs):
        assert not np.shares_memory(out, a)
    for x, y in itertools.combinations(outs, 2):
        assert not np.shares_memory(x, y)
    return result


def _inputs(radices, real):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(len(radices) + 10 * real)
    M = ns.cell_count
    f = vk.families.random_cells(ns, rng, real=real)
    return ns, rng, M, f


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("radices", GRIDS, ids=str)
def test_transform_paths_leave_their_inputs_alone(radices, real):
    ns, rng, M, f = _inputs(radices, real)
    R = ns.resolution
    c = CoefficientVector(ns, R, f.cells)
    _untouched(lambda: vk.forward(f), f.cells)
    _untouched(lambda: vk.inverse(c), c.coeffs)
    for weights in (rng.standard_normal(M // 3 + 1), rng.standard_normal(M) + 1j,
                    np.arange(M, dtype=np.int64)):
        _untouched(lambda: vk.multiplier(f, weights, 3.0), f.cells, weights)
    for n in (1, M // 3 + 1, M):
        _untouched(lambda: vk.fejer_mean(f, n), f.cells)
        _untouched(lambda: vk.partial_sum(f, n), f.cells)
    for r in sorted({0, R // 2, R}):
        g = StepFunction(ns, r, rng.standard_normal(ns.cells_at(r)) + (0 if real else 1j))
        _untouched(lambda: vk.convolve(f, g), f.cells, g.cells)  # g the coarser
        _untouched(lambda: vk.convolve(g, f), f.cells, g.cells)
        _untouched(lambda: g.lift(R), g.cells)
    weights = rng.standard_normal(M // 2 + 1)
    _untouched(lambda: vk.synthesize(ns, weights, R), weights)
    rows = rng.standard_normal((3, M)) + (0 if real else 1j)
    _untouched(lambda: transform.synthesize_rows(ns, rows, R), rows)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("radices", GRIDS, ids=str)
def test_means_over_shared_spectra_match_one_order_means(radices, real):
    # orders at one resolution read one spectrum: a mean that wrote into it
    # would change every later order's bytes
    ns, _, M, f = _inputs(radices, real)
    orders = sorted({1, 2, M // 3 + 1, M // 2 + 1, M - 1, M})
    alphas = [0.25, 0.5, 0.75]
    for alpha in alphas:
        _untouched(lambda: vk.cesaro_mean(f, M // 2 + 1, alpha), f.cells)
        means = _untouched(lambda: vk.cesaro_means(f, orders, alpha), f.cells)
        for n, mean in zip(orders, means):
            assert mean.cells.tobytes() == vk.cesaro_mean(f, n, alpha).cells.tobytes()
    by_alpha = _untouched(lambda: [list(means) for means in
                                   transform._cesaro_means(f, orders, alphas)], f.cells)
    for alpha, means in zip(alphas, by_alpha):
        for n, mean in zip(orders, means):
            lifted = vk.cesaro_mean(f, n, alpha).cells
            assert mean.cells.tobytes() == lifted[: len(mean.cells)].tobytes()


@pytest.mark.parametrize("radices", GRIDS, ids=str)
def test_kernels_and_scans_leave_their_inputs_and_tables_alone(radices):
    ns, _, M, f = _inputs(radices, real=False)
    R, alpha = ns.resolution, 0.4
    orders = np.array(sorted({1, 2, M // 3 + 1, M}))
    for n in orders.tolist():
        D = _untouched(lambda: kernels.dirichlet(ns, n))
        K = _untouched(lambda: kernels.cesaro_kernel(ns, n, alpha, resolution=R))
        table = binomials.cesaro_table(-alpha, n - 1).values
        assert not np.shares_memory(K.cells, table) and not np.shares_memory(D.cells, table)
    first = _untouched(lambda: kernels.majorant_ratio_scan(ns, alpha, orders), orders)
    assert kernels.majorant_ratio_scan(ns, alpha, orders) == first  # the cached terms held
    k = min(R, 6)
    block = np.array([ns.M[k - 1], ns.M[k - 1] + 1, ns.M[k]])
    first = _untouched(lambda: kernels.coset_decay_scan(ns, alpha, k, block), block)
    assert kernels.coset_decay_scan(ns, alpha, k, block) == first  # the cached weights held
    for k in sorted({1, R - 1}):
        if 1 <= k < R:
            first = _untouched(lambda: oscillation.difference_conditions(f, k, [0.25, 0.75]),
                               f.cells)
            assert oscillation.difference_conditions(f, k, [0.25, 0.75]) == first


@pytest.mark.parametrize("radices", WALSH + OCTAL + [[64, 64]], ids=str)
def test_consumed_input_gives_the_same_bytes(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(5)
    for k in sorted({0, 1, ns.resolution}):
        cells = ns.cells_at(k)
        for rows, analysis, real in itertools.product((0, 1, 3), (True, False), (True, False)):
            values = rng.standard_normal(rows * cells) + (0 if real else 1j)
            want = transform._staged(values, ns, k, analysis)
            got = transform._staged(values.copy(), ns, k, analysis, consume=True)
            assert got.shape == want.shape == (rows * cells,)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def _peak(call) -> int:
    """Bytes a call allocates above what is live when it starts, at its peak."""
    call()  # warm the caches: Kronecker matrices, root tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.mark.parametrize("radices", [[2] * 14, [2, 3, 4, 2, 3] * 2], ids=str)
def test_transient_peak_is_the_result_and_one_scratch_array(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(3)
    f = vk.families.random_cells(ns, rng)
    g = vk.families.random_cells(ns, rng)
    weights = rng.standard_normal(ns.cell_count) + 1j
    array = f.cells.nbytes
    slack = 64 << 10  # Python objects, small tables
    # forward: its result and one scratch array
    assert _peak(lambda: vk.forward(f)) <= 2 * array + slack
    # the spectrum is the multiplier's own: the product overwrites it
    assert _peak(lambda: vk.multiplier(f, weights)) <= 3 * array + slack
    # convolve also holds the coarser operand's spectrum
    assert _peak(lambda: vk.convolve(f, g)) <= 3 * array + slack
