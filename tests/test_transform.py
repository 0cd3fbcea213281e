import ast
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import binomials, characters, config, families, kernels, oracles, transform
from vilenkin.errors import ConfigurationError, UsageError, ValidationError
from vilenkin.transform import (CoefficientVector, StepFunction, forward, inverse, partial_sum,
                                sup_distance, synthesize)


def random_f(ns, rng, real=False):
    return families.random_cells(ns, rng, real=real)


def _cesaro_weights(n, alpha):
    """(A_{n-1-nu}^{-alpha} for nu < n, A_{n-1}^{-alpha}): the order -alpha weights."""
    t = binomials.cesaro_table(-alpha, n - 1)
    return t.values[::-1], t.a(n - 1)


def test_fast_matches_naive(ns, rng):
    f = random_f(ns, rng)
    fast = forward(f)
    naive = oracles.forward(f)
    assert np.max(np.abs(fast.coeffs - naive.coeffs)) < 1e-12


def test_round_trip(ns, rng):
    f = random_f(ns, rng)
    assert sup_distance(inverse(forward(f)), f) < 1e-12


def test_stage_order_is_inert(ns, rng):
    # the fused blocks against the per-digit oracle run in a random digit order
    f = random_f(ns, rng)
    base = forward(f).coeffs
    for _ in range(3):
        order = list(rng.permutation(ns.resolution))
        assert np.max(np.abs(oracles.staged_forward(f, order).coeffs - base)) < 1e-12
    with pytest.raises(UsageError):
        oracles.staged_forward(f, [0] * ns.resolution)


# [2]*5, [2]*6 and [2]*11 sit on block edges; [37, 2] and [67] have a radix over the cap
FUSED_GRIDS = [[2] * 5, [2] * 6, [2] * 11, [7, 2, 3], [5, 3, 2, 5], [2, 3, 4, 2, 3, 3, 3],
               [37, 2], [67]]


def _fused_cases(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(len(radices))
    coarse = [families.random_cells(ns, rng, resolution=r) for r in (0, 1)]
    return ns, rng, coarse + [families.random_cells(ns, rng)]


@pytest.mark.parametrize("radices", FUSED_GRIDS, ids=str)
def test_fused_matches_oracles(radices):
    ns, rng, fs = _fused_cases(radices)
    for f in fs:
        fast = forward(f).coeffs
        assert np.max(np.abs(fast - oracles.forward(f).coeffs)) < 1e-12
        order = rng.permutation(f.resolution)
        assert np.max(np.abs(fast - oracles.staged_forward(f, order).coeffs)) < 1e-12
        c = CoefficientVector(ns, f.resolution, f.cells)
        back = oracles.staged_inverse(c, rng.permutation(f.resolution)).cells
        assert np.max(np.abs(inverse(c).cells - back)) < 1e-12
        assert sup_distance(inverse(forward(f)), f) < 1e-12


@pytest.mark.parametrize("radices", FUSED_GRIDS, ids=str)
def test_fused_output_is_byte_stable(radices):
    for f in _fused_cases(radices)[2]:
        c = forward(f)
        assert forward(f).coeffs.tobytes() == c.coeffs.tobytes()
        assert inverse(c).cells.tobytes() == inverse(c).cells.tobytes()


def test_kronecker_blocks_are_read_only():
    for radices in FUSED_GRIDS:
        radices = tuple(radices)
        blocks = transform._digit_blocks(radices)
        assert [j for block in blocks for j in range(*block)] == list(range(len(radices)))
        for j0, j1 in blocks:
            for analysis in (True, False):
                K = transform._kronecker(radices[j0:j1], analysis)
                assert not K.flags.writeable
                with pytest.raises(ValueError):
                    K[0, 0] = 0.0


@pytest.mark.parametrize("radices", [(2,) * 5, (2, 3), (4,), (3, 2, 2)], ids=str)
def test_kronecker_is_real_exactly_for_radix_two(radices):
    want = np.float64 if set(radices) == {2} else np.complex128
    for analysis in (True, False):
        K = transform._kronecker(radices, analysis)
        assert K.dtype == want
        assert K.flags.c_contiguous


# each mixes real (all-radix-2) and complex blocks, or ends on a real block above the lowest
MIXED_BLOCK_GRIDS = [[2] * 11, [3, 2, 2, 2, 2, 2, 2], [2, 2, 2, 2, 2, 3],
                     [2, 3, 4, 2, 3, 2, 2, 2], [40, 2, 3]]


@pytest.mark.parametrize("radices", MIXED_BLOCK_GRIDS, ids=str)
def test_real_and_complex_blocks_match_per_digit_oracle(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(7)
    for real in (True, False):
        f = families.random_cells(ns, rng, real=real)
        want = oracles.staged_forward(f).coeffs
        got = forward(f).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        c = CoefficientVector(ns, ns.resolution, f.cells)
        want = oracles.staged_inverse(c).cells
        assert np.max(np.abs(inverse(c).cells - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("radices", MIXED_BLOCK_GRIDS, ids=str)
def test_staged_input_forms_agree(radices):
    ns = vk.number_system(radices)
    r = ns.resolution
    rng = np.random.default_rng(8)
    real = rng.standard_normal(ns.M[r])
    ints = rng.integers(-9, 10, ns.M[r])
    wide = rng.standard_normal(3 * ns.M[r]) + 1j * rng.standard_normal(3 * ns.M[r])
    strided = wide[: 2 * ns.M[r] : 2]
    assert not strided.flags.c_contiguous
    walsh = set(radices) == {2}
    for analysis in (True, False):
        for values in (real, ints, strided):
            # real input stays real on a Walsh grid and is taken as complex once otherwise
            dtype = np.float64 if walsh and values is not strided else np.complex128
            copy = np.array(values, dtype=dtype)
            got = transform._staged(values, ns, r, analysis)
            assert got.dtype == dtype
            assert got.tobytes() == transform._staged(copy, ns, r, analysis).tobytes()
            as_complex = transform._staged(values + 0j, ns, r, analysis)
            assert np.max(np.abs(got - as_complex)) <= 1e-12 * np.max(np.abs(as_complex))
        # several rows of M_k values back to back, against the rows one by one;
        # BLAS may block a taller matmul differently, so equal to rounding
        for k in (1, r - 1, r):
            rows = wide[: 3 * ns.M[k]]
            one_by_one = np.concatenate([transform._staged(row, ns, k, analysis)
                                         for row in rows.reshape(3, -1)])
            got = transform._staged(rows, ns, k, analysis)
            assert np.max(np.abs(got - one_by_one)) <= 1e-12 * np.max(np.abs(one_by_one))


def _oracle_rows(values, ns, k, analysis, rng):
    """Each row of M_k values through the per-digit oracle, in a random digit order, unscaled."""
    cells = ns.cells_at(k)
    out = []
    for row in values.reshape(-1, cells):
        order = rng.permutation(k)
        if analysis:
            out.append(oracles.staged_forward(StepFunction(ns, k, row), order).coeffs * cells)
        else:
            out.append(oracles.staged_inverse(CoefficientVector(ns, k, row), order).cells)
    return np.concatenate(out)


@pytest.mark.parametrize("radices", MIXED_BLOCK_GRIDS + [[5, 3, 7, 2]], ids=str)
def test_staged_takes_zero_one_or_several_rows(radices):
    # the rows of a pass come back in row order as a new array, an empty pass included
    ns = vk.number_system(radices)
    r = ns.resolution
    rng = np.random.default_rng(11)
    for k in sorted({0, 1, r - 1, r}):
        cells = ns.cells_at(k)
        for analysis in (True, False):
            for rows in (0, 1, 3):
                values = rng.standard_normal((rows, cells)) + 1j * rng.standard_normal((rows, cells))
                flat = values.reshape(-1)
                got = transform._staged(flat, ns, k, analysis)
                assert got.shape == (rows * cells,) and got.dtype == np.complex128
                assert got.flags.c_contiguous
                assert got is not flat and not np.shares_memory(got, flat)
                if not analysis:
                    synth = transform.synthesize_rows(ns, values, k)
                    assert synth.shape == (rows, cells) and synth.flags.c_contiguous
                    assert synth.tobytes() == got.tobytes()
                if rows == 0:
                    continue
                one_by_one = np.concatenate([transform._staged(row, ns, k, analysis)
                                             for row in values])
                assert _close(got, one_by_one)
                assert _close(got, _oracle_rows(flat, ns, k, analysis, rng))


def test_staged_never_returns_its_input(walsh, rng):
    values = rng.standard_normal(1) + 0j
    assert transform._staged(values, walsh, 0, True) is not values
    f = StepFunction(walsh, 0, values)
    forward(f)
    assert f.cells.tobytes() == values.tobytes()


@pytest.mark.parametrize("radices", MIXED_BLOCK_GRIDS, ids=str)
def test_forward_scaling_equals_division(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(9)
    for r in (0, 1, ns.resolution):
        f = families.random_cells(ns, rng, resolution=r)
        want = transform._staged(f.cells, ns, r, analysis=True) / ns.M[r]
        assert forward(f).coeffs.tobytes() == want.tobytes()


def test_scale_equals_complex_division(rng):
    values = rng.standard_normal(257) * 10.0 ** rng.integers(-100, 100, 257) \
        + 1j * rng.standard_normal(257)
    values[:4] = [0.0, 1j, 2.0, 0.0 - 1j]
    for denominator in (1.0, 3, 4096, 0.7312, 1e-150, 1e150):
        got = values.copy()
        transform._scale(got, denominator)
        assert got.tobytes() == (values / denominator).tobytes()
    # the one difference: division adds imag * 0 to the real part, so -0 beside +1 becomes +0
    got = np.array([complex(-0.0, 1.0)])
    transform._scale(got, 1.0)
    assert np.signbit(got.real[0]) and not np.signbit((got / 1.0).real[0])


def _calls_numpy(tree, name) -> bool:
    """Whether the module calls np.<name> or numpy.<name>, or imports name from numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy" \
                and any(a.name == name for a in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return True
    return False


def _takes_arg(tree, function, arg) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            a = node.args
            names = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            return any(x is not None and x.arg == arg for x in names)
    return False


def test_transform_has_no_per_digit_stages():
    tree = ast.parse(pathlib.Path(transform.__file__).read_text(encoding="utf-8"))
    assert not _calls_numpy(tree, "tensordot")
    assert not _calls_numpy(tree, "moveaxis")
    assert not _takes_arg(tree, "forward", "stage_order")
    assert not _takes_arg(tree, "inverse", "stage_order")


def test_per_digit_guard_detects_both_forms():
    for name in ("tensordot", "moveaxis"):
        assert _calls_numpy(ast.parse(f"np.{name}(a, b)"), name)
        assert _calls_numpy(ast.parse(f"from numpy import {name}"), name)
        assert not _calls_numpy(ast.parse("a @ b"), name)
    assert _takes_arg(ast.parse("def forward(f, stage_order=None): pass"), "forward", "stage_order")
    assert _takes_arg(ast.parse("def inverse(c, *, stage_order): pass"), "inverse", "stage_order")
    assert not _takes_arg(ast.parse("def forward(f): pass"), "forward", "stage_order")


def test_parseval(ns, rng):
    for _ in range(10):
        f = random_f(ns, rng)
        c = forward(f)
        lhs = np.mean(np.abs(f.cells) ** 2)
        rhs = np.sum(np.abs(c.coeffs) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linearity(ns, rng):
    f, g = random_f(ns, rng), random_f(ns, rng)
    a, b = 2.5, -1.25j
    lhs = forward(StepFunction(ns, f.resolution, a * f.cells + b * g.cells))
    rhs = a * forward(f).coeffs + b * forward(g).coeffs
    assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12


def test_delta_transforms_flat(ns):
    cells = np.zeros(ns.cell_count, dtype=np.complex128)
    cells[0] = 1.0
    c = forward(StepFunction(ns, ns.resolution, cells))
    assert np.allclose(c.coeffs, 1.0 / ns.cell_count, atol=1e-15)


def test_character_transforms_to_delta(ns):
    for n in (0, 1, ns.cell_count - 1):
        f = synthesize(ns, np.eye(ns.cell_count)[n])
        c = forward(f)
        expected = np.zeros(ns.cell_count)
        expected[n] = 1.0
        assert np.max(np.abs(c.coeffs - expected)) < 1e-12


def test_partial_sum_reproduces_band_limited(ns, rng):
    # S_n f = f once n covers the whole spectrum of f
    weights = np.zeros(ns.cell_count, dtype=np.complex128)
    weights[: ns.M[2]] = rng.standard_normal(ns.M[2])
    f = synthesize(ns, weights)
    for n in (ns.M[2], ns.M[2] + 3, ns.cell_count):
        assert sup_distance(partial_sum(f, n), f) < 1e-12
    assert sup_distance(partial_sum(f, ns.M[1]), f) > 1e-3


def test_partial_sum_zero_is_zero(ns, rng):
    f = random_f(ns, rng)
    s0 = partial_sum(f, 0)
    assert np.max(np.abs(s0.cells)) == 0.0


def test_fejer_mean_averages_partials(ns, rng):
    f = random_f(ns, rng)
    n = 7
    avg = sum(partial_sum(f, v).cells for v in range(1, n + 1)) / n
    assert np.max(np.abs(transform.fejer_mean(f, n).cells - avg)) < 1e-12


def test_cesaro_routes_agree(ns, rng):
    f = random_f(ns, rng)
    for alpha in (0.25, 0.5, 0.75):
        for n in (1, 2, 3, ns.M[1], ns.M[2] + 1, ns.cell_count):
            a = transform.cesaro_mean(f, n, alpha)
            b = oracles.cesaro_mean_partial_sums(f, n, alpha)
            c = transform.convolve(f, kernels.cesaro_kernel(ns, n, alpha, resolution=f.resolution))
            assert sup_distance(a, b) < 1e-9 * n
            assert sup_distance(a, c) < 1e-9 * n


def test_cesaro_mean_of_constant_is_constant(ns):
    f = StepFunction(ns, ns.resolution,
                     np.full(ns.cell_count, 3.25, dtype=np.complex128))
    for n in (1, 5, ns.cell_count):
        assert sup_distance(transform.cesaro_mean(f, n, 0.5), f) < 1e-12


def test_cesaro_means_equal_cesaro_mean_per_order(ns, rng, staged_passes):
    f = random_f(ns, rng)
    M = ns.cell_count
    orders = [1, 2, ns.M[1] + 1, ns.M[2], M // 3, M // 2 + 1, M - 1, M]
    levels = {transform.minimal_resolution(ns, n) for n in orders}
    means = list(transform.cesaro_means(f, iter(orders), 0.4))  # any iterable of orders
    # one analysis pass per distinct resolution of the orders, none per order
    assert sorted(k for k, analysis in staged_passes if analysis) == sorted(levels)
    assert len(levels) < len(orders) == len(means)
    for n, mean in zip(orders, means):
        assert mean.cells.tobytes() == transform.cesaro_mean(f, n, 0.4).cells.tobytes()
        weights = _cesaro_weights(n, 0.4)
        assert mean.cells.tobytes() == _fold_multiplier(f, *weights).tobytes()
        assert _close(mean.cells, _full_resolution_multiplier(f, *weights))


def test_cesaro_means_build_one_table(ns, rng, count_calls):
    f = random_f(ns, rng)
    tables = count_calls("cesaro_table", module=binomials)
    list(transform.cesaro_means(f, [1, 5, ns.cell_count // 2, ns.cell_count], 0.3))
    assert len(tables) == 1


def test_means_transform_at_their_own_resolution(ns, rng, staged_passes):
    f = random_f(ns, rng)
    for n in range(1, ns.cell_count + 1):
        k = transform.minimal_resolution(ns, n)
        staged_passes.clear()
        assert partial_sum(f, n).resolution == ns.resolution
        assert staged_passes == []  # the partial sum transforms at no resolution
        for mean in (lambda: transform.fejer_mean(f, n),
                     lambda: transform.cesaro_mean(f, n, 0.6),
                     lambda: transform.multiplier(f, np.ones(n), 3.0),
                     lambda: kernels.cesaro_kernel(ns, n, 0.6, ns.resolution)):
            staged_passes.clear()
            assert mean().resolution == ns.resolution
            assert max(r for r, _ in staged_passes) == k
    for k in range(ns.resolution + 1):
        h = families.random_cells(ns, rng, resolution=k)
        staged_passes.clear()
        assert transform.convolve(f, h).resolution == ns.resolution
        assert max(r for r, _ in staged_passes) == k
def test_cesaro_means_check_on_the_call(ns, rng):
    f = random_f(ns, rng)
    for orders, alpha in (([1, 0], 0.5), ([1, ns.cell_count + 1], 0.5), ([1], 1.0), ([1], 0.0)):
        with pytest.raises(UsageError):
            transform.cesaro_means(f, orders, alpha)


def test_convolution_theorem(ns, rng):
    f, g = random_f(ns, rng), random_f(ns, rng)
    conv = transform.convolve(f, g)
    lhs = forward(conv).coeffs
    rhs = forward(f).coeffs * forward(g).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_convolve_direct_matches_fast(ns, rng):
    f, g = random_f(ns, rng), random_f(ns, rng)
    fast = transform.convolve(f, g)
    direct = oracles.convolve(f, g)
    assert sup_distance(fast, direct) < 1e-12


def test_translate_invariance_of_convolution(ns, rng):
    # (f * g)(x - t) = (f(. - t) * g)(x)
    f, g = random_f(ns, rng), random_f(ns, rng)
    t = 5
    lhs = transform.convolve(f, g).translate(t)
    rhs = transform.convolve(f.translate(t), g)
    assert sup_distance(lhs, rhs) < 1e-12


def test_lift_preserves_values(ns, rng):
    weights = np.zeros(ns.M[2], dtype=np.complex128)
    weights[:] = rng.standard_normal(ns.M[2])
    f = synthesize(ns, weights, resolution=2)
    lifted = f.lift(ns.resolution)
    for i in (0, 1, ns.cell_count - 1):
        # the lifted value at x is f's value on the resolution-2 cell of x, its low digits
        assert lifted.cells[i] == f.cells[i % ns.M[2]]


def test_grid_mismatch_rejected(walsh, mixed, rng):
    f = random_f(walsh, rng)
    g = random_f(mixed, rng)
    with pytest.raises(ValidationError):
        transform.convolve(f, g)
    with pytest.raises(ValidationError):
        sup_distance(f, g)


def _step_json(f):
    """The file family's format: radix, resolution and one [re, im] pair per cell."""
    return json.dumps({"radix": list(f.ns.radix.radices), "resolution": f.resolution,
                       "cells": [[v.real, v.imag] for v in f.cells.tolist()]})


def load_step(ns, text):
    """The step function that config.family_from_spec reads from a file holding text on ns."""
    with tempfile.TemporaryDirectory() as folder:
        path = pathlib.Path(folder) / "step.json"
        path.write_text(text, encoding="utf-8")
        _, build = config.family_from_spec(ns, {"family": "file", "path": str(path)})
    return build(None)


def test_serialization_round_trip(ns, rng):
    f = random_f(ns, rng)
    back = load_step(ns, _step_json(f))
    assert back.ns == f.ns and back.resolution == f.resolution
    assert np.array_equal(back.cells, f.cells)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=48, max_size=48))
def test_serialization_bit_exact_hypothesis(vals):
    ns = vk.number_system([2, 3, 4, 2])
    f = StepFunction(ns, ns.resolution, np.array(vals, dtype=np.complex128))
    assert np.array_equal(load_step(ns, _step_json(f)).cells, f.cells)


@pytest.mark.parametrize("field, value", [
    ("radix", "2342"), ("radix", [2, 3, 4, 2.7]), ("radix", [2, 3, 4, True]),
    ("resolution", 3.9), ("resolution", True), ("resolution", "4"),
    ("cell", [1e400, 0]), ("cell", [10**400, 0]), ("cell", [0, float("nan")]),
    ("cell", [True, 0]), ("cell", [1, 2, 3]), ("cell", "ab"), ("cell", 1.0)])
def test_load_step_takes_no_field_it_would_convert(mixed, field, value):
    f = StepFunction(mixed, 4, np.arange(48) + 0.5j)
    d = json.loads(_step_json(f))
    if field == "cell":
        d["cells"][7] = value
    else:
        d[field] = value
        if field == "resolution":
            d["cells"] = d["cells"][: mixed.M[int(value)]]  # as many as a converting reader wants
    with pytest.raises(ConfigurationError, match=f": {field}"):  # the message names it
        load_step(mixed, json.dumps(d))


def test_load_step_reads_int_cells(mixed):
    d = json.loads(_step_json(StepFunction(mixed, 4, np.arange(48) + 0.5j)))
    d["cells"][7] = [3, -1]
    assert load_step(mixed, json.dumps(d)).cells[7] == 3 - 1j


def test_sup_distance_lifts(ns, rng):
    weights = rng.standard_normal(ns.M[1])
    f = synthesize(ns, weights, resolution=1)
    g = f.lift(ns.resolution)
    assert sup_distance(f, g) == 0.0


def _fold_multiplier(f, weights, denominator=1.0):
    """multiplier written out: fold to k, forward at k, (c w) / A, inverse at k, tile."""
    M = len(f.cells)
    cut = min(len(weights), M)
    k = transform.minimal_resolution(f.ns, cut)
    Mk = f.ns.cells_at(k)
    folded = f.cells.reshape(-1, Mk).sum(axis=0) if k < f.resolution else f.cells
    c = transform._staged(folded, f.ns, k, analysis=True) / M
    out = np.zeros(Mk, dtype=np.complex128)
    out[:cut] = c[:cut] * weights[:cut] / denominator
    return np.tile(inverse(CoefficientVector(f.ns, k, out)).cells, M // Mk)


def _full_resolution_multiplier(f, weights, denominator=1.0):
    """multiplier before the fold: (c w) / A on the full spectrum, inverse at f's resolution."""
    c = forward(f)
    cut = min(len(weights), len(c.coeffs))
    out = np.zeros_like(c.coeffs)
    out[:cut] = c.coeffs[:cut] * weights[:cut] / denominator
    return inverse(CoefficientVector(f.ns, f.resolution, out)).cells


def _close(got, want, rel=1e-12):
    return np.max(np.abs(got - want)) <= rel * max(np.max(np.abs(want)), 1.0)


@pytest.mark.parametrize("radices", MIXED_BLOCK_GRIDS[1:], ids=str)
def test_multiplier_matches_complex_expression(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(10)
    M = ns.cell_count
    f = families.random_cells(ns, rng)
    coarse = families.random_cells(ns, rng, resolution=2)
    complex_w = rng.standard_normal(M // 2) + 1j * rng.standard_normal(M // 2)
    cases = [(np.ones(M - 3), 1.0), (7 - np.arange(7), 7),
             _cesaro_weights(M // 3, 0.4), (rng.standard_normal(M), 2.5),
             (complex_w, 1.0), (complex_w, 0.75)]
    for g in (f, coarse):
        for weights, denominator in cases:
            got = transform.multiplier(g, weights, denominator).cells
            assert got.tobytes() == _fold_multiplier(g, weights, denominator).tobytes()
            assert _close(got, _full_resolution_multiplier(g, weights, denominator))


# m >= 5 among them: [5, 3, 7, 2] and [40, 2, 3]
IDENTITY_GRIDS = [[2] * 11, [2, 3, 4, 2, 3, 3, 3], [5, 3, 7, 2], [40, 2, 3]]


@pytest.mark.parametrize("radices", IDENTITY_GRIDS, ids=str)
def test_partial_sum_at_scale_is_coset_average(radices):
    # S_{M_k} f = E_k f: the average of f over each coset x + I_k, the cells of equal low digits
    ns = vk.number_system(radices)
    f = families.random_cells(ns, np.random.default_rng(11))
    for k in range(ns.resolution + 1):
        average = f.cells.reshape(-1, ns.M[k]).mean(axis=0)
        assert _close(partial_sum(f, ns.M[k]).cells, np.tile(average, ns.cell_count // ns.M[k]))


def _character_partial_sums(f, rows=256):
    """S_0 f .. S_{M_r} f: running sums of fhat(nu) psi_nu, fhat from oracles.forward.

    The characters come from character_block, rows of them at a time.
    """
    fhat = oracles.forward(f).coeffs
    running = np.zeros(len(fhat), dtype=np.complex128)
    yield running
    for start in range(0, len(fhat), rows):
        stop = min(start + rows, len(fhat))
        psi = characters.character_block(f.ns, start, stop, f.resolution)
        sums = running + np.cumsum(fhat[start:stop, None] * psi, axis=0)
        yield from sums
        running = sums[-1]


@pytest.mark.parametrize("radices", IDENTITY_GRIDS, ids=str)
def test_partial_sum_matches_character_sums_at_every_order(radices):
    # every n in 0..M_N, on f and on a coarse f of resolution r - 2, real and complex
    ns = vk.number_system(radices)
    rng = np.random.default_rng(14)
    walsh = set(radices) == {2}
    for real in (False, True):
        for resolution in (ns.resolution, ns.resolution - 2):
            f = families.random_cells(ns, rng, resolution=resolution, real=real)
            sums = _character_partial_sums(f)
            for n in range(ns.cell_count + 1):
                want = next(sums) if n <= len(f.cells) else want  # S_n f = f past M_r
                got = partial_sum(f, n)
                assert got.resolution == resolution
                assert got.cells.dtype == (np.float64 if real and walsh else np.complex128)
                assert _close(got.cells, want)
                if n >= len(f.cells):
                    assert not np.shares_memory(got.cells, f.cells)


@pytest.mark.parametrize("radices", IDENTITY_GRIDS, ids=str)
def test_cesaro_mean_is_constant_on_cosets(radices):
    # sigma_n f for n <= M_k uses psi_nu with nu < M_k only, so it is constant on x + I_k
    ns = vk.number_system(radices)
    f = families.random_cells(ns, np.random.default_rng(12))
    for k in range(ns.resolution + 1):
        for n in sorted({1, ns.M[k] // 2 + 1, ns.M[k] - 1, ns.M[k]} - {0}):
            for alpha in (0.3, 0.7):
                rows = transform.cesaro_mean(f, n, alpha).cells.reshape(-1, ns.M[k])
                assert all(row.tobytes() == rows[0].tobytes() for row in rows[1:])


@pytest.mark.parametrize("radices", [[5, 3, 7, 2], [40, 2, 3]], ids=str)
def test_means_kernels_convolutions_match_character_sums(radices):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(13)
    M, r = ns.cell_count, ns.resolution
    f = families.random_cells(ns, rng)
    fhat = oracles.forward(f).coeffs
    psi = characters.character_block(ns, 0, M, r)
    for n in sorted({1, 2, ns.M[1], ns.M[1] + 1, ns.M[2] - 1, ns.M[r - 1] + 1, M - 1, M}):
        numerators, denominator = _cesaro_weights(n, 0.45)
        w = numerators / denominator
        assert _close(partial_sum(f, n).cells, fhat[:n] @ psi[:n])
        assert _close(transform.fejer_mean(f, n).cells, fhat[:n] * (n - np.arange(n)) / n @ psi[:n])
        assert _close(transform.cesaro_mean(f, n, 0.45).cells, fhat[:n] * w @ psi[:n])
        assert _close(kernels.cesaro_kernel(ns, n, 0.45, r).cells, w @ psi[:n])
    for k in range(r + 1):
        g = families.random_cells(ns, rng, resolution=k)
        assert _close(transform.convolve(f, g).cells, oracles.convolve(f, g).cells)
        assert _close(transform.convolve(g, f).cells, oracles.convolve(f, g).cells)
