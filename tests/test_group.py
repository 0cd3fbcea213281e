import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import oracles
from vilenkin.errors import ConfigurationError, UsageError, ValidationError
from vilenkin.config import radix_from_spec
from vilenkin.group import coset_key_table, coset_rep_cells, digit_matrix

from test_character_tensor import MORE_GRIDS


def _cells(ns, digit_rows):
    """Cell index of each row of digits, reduced mod m: the group law on digit rows."""
    rows = np.asarray(digit_rows, dtype=np.int64)
    r = rows.shape[-1]
    return (rows % np.array(ns.radix.radices[:r], dtype=np.int64)) \
        @ np.array(ns.M[:r], dtype=np.int64)


def test_radix_validation():
    with pytest.raises(ValidationError):
        vk.number_system([2, 1, 3])
    with pytest.raises(ValidationError):
        vk.number_system([])


def test_ladder_walsh(walsh):
    assert list(walsh.M) == [1, 2, 4, 8, 16, 32, 64]
    assert walsh.cell_count == 64


def test_ladder_mixed(mixed):
    assert list(mixed.M) == [1, 2, 6, 24, 48]
    assert mixed.cell_count == 48


def test_radix_from_spec_forms():
    assert radix_from_spec([2, 3]).radices == (2, 3)
    assert radix_from_spec({"list": [5, 2]}).radices == (5, 2)
    assert radix_from_spec({"constant": 3, "length": 4}).radices == (3, 3, 3, 3)
    assert radix_from_spec({"pattern": [2, 3], "length": 5}).radices == (2, 3, 2, 3, 2)
    with pytest.raises(ConfigurationError):
        radix_from_spec({"constant": 2})
    with pytest.raises(ConfigurationError):
        radix_from_spec("walsh")


def test_overflow_guard():
    with pytest.raises(ConfigurationError):
        vk.number_system([2] * 70)


def test_digit_round_trip_exhaustive(ns):
    for n in range(ns.cell_count):
        assert _cells(ns, vk.digits_of(ns, n)) == n
    with pytest.raises(UsageError):
        vk.digits_of(ns, ns.cell_count)


# one radix, a radix above 32 first, and a long digit above a run of 2s
TABLE_GRIDS = [[7], [40, 2, 3], [2, 2, 2, 2, 16]]


def _oracle_digits(ns, r):
    """Per-cell division: column j of row i is (i // M_j) % m_j."""
    idx = np.arange(ns.cells_at(r), dtype=np.int64)[:, None]
    M, m = (np.array(v[:r], dtype=np.int64) for v in (ns.M, ns.radix.radices))
    return (idx // M) % m


def _assert_read_only_int64(table, shape):
    assert table.dtype == np.int64 and table.shape == shape
    assert table.flags.c_contiguous and table.flags.owndata and not table.flags.writeable


def _check_digit_matrix(ns):
    for r in range(ns.resolution + 1):
        D, want = digit_matrix(ns, r), _oracle_digits(ns, r)
        _assert_read_only_int64(D, want.shape)
        assert np.array_equal(D, want)
    for bad in (-1, ns.resolution + 1):
        with pytest.raises(UsageError):
            digit_matrix(ns, bad)


def _check_coset_key_table(ns):
    # beta = sum_{j<k} x_j M_k/M_{j+1}: the digit rows times the coset weights
    for r in range(ns.resolution + 1):
        D = _oracle_digits(ns, r)
        for k in range(r + 1):
            w = np.array([ns.M[k] // ns.M[j + 1] for j in range(k)], dtype=np.int64)
            key = coset_key_table(ns, r, k)
            _assert_read_only_int64(key, (ns.M[r],))
            assert np.array_equal(key, D[:, :k] @ w)
        for bad in (-1, r + 1):
            with pytest.raises(UsageError):
                coset_key_table(ns, r, bad)
    for bad in (-1, ns.resolution + 1):
        with pytest.raises(UsageError):
            coset_key_table(ns, bad, 0)


def test_digit_matrix_matches_digits(ns):
    _check_digit_matrix(ns)


def test_coset_key_table_matches_weighted_digits(ns):
    _check_coset_key_table(ns)


@pytest.mark.parametrize("radices", TABLE_GRIDS, ids=str)
def test_digit_tables_match_oracle_more_grids(radices):
    ns = vk.number_system(radices)
    _check_digit_matrix(ns)
    _check_coset_key_table(ns)


def test_coset_key_table_reads_no_other_table(count_calls):
    # the keys come from per-digit terms: no digit table and no cached coset representatives
    ns = vk.number_system([5, 3, 2, 3])
    digits = count_calls("digit_matrix")
    reps = count_calls("coset_rep_cells")
    cached = coset_rep_cells.cache_info().currsize
    for r in range(ns.resolution + 1):
        for k in range(r + 1):
            coset_key_table(ns, r, k)
    assert digits == [] and reps == []
    assert coset_rep_cells.cache_info().currsize == cached


@pytest.mark.parametrize("radices", [[2] * 16, [4] * 8], ids=str)
def test_digit_matrix_peak_is_its_output(radices):
    # the table is written from tables of about sqrt(M) rows, with no M-entry temporary
    ns = vk.number_system(radices)
    tracemalloc.start()
    try:
        table = digit_matrix(ns, ns.resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * table.nbytes


@pytest.mark.parametrize("radices", [[2] * 16, [4] * 8], ids=str)
def test_coset_key_table_peak_is_its_output(radices):
    # the first M_k keys are built in place in the table, slab by slab
    ns = vk.number_system(radices)
    r = ns.resolution
    for k in (r, r - 1):
        tracemalloc.start()
        try:
            table = coset_key_table(ns, r, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * table.nbytes


@pytest.mark.parametrize("radices", [[2] * 16, [4] * 8], ids=str)
def test_group_tables_are_not_retained(radices):
    # each caller reads a table once, so nothing may keep an M_r-entry table alive
    ns = vk.number_system(radices)
    r = ns.resolution
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tables = [digit_matrix(ns, r)] + [coset_key_table(ns, r, k) for k in range(r + 1)]
        del tables
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained <= 64 * 1024
    for build in (lambda: digit_matrix(ns, r), lambda: coset_key_table(ns, r, r - 1)):
        a, b = build(), build()
        assert a is not b and not np.shares_memory(a, b)
        assert a.tobytes() == b.tobytes()


def test_group_laws_exhaustive_pairs(ns):
    # the translations act as the group: 0 fixes every function, t then -t
    # is the identity, and every pair commutes
    r = ns.resolution
    D = digit_matrix(ns, r)
    index = _index_function(ns, r)
    assert np.array_equal(index.translate(0).cells, index.cells)
    for t in range(ns.cell_count):
        assert np.array_equal(index.translate(t).translate(_cells(ns, -D[t])).cells, index.cells)
    for s in range(0, ns.cell_count, 7):
        for t in range(0, ns.cell_count, 5):
            assert np.array_equal(index.translate(s).translate(t).cells,
                                  index.translate(_cells(ns, D[s] + D[t])).cells)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_sampled(data):
    # (x + y) + z = x + (y + z) under the digit-row law, read through the translations
    ns = vk.number_system([2, 3, 4, 2])
    D = digit_matrix(ns, ns.resolution)
    pick = st.integers(0, ns.cell_count - 1)
    x, y, z = (data.draw(pick) for _ in range(3))
    index = _index_function(ns, ns.resolution)
    left = index.translate(_cells(ns, D[x] + D[y])).translate(z)
    right = index.translate(x).translate(_cells(ns, D[y] + D[z]))
    assert np.array_equal(left.cells, right.cells)
    assert np.array_equal(left.cells, index.translate(x).translate(y).translate(z).cells)


def test_scale_of_brackets(ns):
    for n in range(1, ns.cell_count):
        A = vk.scale_of(ns, n)
        assert ns.M[A] <= n < ns.M[A + 1]
    with pytest.raises(UsageError):
        vk.scale_of(ns, 0)
    with pytest.raises(UsageError):
        vk.scale_of(ns, ns.cell_count)


def test_coset_rep_bijective(ns):
    r = ns.resolution
    for k in range(r + 1):
        cells = [oracles.coset_rep(ns, beta, k) for beta in range(ns.M[k])]
        # no digit at or above k, one representative per coset, and coset_key_table inverts it
        assert sorted(cells) == list(range(ns.M[k]))
        assert coset_key_table(ns, r, k)[cells].tolist() == list(range(ns.M[k]))
    with pytest.raises(UsageError):
        oracles.coset_rep(ns, ns.M[1], 1)
    with pytest.raises(UsageError):
        oracles.coset_rep(ns, 0, r + 1)


def test_coset_rep_weight_bracket(ns):
    # beta built from first nonzero digit q satisfies
    # M_k/M_{q+1} <= beta <= M_k/M_q - 1
    for k in range(1, ns.resolution + 1):
        for beta in range(1, ns.M[k]):
            digits = vk.digits_of(ns, oracles.coset_rep(ns, beta, k))
            q = min(j for j in range(k) if digits[j] != 0)
            assert ns.M[k] // ns.M[q + 1] <= beta <= ns.M[k] // ns.M[q] - 1


def test_coset_rep_cells_matches_coset_rep(ns):
    for k in range(ns.resolution + 1):
        for r in range(ns.resolution + 1):
            table = vk.coset_rep_cells(ns, k, r)
            want = [oracles.coset_rep(ns, beta, k) % ns.M[r] for beta in range(ns.M[k])]
            assert table.dtype == np.int64
            assert not table.flags.writeable
            assert table.tolist() == want


@pytest.mark.parametrize("radices", MORE_GRIDS, ids=str)
def test_coset_rep_cells_matches_coset_rep_more_grids(radices):
    ns = vk.number_system(radices)
    for k in range(ns.resolution + 1):
        want = [oracles.coset_rep(ns, beta, k) for beta in range(ns.M[k])]
        for r in range(ns.resolution + 1):
            table = vk.coset_rep_cells(ns, k, r)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert table.tolist() == [cell % ns.M[r] for cell in want]


def test_coset_rep_cells_rejects_bad_args(ns):
    with pytest.raises(UsageError):
        vk.coset_rep_cells(ns, ns.resolution + 1, ns.resolution)
    with pytest.raises(UsageError):
        vk.coset_rep_cells(ns, 1, ns.resolution + 1)


def test_translate_is_group_translation(ns, rng):
    for r in (ns.resolution, ns.resolution - 2, 0):
        index = _index_function(ns, r)
        D = digit_matrix(ns, ns.resolution)
        for t in [0, *rng.integers(0, ns.cell_count, size=8).tolist()]:
            moved = index.translate(t)
            assert not np.shares_memory(moved.cells, index.cells)
            # cell x of the translated function reads from the cell of x - t
            assert np.array_equal(moved.cells, _cells(ns, digit_matrix(ns, r) - D[t, :r]))
            back = moved.translate(_cells(ns, -D[t]))
            assert np.array_equal(back.cells, index.cells)
        for t in (-1, ns.cell_count):
            with pytest.raises(UsageError):
                index.translate(t)


def test_reflect_is_negation_and_involution(ns):
    for r in (ns.resolution, ns.resolution - 2, 0):
        index = _index_function(ns, r)
        reflected = index.reflect()
        assert not np.shares_memory(reflected.cells, index.cells)
        assert np.array_equal(reflected.cells, _cells(ns, -digit_matrix(ns, r)))
        assert np.array_equal(reflected.reflect().cells, index.cells)


def _index_function(ns, r):
    return vk.StepFunction(ns, r, np.arange(ns.cells_at(r)))


def test_coset_key_partitions(ns):
    r = ns.resolution
    for k in range(r + 1):
        key = coset_key_table(ns, r, k)
        counts = np.bincount(key, minlength=ns.M[k])
        assert np.all(counts == ns.cell_count // ns.M[k])


@pytest.mark.parametrize("radices", [[2, 3], [2] * 6] + MORE_GRIDS, ids=str)
def test_coset_key_tables_read_only(radices):
    # no caller writes a key table, and a write raises
    ns = vk.number_system(radices)
    for r in range(ns.resolution + 1):
        for k in range(r + 1):
            key = coset_key_table(ns, r, k)
            assert key.dtype == np.int64 and not key.flags.writeable
            with pytest.raises(ValueError):
                key[0] = 5
        assert coset_key_table(ns, r, 0).tolist() == [0] * ns.M[r]


def test_basis_element_digits(ns, rng):
    # e_k is the cell index M_k: digit 1 at k alone, and translating by it rolls digit k by one
    f = vk.StepFunction(ns, ns.resolution, rng.standard_normal(ns.cell_count))
    tensor = f.cells.reshape(ns.radix.radices[::-1])
    for k in range(ns.resolution):
        digits = vk.digits_of(ns, ns.M[k])
        assert digits[k] == 1 and sum(digits) == 1
        rolled = np.roll(tensor, 1, axis=ns.resolution - 1 - k).reshape(-1)
        assert np.array_equal(f.translate(ns.M[k]).cells, rolled)


@st.composite
def _grids(draw):
    """Radix tuples with m in 2..40 and at most 4096 cells."""
    radices, cells = [], 1
    while cells * 2 <= 4096 and (not radices or draw(st.booleans())):
        radices.append(draw(st.integers(2, min(40, 4096 // cells))))
        cells *= radices[-1]
    return radices


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_translate_and_reflect_match_digit_rows_hypothesis(data):
    ns = vk.number_system(data.draw(_grids()))
    r = data.draw(st.integers(0, ns.resolution))
    t = data.draw(st.integers(0, ns.cell_count - 1))
    x = data.draw(st.integers(0, ns.cells_at(r) - 1))
    index = _index_function(ns, r)
    D = digit_matrix(ns, r)
    t_digits = np.array(vk.digits_of(ns, t)[:r], dtype=np.int64)
    moved = index.translate(t)
    assert moved.cells[x] == _cells(ns, np.array(vk.digits_of(ns, x)[:r]) - t_digits)
    assert np.array_equal(moved.cells, _cells(ns, D - t_digits))
    assert np.array_equal(index.reflect().cells, _cells(ns, -D))
    minus_t = int(_cells(ns, -np.array(vk.digits_of(ns, t), dtype=np.int64)))
    assert np.array_equal(moved.translate(minus_t).cells, index.cells)
    for bad in (-1, ns.cell_count):
        with pytest.raises(UsageError):
            index.translate(bad)
