import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin.errors import ConfigurationError, UsageError, ValidationError
from vilenkin.group import coset_key_table, digit_matrix, radix_from_spec


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
        assert vk.index_of(ns, vk.digits_of(ns, n)) == n


def test_digit_matrix_matches_digits(ns):
    D = digit_matrix(ns, ns.resolution)
    for n in (0, 1, ns.cell_count // 2, ns.cell_count - 1):
        assert tuple(D[n]) == vk.digits_of(ns, n)


def test_group_laws_exhaustive_pairs(ns):
    elems = [vk.element_of(ns, n) for n in range(ns.cell_count)]
    z = vk.zero(ns)
    for x in elems:
        assert vk.add(x, z) == x
        assert vk.add(x, vk.neg(x)) == z
        assert vk.sub(x, x) == z
    for x in elems[::7]:
        for y in elems[::5]:
            assert vk.add(x, y) == vk.add(y, x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_associativity_sampled(data):
    ns = vk.number_system([2, 3, 4, 2])
    pick = st.integers(0, ns.cell_count - 1)
    x, y, z = (vk.element_of(ns, data.draw(pick)) for _ in range(3))
    assert vk.add(vk.add(x, y), z) == vk.add(x, vk.add(y, z))


def test_truncate_drops_high_digits(ns):
    for n in (1, 5, ns.cell_count - 1):
        assert vk.truncate(ns, n, -1) == 0
        for A in range(ns.resolution):
            t = vk.truncate(ns, n, A)
            assert t == n % ns.M[A + 1]


def test_scale_of_brackets(ns):
    for n in range(1, ns.cell_count):
        A = vk.scale_of(ns, n)
        assert ns.M[A] <= n < ns.M[A + 1]
    with pytest.raises(UsageError):
        vk.scale_of(ns, 0)
    with pytest.raises(UsageError):
        vk.scale_of(ns, ns.cell_count)


def test_coset_rep_bijective(ns):
    for k in range(ns.resolution + 1):
        seen = set()
        for beta in range(ns.M[k]):
            z = vk.coset_rep(ns, beta, k)
            assert all(d == 0 for d in z.digits[k:])
            seen.add(z.digits[:k])
            assert vk.coset_index(ns, z, k) == beta
        assert len(seen) == ns.M[k]


def test_coset_rep_weight_bracket(ns):
    # beta built from first nonzero digit q satisfies
    # M_k/M_{q+1} <= beta <= M_k/M_q - 1
    for k in range(1, ns.resolution + 1):
        for beta in range(1, ns.M[k]):
            z = vk.coset_rep(ns, beta, k)
            q = min(j for j in range(k) if z.digits[j] != 0)
            assert ns.M[k] // ns.M[q + 1] <= beta <= ns.M[k] // ns.M[q] - 1


def test_coset_rep_cells_matches_coset_rep(ns):
    for k in range(ns.resolution + 1):
        for r in range(ns.resolution + 1):
            table = vk.coset_rep_cells(ns, k, r)
            want = [vk.coset_rep(ns, beta, k).cell_index(r) for beta in range(ns.M[k])]
            assert table.dtype == np.int64
            assert not table.flags.writeable
            assert table.tolist() == want


def test_coset_rep_cells_rejects_bad_args(ns):
    with pytest.raises(UsageError):
        vk.coset_rep_cells(ns, ns.resolution + 1, ns.resolution)
    with pytest.raises(UsageError):
        vk.coset_rep_cells(ns, 1, ns.resolution + 1)


def _index_function(ns, r):
    return vk.StepFunction(ns, r, np.arange(ns.cells_at(r)))


def test_translate_is_group_translation(ns, rng):
    for r in (ns.resolution, ns.resolution - 2, 0):
        index = _index_function(ns, r)
        for t_idx in [0, *rng.integers(0, ns.cell_count, size=8)]:
            t = vk.element_of(ns, int(t_idx))
            moved = index.translate(t)
            assert not np.shares_memory(moved.cells, index.cells)
            # cell i of the translated function reads from the cell of x - t
            for i in rng.integers(0, ns.cells_at(r), size=16):
                x = vk.element_of(ns, int(i))
                assert moved.cells[int(i)] == vk.sub(x, t).cell_index(r)
            back = moved.translate(vk.neg(t))
            assert np.array_equal(back.cells, index.cells)


def test_reflect_is_negation_and_involution(ns):
    for r in (ns.resolution, ns.resolution - 2, 0):
        index = _index_function(ns, r)
        reflected = index.reflect()
        assert not np.shares_memory(reflected.cells, index.cells)
        want = [vk.neg(vk.element_of(ns, i)).cell_index(r) for i in range(ns.cells_at(r))]
        assert np.array_equal(reflected.cells, want)
        assert np.array_equal(reflected.reflect().cells, index.cells)


def test_coset_key_partitions(ns):
    r = ns.resolution
    for k in range(r + 1):
        key = coset_key_table(ns, r, k)
        counts = np.bincount(key, minlength=ns.M[k])
        assert np.all(counts == ns.cell_count // ns.M[k])


def test_basis_element_digits(ns):
    for k in range(ns.resolution):
        e = vk.basis_element(ns, k)
        assert e.digits[k] == 1
        assert sum(e.digits) == 1
