import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vilenkin as vk
from vilenkin import verify
from vilenkin.characters import (analysis_matrix, character_block, root_table,
                                 synthesis_matrix, vilenkin_on_cells)
from vilenkin.errors import ValidationError
from vilenkin.group import digit_matrix


def _sum_cell(ns, i, j):
    """Cell index of x_i + x_j: the digit rows added mod m."""
    D = digit_matrix(ns, ns.resolution)
    return int(((D[i] + D[j]) % np.array(ns.radix.radices)) @ np.array(ns.M[:-1]))


def test_root_table_values():
    r2 = root_table(2)
    assert r2[0] == 1 and r2[1] == -1
    r3 = root_table(3)
    assert r3[1] == pytest.approx(complex(-0.5, np.sqrt(3) / 2), abs=1e-15)
    r4 = root_table(4)
    assert r4[1] == pytest.approx(1j, abs=1e-15)


def test_rademacher_values(mixed):
    # r_k = psi_{M_k}, read at the cell of x
    def rademacher(x, k):
        return vilenkin_on_cells(mixed, mixed.M[k])[x]

    assert rademacher(1, 0) == -1        # x = 1: digits (1, 0, 0, 0), m_0 = 2
    assert rademacher(2, 1) == pytest.approx(  # x = 2: digits (0, 1, 0, 0), m_1 = 3
        complex(-0.5, np.sqrt(3) / 2), abs=1e-15)
    assert rademacher(0, 2) == 1


def test_vilenkin_unit_modulus(ns):
    for n in range(ns.cell_count):
        vals = vilenkin_on_cells(ns, n)
        assert np.allclose(np.abs(vals), 1.0, atol=1e-12)


def test_vilenkin_zero_is_one(ns):
    assert np.array_equal(vilenkin_on_cells(ns, 0), np.ones(ns.cell_count))


def test_walsh_case_is_sign_pattern(walsh):
    # psi_3 = r_0 r_1 evaluated at digits (1, 1) gives (-1)(-1) = 1
    vals = vilenkin_on_cells(walsh, 3)
    assert vals[3] == 1
    assert set(np.unique(vals.real)) == {-1.0, 1.0}
    assert np.max(np.abs(vals.imag)) == 0.0


def test_character_law_multiplicative(ns, rng):
    # psi_n(x + y) = psi_n(x) psi_n(y) on every cell pair sampled
    r = ns.resolution
    for n in rng.integers(0, ns.cell_count, size=6):
        vals = vilenkin_on_cells(ns, int(n), r)
        for i in rng.integers(0, ns.cell_count, size=8):
            for j in rng.integers(0, ns.cell_count, size=8):
                lhs = vals[_sum_cell(ns, i, j)]
                assert lhs == pytest.approx(vals[int(i)] * vals[int(j)], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 47), i=st.integers(0, 47), j=st.integers(0, 47))
def test_character_law_hypothesis(n, i, j):
    ns = vk.number_system([2, 3, 4, 2])
    vals = vilenkin_on_cells(ns, n)
    lhs = vals[_sum_cell(ns, i, j)]
    assert lhs == pytest.approx(vals[i] * vals[j], abs=1e-12)


def test_character_block_matches_single(ns):
    F = character_block(ns, 0, ns.cell_count)
    for n in range(0, ns.cell_count, 7):
        assert np.array_equal(F[:, n], vilenkin_on_cells(ns, n))


def test_gram_identity(ns):
    F = character_block(ns, 0, ns.cell_count)
    gram = F.conj().T @ F / ns.cell_count
    assert np.max(np.abs(gram - np.eye(ns.cell_count))) < 1e-12


def test_synthesis_analysis_inverse():
    for m in (2, 3, 4, 5):
        S, A = synthesis_matrix(m), analysis_matrix(m)
        assert np.allclose(A @ S / m, np.eye(m), atol=1e-14)


def test_shift_identity_residual(ns):
    assert verify.character_shift_residual(ns) < 1e-12


def test_unity_gap(ns):
    identity_res, margin = verify.unity_gap_residual(ns)
    assert identity_res < 1e-12
    # every nonunit character value keeps distance 2 sin(pi / max_radix) from 1
    assert margin >= -1e-12


def test_vilenkin_frequency_range(ns):
    with pytest.raises(ValidationError):
        vilenkin_on_cells(ns, ns.cell_count)
    with pytest.raises(ValidationError):
        vilenkin_on_cells(ns, -1)
