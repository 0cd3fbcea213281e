"""Characters on the digit tensor against the digit-table gathers they replaced.

Each oracle below reads r_j^a on every cell as root_table(m_j)[(a x_j) mod m_j],
with x_j gathered from the (M_r, r) digit_matrix, and multiplies or adds the
values in the order the library does. The tensor forms must reproduce them
byte for byte, signed zeros included.
"""

import numpy as np
import pytest

import vilenkin as vk
from vilenkin import characters, families, kernels, verify
from vilenkin.characters import root_table, synthesis_matrix
from vilenkin.group import digit_matrix, digits_of, scale_of


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _gathered(ns, r, j, a):
    """r_j^a on every resolution-r cell, gathered through the digit table."""
    m = ns.radix.radices[j]
    return root_table(m)[(a * digit_matrix(ns, r)[:, j]) % m]


def vilenkin_on_cells_oracle(ns, n, r):
    out = np.ones(ns.cells_at(r), dtype=np.complex128)
    for j, nj in enumerate(digits_of(ns, n)[:r]):
        if nj:
            out *= _gathered(ns, r, j, nj)
    return out


def character_block_oracle(ns, start, stop, r):
    D = digit_matrix(ns, r)
    rows = np.arange(start, stop, dtype=np.int64)
    out = np.ones((stop - start, ns.cells_at(r)), dtype=np.complex128)
    for j in range(r):
        m = ns.radix.radices[j]
        nj = (rows // ns.M[j]) % m
        if np.any(nj):
            out *= synthesis_matrix(m)[np.ix_(nj, D[:, j])]
    return out


def product_form_oracle(ns, n, r):
    cells = ns.cells_at(r)
    idx = np.arange(cells)
    acc = np.zeros(cells, dtype=np.complex128)
    for j, nj in enumerate(digits_of(ns, n)):
        if nj:
            m = ns.radix.radices[j]
            gsum = np.zeros(cells, dtype=np.complex128)
            for a in range(m - nj, m):
                gsum += _gathered(ns, r, j, a)
            acc += ns.M[j] * (idx % ns.M[j] == 0) * gsum
    return vilenkin_on_cells_oracle(ns, n, r) * acc


def lacunary_oracle(ns, coeffs, r):
    cells = np.zeros(ns.cells_at(r), dtype=np.float64)
    for k, ck in enumerate(coeffs):
        if ck:
            cells += ck * _gathered(ns, r, k, 1).real
    return cells


def shift_residual_oracle(ns):
    r = ns.resolution
    worst = 0.0
    for k in range(r):
        m = ns.radix.radices[k]
        roots = root_table(m)
        tk = digit_matrix(ns, r)[:, k]
        for nk in range(1, m):
            lhs = roots[(-nk) % m] * roots[(nk * tk) % m]
            rhs = roots[(nk * ((tk - 1) % m)) % m]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def recursions_oracle(ns):
    """The residual dict of verify.verify_dirichlet_recursions, built from gathered characters.

    product_form reads verify._product_rows, which test_product_rows_bitwise
    pins to its own oracle, and kernels.dirichlet at n = M_N.
    """
    N, cells = ns.resolution, ns.cell_count
    T = np.zeros((cells + 1, cells), dtype=np.complex128)
    T[1:] = np.cumsum(character_block_oracle(ns, 0, cells, N), axis=0)
    idx = np.arange(cells)
    powers = [np.stack([_gathered(ns, N, k, a) for a in range(m + 1)])
              for k, m in enumerate(ns.radix.radices)]
    res = dict.fromkeys(("scale_indicator", "mean", "digit_split", "block_shift",
                         "block_geometric", "reflection", "product_form"), 0.0)

    def bump(key, diff):
        res[key] = max(res[key], float(np.abs(diff).max()))

    for k in range(N + 1):
        bump("scale_indicator", T[ns.M[k]] - np.where(idx % ns.M[k] == 0, ns.M[k], 0))
    # the mean of an order of scale s over its own M_{s+1} cells, of M_N over all cells
    for s in range(N):
        for n in range(ns.M[s], ns.M[s + 1]):
            bump("mean", T[n, : ns.M[s + 1]].mean() - 1.0)
    bump("mean", T[cells].mean() - 1.0)
    for k, m in enumerate(ns.radix.radices):
        Mk = ns.M[k]
        geo = np.cumsum(powers[k][:m], axis=0)
        for nk in range(1, m):
            base = nk * Mk
            for rest in range(Mk):
                bump("digit_split",
                     T[base + rest] - geo[nk - 1] * T[Mk] - powers[k][nk] * T[rest])
            for j in range(Mk + 1):
                bump("block_shift", T[base + j] - T[base] - powers[k][nk] * T[j])
        for rr in range(1, m + 1):
            base = rr * Mk
            for j in range(1 if rr == m else Mk):
                bump("block_geometric",
                     T[base + j] - geo[rr - 1] * T[Mk] - powers[k][rr] * T[j])
    for s, m in enumerate(ns.radix.radices):
        for n_s in range(1, m):
            base = n_s * ns.M[s]
            psi = vilenkin_on_cells_oracle(ns, base - 1, N)
            for j in range(base + 1):
                bump("reflection", T[base - j] - T[base] + psi * T[j].conj())
    for n in range(1, cells):  # each order on its own grid, as the suite's rows are
        prod = verify._product_rows(ns, n, n + 1, scale_of(ns, n) + 1)[0]
        bump("product_form", np.tile(prod, cells // len(prod)) - T[n])
    bump("product_form", kernels.dirichlet(ns, cells).cells - T[cells])
    return res


def test_character_block_bitwise(ns):
    for r in range(ns.resolution + 1):
        assert _same(characters.character_block(ns, 0, ns.M[r], r),
                     character_block_oracle(ns, 0, ns.M[r], r))
    start, stop = ns.cell_count // 3, 2 * ns.cell_count // 3
    assert _same(characters.character_block(ns, start, stop),
                 character_block_oracle(ns, start, stop, ns.resolution))
    assert characters.character_block(ns, 5, 5).shape == (0, ns.cell_count)


# grids where the product's operand order shows in the last bits, and a radix above the block cap
MORE_GRIDS = [[3, 5, 2], [7, 2, 3], [2, 3, 4, 2, 3, 2, 2], [40, 2, 3]]


@pytest.mark.parametrize("radices", MORE_GRIDS, ids=str)
def test_character_block_bitwise_more_grids(radices):
    # the short blocks leave some digits 0 in every row
    ns = vk.number_system(radices)
    M = ns.M
    for r in range(ns.resolution + 1):
        assert _same(characters.character_block(ns, 0, M[r], r),
                     character_block_oracle(ns, 0, M[r], r))
    for start, stop in ((ns.cell_count // 3, 2 * ns.cell_count // 3), (0, 1), (1, 2),
                        (M[1], M[1] + 1), (M[2], M[2] + M[1]), (M[-1] - 1, M[-1])):
        for r in range(ns.resolution + 1):
            if stop <= M[r]:
                assert _same(characters.character_block(ns, start, stop, r),
                             character_block_oracle(ns, start, stop, r)), (start, stop, r)


def test_vilenkin_on_cells_bitwise(ns):
    for r in range(ns.resolution + 1):
        for n in range(ns.M[r]):
            assert _same(characters.vilenkin_on_cells(ns, n, r),
                         vilenkin_on_cells_oracle(ns, n, r))


@pytest.mark.parametrize("radices", MORE_GRIDS, ids=str)
def test_vilenkin_on_cells_bitwise_more_grids(radices):
    test_vilenkin_on_cells_bitwise(vk.number_system(radices))


def test_product_rows_bitwise(ns):
    # one order at a time, on its own grid and on the whole group
    for n in range(ns.cell_count):
        scale = scale_of(ns, n) if n else -1
        assert _same(verify._product_rows(ns, n, n + 1, scale + 1)[0],
                     product_form_oracle(ns, n, scale + 1))
        assert _same(verify._product_rows(ns, n, n + 1, ns.resolution)[0],
                     product_form_oracle(ns, n, ns.resolution))


def test_lacunary_bitwise(ns):
    # the family is real on every grid: float64 cells, against a float64 oracle
    full = families.inverse_scale_coeffs(ns)
    f = families.lacunary(ns, full)
    assert f.cells.dtype == np.float64
    assert _same(f.cells, lacunary_oracle(ns, full, ns.resolution))
    coarse = [0.5, 0.0, -1.25]
    r = ns.resolution - 1
    assert _same(families.lacunary(ns, coarse, r).cells, lacunary_oracle(ns, coarse, r))


def test_character_shift_residual_bitwise(ns):
    assert verify.character_shift_residual(ns) == shift_residual_oracle(ns)


def test_recursion_residuals_bitwise(ns):
    got = verify.verify_dirichlet_recursions(ns)
    want = recursions_oracle(ns)
    assert sorted(got) == sorted(want)
    for key in want:
        assert np.float64(got[key]).tobytes() == np.float64(want[key]).tobytes(), key


def test_character_paths_make_no_digit_matrix_call(ns, count_calls):
    calls = count_calls("digit_matrix")
    characters.character_block(ns, 0, ns.cell_count)
    characters.vilenkin_on_cells(ns, ns.cell_count - 1)
    kernels.dirichlet(ns, ns.cell_count - 1)
    verify._product_rows(ns, 0, ns.cell_count, ns.resolution)
    families.lacunary(ns, families.inverse_scale_coeffs(ns))
    families.random_lipschitz(ns, np.random.default_rng(0))
    assert calls == []
