"""Dirichlet identities on bounded blocks of rows against the (M+1) x M table form.

The table-form loops below are the checks as they were written on a dense
table of D_0 .. D_M. verify_dirichlet_recursions and
block_decomposition_residuals must check the same parameter tuples, give the
same answers to rounding, and never hold the table.
"""

import ast
import pathlib

import numpy as np
import pytest

import vilenkin as vk
from vilenkin import binomials, kernels, oracles
from vilenkin.characters import synthesis_matrix, vilenkin_on_cells
from vilenkin.group import digit_axis, digit_tensor

SRC = pathlib.Path(kernels.__file__).parent

GRIDS = ([2] * 6, [2, 3, 4, 2], [3, 5, 2], [2] * 8, [7, 2, 3], [4, 3, 2, 5])
ALPHAS = (0.25, 0.5, 0.75)


def table_recursions(ns, T):
    """The residual dict of verify_dirichlet_recursions, read off the table T."""
    N, cells = ns.resolution, ns.cell_count
    idx = np.arange(cells)
    powers = [digit_axis(synthesis_matrix(m)[np.arange(m + 1) % m], ns, N, k)
              for k, m in enumerate(ns.radix.radices)]
    Tt = digit_tensor(T, ns, N)
    res = dict.fromkeys(("scale_indicator", "mean", "digit_split", "block_shift",
                         "block_geometric", "reflection", "product_form"), 0.0)

    def bump(key, diff):
        res[key] = max(res[key], float(np.abs(diff).max()))

    for k in range(N + 1):
        bump("scale_indicator", T[ns.M[k]] - np.where(idx % ns.M[k] == 0, ns.M[k], 0))
    res["mean"] = float(np.abs(T[1:].mean(axis=1) - 1.0).max())
    for k, m in enumerate(ns.radix.radices):
        Mk = ns.M[k]
        geo = np.cumsum(powers[k][:m], axis=0)
        for nk in range(1, m):
            base = nk * Mk
            for rest in range(Mk):
                bump("digit_split",
                     Tt[base + rest] - geo[nk - 1] * Tt[Mk] - powers[k][nk] * Tt[rest])
            for j in range(Mk + 1):
                bump("block_shift", Tt[base + j] - Tt[base] - powers[k][nk] * Tt[j])
        for rr in range(1, m + 1):
            base = rr * Mk
            for j in range(1 if rr == m else Mk):
                bump("block_geometric",
                     Tt[base + j] - geo[rr - 1] * Tt[Mk] - powers[k][rr] * Tt[j])
    for s, m in enumerate(ns.radix.radices):
        for n_s in range(1, m):
            base = n_s * ns.M[s]
            psi = vilenkin_on_cells(ns, base - 1, N)
            for j in range(base + 1):
                bump("reflection", T[base - j] - T[base] + psi * T[j].conj())
    for n in range(1, cells + 1):
        bump("product_form", kernels.dirichlet_product(ns, n).lift(N).cells - T[n])
    return res


def table_block_residuals(ns, alpha, T):
    """block_decomposition_residuals for every order, each sum a contraction with T."""
    N, cells = ns.resolution, ns.cell_count
    t0 = binomials.cesaro_table(-alpha, cells - 1)
    t1 = binomials.cesaro_table(-alpha - 1, cells - 1)
    out = np.empty(cells)
    for n in range(1, cells + 1):
        lhs = np.tensordot(t1.values[:n][::-1], T[1 : n + 1], axes=(0, 0))
        dd = [0] * N + [1] if n == cells else list(vk.digits_of(ns, n))
        rhs = np.zeros(cells, dtype=np.complex128)
        suffix = np.ones(cells, dtype=np.complex128)
        trunc = n
        for k in range(len(dd) - 1, -1, -1):
            if dd[k] == 0:
                continue
            base = dd[k] * ns.M[k]
            below = trunc - base
            inner = np.tensordot(t1.values[below : below + base], T[:base], axes=(0, 0)).conj()
            rhs += suffix * (T[base] * t0.a(trunc - 1)
                             - vilenkin_on_cells(ns, base - 1, N) * inner)
            if k < N:
                suffix = suffix * vilenkin_on_cells(ns, base, N)
            trunc = below
        out[n - 1] = np.abs(lhs - rhs).max()
    return out


@pytest.fixture(params=GRIDS, ids=lambda g: "-".join(map(str, g)))
def grid(request):
    return vk.number_system(request.param)


def test_recursions_match_the_table_form(grid):
    got = kernels.verify_dirichlet_recursions(grid).residuals
    want = table_recursions(grid, oracles.dirichlet_table(grid, grid.cell_count))
    assert sorted(got) == sorted(want)
    if set(grid.radix.radices) == {2}:
        assert set(got.values()) == set(want.values()) == {0.0}
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12, key


def test_block_residuals_match_the_table_form(grid):
    T = oracles.dirichlet_table(grid, grid.cell_count)
    for alpha in ALPHAS:
        got = kernels.block_decomposition_residuals(grid, alpha)
        want = table_block_residuals(grid, alpha, T)
        assert got.shape == want.shape == (grid.cell_count,)
        assert got.max() <= 1e-12
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("radices", ([2, 3, 4, 2], [3, 5, 2], [2] * 6))
def test_row_block_bound_leaves_residuals_unchanged(radices, monkeypatch):
    ns = vk.number_system(radices)
    want = kernels.verify_dirichlet_recursions(ns).residuals
    for rows in (1, 3):
        monkeypatch.setattr(kernels, "ROW_BLOCK", rows * ns.cell_count)
        assert kernels.verify_dirichlet_recursions(ns).residuals == want


@pytest.mark.parametrize("first, last, r", [(0, 48, 4), (48, 0, 4), (7, 30, 4), (30, 7, 4),
                                             (5, 5, 4), (20, 3, 3)],
                         ids=["0-48", "48-0", "7-30", "30-7", "5-5", "20-3-at-3"])
def test_rows_are_bounded_blocks_of_the_table(first, last, r, monkeypatch):
    # a row at resolution r is the row on the first M_r cells: the digits from r up are 0
    ns = vk.number_system([2, 3, 4, 2])
    T = oracles.dirichlet_table(ns, ns.cell_count)
    monkeypatch.setattr(kernels, "ROW_BLOCK", 5 * ns.cells_at(r))
    blocks = list(kernels._dirichlet_rows(ns, first, last, r))
    assert all(1 <= len(b) <= 5 and b.shape[1] == ns.cells_at(r) for b in blocks)
    step = 1 if last >= first else -1
    rows = np.concatenate(blocks)
    assert np.max(np.abs(rows - T[np.arange(first, last + step, step), : ns.cells_at(r)])) < 1e-12


def _perturbing(rows, n, delta):
    """_dirichlet_rows with delta added to every D_n it hands out."""
    def perturbed(ns, first, last, resolution):
        step = 1 if last >= first else -1
        at = first
        for block in rows(ns, first, last, resolution):
            block = block.copy()
            i = (n - at) * step
            if 0 <= i < len(block):
                block[i] += delta
            at += step * len(block)
            yield block
    return perturbed


@pytest.mark.parametrize("radices", ([2, 3, 4, 2], [2] * 5))
def test_perturbed_rows_move_the_same_keys(radices, monkeypatch):
    ns = vk.number_system(radices)
    delta = 0.5 + 0.25j
    T = oracles.dirichlet_table(ns, ns.cell_count)
    table_base = table_recursions(ns, T)
    rows_base = kernels.verify_dirichlet_recursions(ns).residuals
    real = kernels._dirichlet_rows
    for n in range(ns.cell_count + 1):
        Tn = T.copy()
        Tn[n] += delta
        table = table_recursions(ns, Tn)
        monkeypatch.setattr(kernels, "_dirichlet_rows", _perturbing(real, n, delta))
        rows = kernels.verify_dirichlet_recursions(ns).residuals
        moved_table = {key for key in table if table[key] != table_base[key]}
        moved_rows = {key for key in rows if rows[key] != rows_base[key]}
        assert moved_rows == moved_table, n
        assert moved_rows


def _uses_table(tree) -> bool:
    """Whether the module defines dirichlet_table or calls it, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "dirichlet_table":
            return True
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "dirichlet_table") or \
                    (isinstance(f, ast.Attribute) and f.attr == "dirichlet_table"):
                return True
    return False


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")
                                          if p.stem != "oracles"))
def test_only_the_oracles_build_the_table(module):
    assert not _uses_table(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))


def test_table_guard_detects_a_definition_and_a_call():
    for src in ("def dirichlet_table(ns, n):\n    pass",
                "T = dirichlet_table(ns, 8)",
                "T = oracles.dirichlet_table(ns, ns.cell_count)"):
        assert _uses_table(ast.parse(src))
    assert not _uses_table(ast.parse("rows = _dirichlet_rows(ns, 0, 8)"))


@pytest.mark.parametrize("radices", ([2] * 8, [2, 3, 4, 2, 3, 2]), ids=str)
def test_recursions_build_at_most_four_tables_of_entries(radices, monkeypatch):
    # each digit's rows live at its own resolution, so the scan builds a few
    # M_N x M_N tables' worth of character entries, not one per identity
    ns = vk.number_system(radices)
    real = kernels.character_block
    entries = []

    def counted(ns, start, stop, resolution=None):
        out = real(ns, start, stop, resolution)
        entries.append(out.size)
        return out

    monkeypatch.setattr(kernels, "character_block", counted)
    kernels.verify_dirichlet_recursions(ns)
    assert sum(entries) <= 4 * ns.cell_count ** 2
