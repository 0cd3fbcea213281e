import numpy as np
import pytest

import vilenkin as vk
from vilenkin import binomials, characters, families, kernels, oracles, transform, verify
from vilenkin.errors import UsageError


def test_dirichlet_zero_is_zero(ns):
    d = kernels.dirichlet(ns, 0, resolution=ns.resolution)
    assert np.max(np.abs(d.cells)) == 0.0


def test_dirichlet_matches_character_sum(ns):
    # brute-force oracle: D_n = sum_{k<n} psi_k
    T = oracles.dirichlet_table(ns, ns.cell_count)
    acc = np.zeros(ns.cell_count, dtype=np.complex128)
    for n in range(1, ns.cell_count + 1):
        acc += vk.vilenkin_on_cells(ns, n - 1)
        assert np.max(np.abs(T[n] - acc)) < 1e-11
        d = kernels.dirichlet(ns, n, resolution=ns.resolution)
        assert np.max(np.abs(d.cells - acc)) < 1e-11


def test_scale_kernels_exact(ns):
    idx = np.arange(ns.cell_count)
    for k in range(ns.resolution + 1):
        d = kernels.dirichlet(ns, ns.M[k], resolution=ns.resolution)
        exact = ns.M[k] * (idx % ns.M[k] == 0)
        assert np.array_equal(d.cells.real, exact)
        assert np.max(np.abs(d.cells.imag)) == 0.0


def test_dirichlet_mean_one(ns):
    for n in range(1, ns.cell_count + 1):
        d = kernels.dirichlet(ns, n, resolution=ns.resolution)
        assert abs(d.cells.mean() - 1.0) < 1e-10


def test_dirichlet_constant_on_scale_cells(ns):
    # D_n is measurable at scale A+1 when M_A <= n < M_{A+1}: its value
    # depends only on the cell index mod M_{A+1} (digit 0 varies fastest)
    for n in range(1, ns.cell_count):
        A = vk.scale_of(ns, n)
        d = kernels.dirichlet(ns, n, resolution=ns.resolution)
        blocks = d.cells.reshape(-1, ns.M[A + 1])
        assert np.max(np.abs(blocks - blocks[0])) < 1e-12


def test_recursion_report(ns):
    rep = verify.verify_dirichlet_recursions(ns)
    assert set(rep) == {"scale_indicator", "mean", "digit_split",
                        "block_shift", "block_geometric",
                        "reflection", "product_form"}
    assert np.max(list(rep.values())) <= 1e-9


def test_dirichlet_strategies_agree(ns):
    # the Paley recursion of kernels.dirichlet, and the product form the dirichlet suite checks
    T = oracles.dirichlet_table(ns, ns.cell_count)
    rows = verify._product_rows(ns, 0, ns.cell_count, ns.resolution)
    for n in range(ns.cell_count + 1):
        a = kernels.dirichlet(ns, n, resolution=ns.resolution)
        assert np.max(np.abs(a.cells - T[n])) < 1e-11
        if n < ns.cell_count:
            assert np.max(np.abs(rows[n] - T[n])) < 1e-11


def test_dirichlet_grid_and_dtype(ns):
    # the natural grid carries min(n + 1, M_N) frequencies; a coarser one than n's raises
    walsh = set(ns.radix.radices) == {2}
    for n in range(ns.cell_count + 1):
        k = transform.minimal_resolution(ns, n)
        d = kernels.dirichlet(ns, n)
        assert d.resolution == transform.minimal_resolution(ns, min(n + 1, ns.cell_count))
        assert d.cells.dtype == (np.float64 if walsh else np.complex128)
        assert kernels.dirichlet(ns, n, k).resolution == k
        if k:
            with pytest.raises(UsageError):
                kernels.dirichlet(ns, n, k - 1)


def test_dirichlet_rejects_bad_order(ns):
    with pytest.raises(UsageError):
        kernels.dirichlet(ns, ns.cell_count + 1)
    with pytest.raises(UsageError):
        kernels.dirichlet(ns, -1)


def test_fejer_is_cesaro_order_one_mirror(ns, rng):
    # the Fejer kernel, the synthesized Fejer weights, averages the first n Dirichlet kernels
    T = oracles.dirichlet_table(ns, ns.cell_count)
    for n in (1, 3, ns.M[2], ns.cell_count):
        numerators, denominator = n - np.arange(n), n
        k = transform.synthesize(ns, numerators / denominator, ns.resolution)
        avg = T[1 : n + 1].mean(axis=0)
        assert np.max(np.abs(k.cells - avg)) < 1e-11


def test_cesaro_kernel_mean_one(ns):
    for alpha in (0.25, 0.5, 0.75):
        for n in (1, 2, ns.M[1] + 1, ns.cell_count):
            K = kernels.cesaro_kernel(ns, n, alpha)
            assert abs(np.mean(K.cells) - 1.0) < 1e-10


def test_cesaro_kernel_weighted_dirichlet_sum(ns):
    # A_{n-1}^{-alpha} K_n = sum_{j=1}^{n} A_{n-j}^{-alpha-1} D_j
    T = oracles.dirichlet_table(ns, ns.cell_count)
    alpha = 0.5
    for n in (1, 2, 5, ns.M[2], ns.cell_count):
        t1 = binomials.cesaro_table(-alpha - 1.0, n)
        lhs = binomials.cesaro_table(-alpha, n - 1).a(n - 1) * \
            kernels.cesaro_kernel(ns, n, alpha).lift(ns.resolution).cells
        rhs = np.tensordot(t1.values[:n][::-1], T[1 : n + 1], axes=(0, 0))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * n


def test_block_decomposition_all_orders(ns):
    for alpha in (0.25, 0.5, 0.75):
        residuals = verify.block_decomposition_residuals(ns, alpha)
        assert residuals.shape == (ns.cell_count,)
        assert residuals.max() <= 1e-9


@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2], [3, 5, 2]], ids=str)
def test_small_term_batches_move_block_residuals_by_rounding_only(radices, monkeypatch):
    # a few rows per batch: several batches per resolution, and the orders above the
    # table reached depth first
    ns = vk.number_system(radices)
    want = verify.block_decomposition_residuals(ns, 0.4)
    for rows in (1, 3):
        monkeypatch.setattr(verify, "ROW_BLOCK", rows * ns.cell_count)
        got = verify.block_decomposition_residuals(ns, 0.4)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


def test_block_residuals_build_tables_and_characters_once(ns, count_calls):
    tables = count_calls("cesaro_table", module=binomials)
    chars = count_calls("vilenkin_on_cells", module=characters)
    verify.block_decomposition_residuals(ns, 0.5)
    assert len(tables) == 2
    # psi_{base-1} and psi_base once per digit block base = n_k M_k, plus psi_{M_N - 1}
    built = [args[1] for args in chars]
    assert len(set(built)) == len(built)
    assert len(built) <= 2 * sum(m - 1 for m in ns.radix.radices) + 1


def test_majorant_scan_bounded(ns):
    for alpha in (0.25, 0.5, 0.75):
        recs = kernels.majorant_ratio_scan(ns, alpha, range(1, ns.cell_count + 1))
        ratios = [r.sup_ratio for r in recs]
        assert all(np.isfinite(ratios))
        # n = 1 normalizes exactly: K_1 = psi_0 and the majorant term is 1
        assert ratios[0] == pytest.approx(1.0, abs=1e-12)
        assert max(ratios) < 10.0


def _majorant_loop(ns, alpha, n):
    """The per-level form: one masked pass over the cells for each l <= min(A, r)."""
    K = kernels.cesaro_kernel(ns, n, alpha)
    r = K.resolution
    A = vk.scale_of(ns, n) if n < ns.cell_count else ns.resolution
    idx = np.arange(ns.cells_at(r))
    majorant = np.zeros(ns.cells_at(r))
    for l in range(min(A, r) + 1):
        majorant += ns.M[l] ** (1.0 - alpha) * (idx % ns.M[l] == 0)
    ratios = np.abs(K.cells) * abs(binomials.cesaro_table(-alpha, n - 1).a(n - 1)) / majorant
    arg = int(np.argmax(ratios))
    return float(ratios[arg]), arg, r


@pytest.mark.parametrize("radices", [[2] * 6, [2, 3, 4, 2], [5, 3, 7, 2], [40, 2, 3]], ids=str)
def test_majorant_scan_byte_equal_to_level_loop(radices):
    ns = vk.number_system(radices)
    for alpha in (0.3, 0.5, 0.77):
        recs = kernels.majorant_ratio_scan(ns, alpha, range(1, ns.cell_count + 1))
        for rec in recs:
            ratio, arg, r = _majorant_loop(ns, alpha, rec.n)
            assert np.float64(rec.sup_ratio).tobytes() == np.float64(ratio).tobytes()
            assert (rec.argmax_cell, rec.resolution) == (arg, r)


def test_scans_build_one_table_per_call(ns, count_calls):
    tables = count_calls("cesaro_table", module=binomials)
    kernels.majorant_ratio_scan(ns, 0.5, range(1, ns.cell_count + 1))
    assert tables == [(-0.5, ns.cell_count - 1)]
    kernels.coset_decay_scan(ns, 0.5, ns.resolution - 1)
    assert tables[1:] == [(-0.5, ns.M[ns.resolution - 1] - 1)]
    # a one-order call builds the table of that order alone, as cesaro_kernel does
    kernels.majorant_ratio_scan(ns, 0.5, [5])
    kernels.coset_decay_scan(ns, 0.5, 1, [7])
    assert tables[2:] == [(-0.5, 4), (-0.5, 6)]


def test_coset_decay_scan_shape_and_stability(ns):
    k = ns.resolution - 1
    for alpha in (0.25, 0.5, 0.75):
        recs = kernels.coset_decay_scan(ns, alpha, k)
        ns_sorted = sorted(r.n for r in recs)
        assert ns_sorted[0] == ns.M[k - 1] and ns_sorted[-1] == ns.M[k]
        mid = ns_sorted[len(ns_sorted) // 2 - 1]
        lo = max(r.sup_ratio for r in recs if r.n <= mid)
        hi = max(r.sup_ratio for r in recs if r.n > mid)
        assert hi <= 1.5 * lo


def _coset_decay_loop(ns, alpha, k, n):
    """Per-beta oracle: decode the cell of Z_beta^(k) one beta at a time."""
    K = kernels.cesaro_kernel(ns, n, alpha)
    cells = np.array([oracles.coset_rep(ns, beta, k) % ns.M[K.resolution]
                      for beta in range(1, ns.M[k])])
    ratios = np.array([abs(K.cells[c]) * beta ** (1.0 - alpha) / ns.M[k]
                       for beta, c in enumerate(cells, start=1)])
    return ratios, cells


def test_coset_decay_scan_matches_loop(ns):
    for k in sorted({1, 2, ns.resolution - 1, ns.resolution}):
        n_values = sorted({ns.M[k - 1], (ns.M[k - 1] + ns.M[k]) // 2, ns.M[k]})
        for alpha in (0.25, 0.5, 0.75):
            for rec in kernels.coset_decay_scan(ns, alpha, k, n_values):
                want, cells = _coset_decay_loop(ns, alpha, k, rec.n)
                assert rec.sup_ratio == pytest.approx(want.max(), rel=1e-12)
                # ratios agree to rounding, so a tie may break either way
                assert rec.argmax_cell in cells[want >= want.max() * (1 - 1e-12)]


def test_coset_decay_rejects_bad_alpha(ns):
    with pytest.raises(UsageError):
        kernels.coset_decay_scan(ns, 1.5, 2)

