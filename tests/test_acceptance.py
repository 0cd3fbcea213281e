"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines with their measured margins.
"""

import json
import time

import numpy as np
import pytest

import vilenkin as vk
from vilenkin import cli, families, kernels, oracles, oscillation, transform, verify

WALSH6 = vk.number_system([2] * 6)     # 64 cells
MIXED4 = vk.number_system([2, 3, 4, 2])  # 48 cells
WALSH8 = vk.number_system([2] * 8)     # 256 cells
MIXED6 = vk.number_system([2, 3, 4, 2, 3, 2])  # 288 cells
ALPHAS = (0.25, 0.5, 0.75)


def report(num, name, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num:2d}: {name} ({detail})")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_exact_dirichlet_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for ns in (WALSH6, MIXED4):
        rep = verify.verify_dirichlet_recursions(ns)
        worst = max(worst, np.max(list(rep.values())))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 60.0
    report(1, "kernel recursion identities", ok,
           f"max residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_block_decomposition():
    worst = 0.0
    for ns in (WALSH6, MIXED4):
        for alpha in ALPHAS:
            worst = max(worst, float(verify.block_decomposition_residuals(ns, alpha).max()))
    report(2, "summation-by-parts block decomposition", worst <= 1e-9,
           f"max residual {worst:.2e}")


def test_criterion_03_scale_kernels_and_means():
    exact = True
    mean_worst = 0.0
    for ns in (WALSH6, MIXED4):
        idx = np.arange(ns.cell_count)
        for k in range(ns.resolution + 1):
            d = kernels.dirichlet(ns, ns.M[k], resolution=ns.resolution)
            want = ns.M[k] * (idx % ns.M[k] == 0)
            exact &= bool(np.array_equal(d.cells.real, want)
                          and np.max(np.abs(d.cells.imag)) == 0.0)
        mean_worst = max(mean_worst, verify.verify_dirichlet_recursions(ns)["mean"])
    ok = exact and mean_worst <= 1e-10
    report(3, "scale kernels exact, unit kernel means", ok,
           f"indicator exact={exact}, mean residual {mean_worst:.2e}")


def test_criterion_04_orthonormality_parseval():
    F = vk.character_block(WALSH8, 0, WALSH8.cell_count)
    gram = F @ F.conj().T / WALSH8.cell_count
    gram_res = float(np.max(np.abs(gram - np.eye(WALSH8.cell_count))))
    rng = np.random.default_rng(0)
    parseval = 0.0
    for _ in range(50):
        f = families.random_cells(WALSH8, rng)
        c = transform.forward(f)
        lhs = float(np.mean(np.abs(f.cells) ** 2))
        rhs = float(np.sum(np.abs(c.coeffs) ** 2))
        parseval = max(parseval, abs(lhs - rhs) / max(lhs, 1.0))
    ok = gram_res <= 1e-10 and parseval <= 1e-9
    report(4, "orthonormality and Parseval", ok,
           f"gram {gram_res:.2e}, parseval {parseval:.2e}")


def test_criterion_05_binomial_identities():
    ident = 0.0
    for a in ALPHAS:
        for alpha in (a, -a):
            ident = max(ident, np.max(verify.identity_report(alpha, 10_000)))
    ratio = max(verify.asymptotic_ratio_residual(0.5, 10_000),
                verify.asymptotic_ratio_residual(-0.5, 10_000))
    ok = ident <= 1e-10 and ratio <= 0.01
    report(5, "binomial recurrence identities and ratio asymptotics", ok,
           f"identity residual {ident:.2e}, ratio deviation {ratio:.2e}")


def test_criterion_06_route_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0
    for ns in (WALSH6, MIXED4):
        f = families.random_cells(ns, rng)
        for alpha in ALPHAS:
            for n in range(1, min(64, ns.cell_count) + 1):
                a = transform.cesaro_mean(f, n, alpha)
                b = oracles.cesaro_mean_partial_sums(f, n, alpha)
                c = transform.convolve(
                    f, kernels.cesaro_kernel(ns, n, alpha, resolution=f.resolution))
                res = max(transform.sup_distance(a, b),
                          transform.sup_distance(a, c)) / (1e-9 * n)
                worst = max(worst, res)
    report(6, "three summation routes agree", worst <= 1.0,
           f"worst residual {worst:.3f} of allowance")


def _halves_factor(records):
    ns_sorted = sorted(r.n for r in records)
    mid = ns_sorted[len(ns_sorted) // 2 - 1]
    lo = max(r.sup_ratio for r in records if r.n <= mid)
    hi = max(r.sup_ratio for r in records if r.n > mid)
    return hi / lo if lo else float("inf")


def test_criterion_07_bound_scan_stability():
    finite = True
    worst_factor = 0.0
    for ns in (WALSH8, MIXED6):
        for alpha in ALPHAS:
            recs = kernels.majorant_ratio_scan(
                ns, alpha, range(1, ns.cell_count + 1))
            finite &= bool(np.all([np.isfinite(r.sup_ratio) for r in recs]))
            worst_factor = max(worst_factor, _halves_factor(recs))
            recs = kernels.coset_decay_scan(ns, alpha, ns.resolution - 1)
            finite &= bool(np.all([np.isfinite(r.sup_ratio) for r in recs]))
            worst_factor = max(worst_factor, _halves_factor(recs))
    ok = finite and worst_factor <= 1.5
    report(7, "bound scans finite and stable", ok,
           f"worst half-range factor {worst_factor:.3f}")


def test_criterion_08_convergence_demonstration():
    t0 = time.perf_counter()
    ns = vk.number_system([2] * 10)
    f = families.lacunary(ns, families.inverse_scale_coeffs(ns))
    rep = oscillation.oscillation_series(f, 0.5)
    incs = np.diff(rep.partials)
    cauchy = bool(np.all(np.diff(incs) <= 1e-15))
    errs = []
    for k in range(2, 10):
        mean = transform.cesaro_mean(f, ns.M[k], 0.5)
        errs.append(transform.sup_distance(mean, f))
    shrunk = errs[-1] <= 0.25 * errs[0]
    tail_monotone = all(b <= a * (1 + 1e-12) for a, b in zip(errs[-4:], errs[-3:]))
    elapsed = time.perf_counter() - t0
    ok = cauchy and shrunk and tail_monotone and elapsed <= 300.0
    report(8, "uniform convergence on a lacunary function", ok,
           f"sup error {errs[0]:.3e} -> {errs[-1]:.3e}, {elapsed:.2f}s")


def test_criterion_09_hypothesis_evaluators():
    zero_ok = True
    for ns in (WALSH6, MIXED4):
        const = transform.StepFunction(
            ns, ns.resolution, np.full(ns.cell_count, 2.5, dtype=np.complex128))
        coarse = families.digit_indicator(ns, 1, 0)
        for k in (1, 2, ns.resolution - 1):
            for alpha in ALPHAS:
                zero_ok &= oscillation.difference_condition(const, k, alpha) == 0.0
                zero_ok &= oscillation.difference_condition(coarse, k, alpha) == 0.0
    ns10 = vk.number_system([2] * 10)
    M = oscillation.YoungFunction(p=2.0)
    conv = oscillation.young_series(M, ns10, 0.25).converges
    div = oscillation.young_series(M, ns10, 0.75).converges
    ok = zero_ok and conv is True and div is False
    report(9, "difference condition zeros and series verdicts", ok,
           f"zeros exact={zero_ok}, p=2 converges@0.25={conv}, diverges@0.75={not div}")


def test_criterion_10_transform_performance():
    ns = vk.number_system([2] * 12)
    rng = np.random.default_rng(7)
    f = families.random_cells(ns, rng)
    t0 = time.perf_counter()
    fast = transform.forward(f)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = oracles.forward(f)
    t_naive = time.perf_counter() - t0
    diff = float(np.max(np.abs(fast.coeffs - naive.coeffs)))
    speedup = t_naive / t_fast
    ok = diff <= 1e-10 and speedup >= 10.0
    report(10, "staged transform beats the quadratic oracle", ok,
           f"diff {diff:.2e}, speedup {speedup:.0f}x at 4096 cells")


def test_criterion_11_reproducible_artifacts(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radix": {"constant": 2, "length": 6}}),
                   encoding="utf-8")
    files = ("v/report.json", "v/run_meta.json", "c/converge.csv",
             "k/kernel_scan.csv", "k/kernel_scan_summary.json",
             "o/oscillation.csv")
    for d in ("r1", "r2"):
        base = tmp_path / d
        args = ["--config", str(cfg), "--seed", "11"]
        assert cli.main(["verify", *args, "--out", str(base / "v")]) == 0
        assert cli.main(["converge", *args, "--out", str(base / "c")]) == 0
        assert cli.main(["kernel-scan", *args, "--out", str(base / "k")]) == 0
        assert cli.main(["oscillation", *args, "--out", str(base / "o")]) == 0
    identical = all((tmp_path / "r1" / rel).read_bytes()
                    == (tmp_path / "r2" / rel).read_bytes() for rel in files)
    report(11, "byte-identical artifacts across reruns", identical,
           f"{len(files)} artifacts compared")
