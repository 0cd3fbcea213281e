"""Config-driven experiment runner.

Subcommands: verify, converge, kernel-scan, oscillation, bench.  main
merges and parses the config (config.py) before any work, and each runner
reads the resulting Config.  For a fixed config and seed every CSV/JSON
artifact is byte-identical across runs, except timings.json, which holds
wall-clock measurements and is excluded from that contract.

Exit codes: 0 all checks pass, 1 an assertion failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import binomials, config, kernels, oracles, oscillation, transform
from .characters import ROW_BLOCK, character_block, character_shift_residual, unity_gap_residual
from .config import Config, merge_config, n_schedule, parse
from .errors import ConfigurationError, VilenkinError
from .families import random_cells
from .group import NumberSystem, coset_key_table, digit_matrix, scale_of
from .oscillation import difference_conditions, oscillation_profile
from .transform import StepFunction, forward, inverse, sup_distance

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# artifact writers

def fmt_float(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) < 1e-4:
        return "%.12e" % v
    return repr(float(v))


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """One line per row; a cell holding a comma (a label such as lacunary-0.5,2.0) is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_run_meta(cfg: Config, command: str) -> None:
    meta = {
        "command": command,
        "config": {k: cfg.merged[k] for k in sorted(cfg.merged) if k != "out"},
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
    }
    write_json(os.path.join(cfg.out, "run_meta.json"), meta)


def _out_dir(cfg: Config) -> str:
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except (OSError, ValueError) as e:
        raise ConfigurationError(f"cannot create output directory {cfg.out!r}: {e}")
    return cfg.out


# ---------------------------------------------------------------------------
# verify suites

def _worst(*values: float) -> float:
    """The largest of values, NaN if any is NaN (Python's max drops a NaN that is not first)."""
    return float(np.max(values))


def _suite_group(ns: NumberSystem, rng: np.random.Generator) -> dict:
    r = ns.resolution
    cells = ns.cells_at(r)
    failures = 0
    # digit expansion and cell index are mutually inverse on every cell
    D = digit_matrix(ns, r)
    weights = np.array(ns.M[:r], dtype=np.int64)
    failures += int(not np.array_equal(D @ weights, np.arange(cells)))
    # the digit-axis actions against digit-row arithmetic on every cell: cell x
    # of the index function translated by t holds the cell of x - t,
    # sum_j ((x_j - t_j) mod m_j) M_j, and row a of table j holds that term for
    # t_j = a and every x; translating back by -t is the identity. A block of M_l
    # t (ROW_BLOCK entries at most) shares its digits from l up with its first t, a
    tables = [((D[:, j] - np.arange(m)[:, None]) % m) * ns.M[j]
              for j, m in enumerate(ns.radix.radices)]
    index = StepFunction(ns, r, np.arange(cells))
    block = max(m for m in ns.M if m <= max(1, ROW_BLOCK // cells))
    first = sum(table[D[:block, j]] for j, table in enumerate(tables))  # x - t for t < M_l
    for a in range(0, cells, block):
        minus = first + sum(table[D[a, j]] - table[0] for j, table in enumerate(tables))
        for t, minus_t in enumerate(minus, start=a):
            moved = index.translate(t)
            failures += int(not np.array_equal(moved.cells, minus_t))
            back = moved.translate(int(minus_t[0]))
            failures += int(not np.array_equal(back.cells, index.cells))
    reflected = index.reflect()
    # and the reflection holds the cell of -x
    failures += int(not np.array_equal(reflected.cells, (-D % ns.radix.radices) @ weights))
    failures += int(not np.array_equal(reflected.reflect().cells, index.cells))
    # cosets at every level partition the cells evenly
    for k in range(r + 1):
        counts = np.bincount(coset_key_table(ns, r, k), minlength=ns.M[k])
        failures += int(not np.all(counts == cells // ns.M[k]))
    return {"passed": failures == 0, "max_residual": float(failures),
            "details": {"cells": cells, "failures": failures}}


def _suite_characters(ns: NumberSystem, rng: np.random.Generator) -> dict:
    r = ns.resolution
    cells = ns.cells_at(r)
    # row a of the Gram, <psi_a, psi_k> / M for every k, is the analysis of psi_a:
    # one fast transform per block of character rows, never the (M, M) matrix
    gram_res = 0.0
    height = max(1, ROW_BLOCK // cells)
    for a in range(0, cells, height):
        b = min(cells, a + height)
        rows = character_block(ns, a, b, r)
        gram = transform._staged(rows, ns, r, analysis=True).reshape(b - a, cells) / cells
        gram[np.arange(b - a), np.arange(a, b)] -= 1.0
        gram_res = _worst(gram_res, np.abs(gram).max())
    shift_res = character_shift_residual(ns)
    identity_res, gap_margin = unity_gap_residual(ns)
    passed = gram_res <= 1e-10 and shift_res <= 1e-10 \
        and identity_res <= 1e-10 and gap_margin >= -1e-12
    return {"passed": passed, "max_residual": _worst(gram_res, shift_res, identity_res),
            "details": {"gram": gram_res, "shift": shift_res,
                        "unity_identity": identity_res, "gap_margin": gap_margin}}


def _suite_binomials(ns: NumberSystem, rng: np.random.Generator) -> dict:
    details = {}
    worst = 0.0
    for a in (0.25, 0.5, 0.75, 0.9):
        for alpha in (a, -a):
            rep = binomials.identity_report(alpha, 10_000)
            details[f"identities_{alpha}"] = rep.max_residual
            worst = _worst(worst, rep.max_residual)
    ratio = _worst(binomials.asymptotic_ratio_residual(0.5, 10_000),
                   binomials.asymptotic_ratio_residual(-0.5, 10_000))
    details["ratio_residual"] = ratio
    t = binomials.cesaro_table(-0.5, 1000)
    monotone = bool(np.all(t.values > 0) and np.all(np.diff(t.values) < 0))
    details["negative_order_decreasing"] = monotone
    passed = worst <= 1e-10 and ratio <= 0.01 and monotone
    return {"passed": passed, "max_residual": worst, "details": details}


def _suite_dirichlet(ns: NumberSystem, rng: np.random.Generator) -> dict:
    rep = kernels.verify_dirichlet_recursions(ns)
    passed = rep.max_residual <= 1e-9 and rep.residuals["mean"] <= 1e-10
    return {"passed": passed, "max_residual": rep.max_residual, "details": rep.residuals}


def _suite_block(ns: NumberSystem, rng: np.random.Generator) -> dict:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        worst = _worst(worst, kernels.block_decomposition_residuals(ns, alpha).max())
    return {"passed": worst <= 1e-9, "max_residual": worst,
            "details": {"n_max": ns.cell_count}}


def _suite_routes(ns: NumberSystem, rng: np.random.Generator) -> dict:
    f = random_cells(ns, rng)
    worst = 0.0
    n_top = min(64, ns.cell_count)
    sums = oracles.partial_sum_rows(f, n_top)  # S_1 f .. S_{n_top} f, shared by every (alpha, n)
    for alpha in (0.25, 0.5, 0.75):
        means = oracles.cesaro_means_of_partial_sums(f, sums, alpha)
        for n, b in zip(range(1, n_top + 1), means):
            a = transform.cesaro_mean(f, n, alpha)
            c = transform.convolve(f, kernels.cesaro_kernel(ns, n, alpha))
            worst = _worst(worst, _worst(sup_distance(a, b), sup_distance(a, c)) / n)
    return {"passed": worst <= 1e-9, "max_residual": worst,
            "details": {"n_max": n_top, "normalized_by": "n"}}


def _suite_transform(ns: NumberSystem, rng: np.random.Generator) -> dict:
    f = random_cells(ns, rng)
    cf = forward(f)
    cn = oracles.forward(f)
    fast_vs_naive = float(np.max(np.abs(cf.coeffs - cn.coeffs)))
    roundtrip = sup_distance(inverse(cf), f)
    order = list(rng.permutation(ns.resolution))
    permuted = float(np.max(np.abs(oracles.staged_forward(f, order).coeffs - cf.coeffs)))
    parseval = 0.0
    for _ in range(50):
        g = random_cells(ns, rng)
        c = forward(g)
        lhs = float(np.mean(np.abs(g.cells) ** 2))
        rhs = float(np.sum(np.abs(c.coeffs) ** 2))
        parseval = _worst(parseval, abs(lhs - rhs) / max(lhs, 1.0))
    worst = _worst(fast_vs_naive, roundtrip, permuted, parseval)
    passed = fast_vs_naive <= 1e-10 and roundtrip <= 1e-10 \
        and permuted <= 1e-10 and parseval <= 1e-9
    return {"passed": passed, "max_residual": worst,
            "details": {"fast_vs_naive": fast_vs_naive, "roundtrip": roundtrip,
                        "permuted_stages": permuted, "parseval": parseval}}


# the suite of each name the config accepts, in config order
SUITES = {name: globals()[f"_suite_{name}"] for name in config.SUITES}


def run_verify(cfg: Config) -> int:
    out = _out_dir(cfg)
    results, timings = {}, {}
    for name in cfg.suites:
        t0 = time.perf_counter()
        results[name] = SUITES[name](cfg.ns, np.random.default_rng(cfg.seed))
        timings[name] = time.perf_counter() - t0
        state = "pass" if results[name]["passed"] else "FAIL"
        print(f"{name:12s} {state}  max_residual={results[name]['max_residual']:.3e}")
    all_passed = all(r["passed"] for r in results.values())
    report = {
        "all_passed": all_passed,
        "radix": list(cfg.ns.radix.radices),
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "suites": results,
    }
    write_json(os.path.join(out, "report.json"), report)
    write_json(os.path.join(out, "timings.json"), timings)
    write_run_meta(cfg, "verify")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# converge

def _sup_error(mean, f, extremes) -> float:
    """sup_distance(mean, f) for an unlifted mean; a float64 one meets f's extremes only."""
    if extremes is None or mean.cells.dtype != np.float64:
        return sup_distance(mean, f)
    return float(np.max([np.abs(e - mean.cells).max() for e in extremes[mean.resolution]]))


def _converge_group(cfg: Config, label: str, f) -> list[list]:
    """A family's rows for every alpha: one extremes ladder, one difference spectrum per scale,
    and one spectrum of f per resolution of the means."""
    ns = cfg.ns
    extremes = oscillation.coset_extremes(f)
    profile = oscillation._profile(f, extremes)
    scales = [scale_of(ns, n) if n < ns.cell_count else ns.resolution for n in cfg.orders]
    # one condition per (k_cond, alpha); with one digit no 1 <= k < N exists: the sum is empty
    k_conds = [min(max(k, 1), ns.resolution - 1) for k in scales]
    conditions = {k: difference_conditions(f, k, cfg.alphas) if k else [0.0] * len(cfg.alphas)
                  for k in set(k_conds)}
    rows = []
    means_by_alpha = transform._cesaro_means(f, cfg.orders, cfg.alphas)
    for i, (alpha, means) in enumerate(zip(cfg.alphas, means_by_alpha)):
        series, group = profile.series(alpha), []
        for n, k, k_cond, mean in zip(cfg.orders, scales, k_conds, means):
            # scale 0 (n = 1) sums no series terms: its partial is the empty sum
            partial = float(series.partials[min(k, len(series.partials)) - 1]) if k else 0.0
            group.append([n, _sup_error(mean, f, extremes), partial, conditions[k_cond][i]])
        scale_errs = [e for _, e in sorted({n: e for n, e, _, _ in group if n in ns.M}.items())]
        tail = cfg.trailing_points
        decreasing = all(b <= a * (1 + 1e-12)
                         for a, b in zip(scale_errs[-tail:], scale_errs[-tail + 1:]))
        shrunk = len(scale_errs) >= 2 and \
            scale_errs[-1] <= cfg.final_over_first * max(scale_errs[0], 1e-300)
        verdict = "converging" if (decreasing and shrunk) else "inconclusive"
        if scale_errs and max(scale_errs) <= 1e-12:
            verdict = "exact"
        rows += [[SCHEMA_VERSION, label, alpha, n, fmt_float(e), fmt_float(p),
                  fmt_float(c), verdict] for (n, e, p, c) in group]
    return rows


def run_converge(cfg: Config) -> int:
    out = _out_dir(cfg)
    rows = []
    for label, build in cfg.functions:
        rows += _converge_group(cfg, label, build(np.random.default_rng(cfg.seed)))
    header = ["schema_version", "family", "alpha", "n", "sup_error",
              "oscillation_partial", "difference_condition", "verdict"]
    write_csv(os.path.join(out, "converge.csv"), header, rows)
    write_run_meta(cfg, "converge")
    finite = all(np.isfinite(float(r[4])) for r in rows)
    print(f"converge: {len(rows)} rows -> {out}/converge.csv")
    return 0 if finite else 1


# ---------------------------------------------------------------------------
# kernel-scan

def _scan_group(ns: NumberSystem, kind: str, alpha: float, level: int,
                values) -> tuple[str, float, list, list]:
    if kind == "majorant":
        records = kernels.majorant_ratio_scan(ns, alpha, values)
    else:
        records = kernels.coset_decay_scan(ns, alpha, level, values)
    rows = [[SCHEMA_VERSION, "-".join(map(str, ns.radix.radices)), kind,
             alpha, r.n, fmt_float(r.sup_ratio), r.argmax_cell, r.resolution]
            for r in records]
    return kind, alpha, records, rows


def run_kernel_scan(cfg: Config) -> int:
    ns = cfg.ns
    majorant_n = sorted(set(cfg.scan_n or n_schedule(ns, {"kind": "scales_and_neighbors"}) + [1]))
    # None: the coset-decay scan takes its block [M_{level-1}, M_level]; it rejects
    # level 0, the default on a one-digit radix, so the scans run before any output
    results = [_scan_group(ns, kind, alpha, cfg.scan_level,
                           majorant_n if kind == "majorant" else list(cfg.scan_n) or None)
               for kind in cfg.scan_kinds for alpha in cfg.alphas]
    out = _out_dir(cfg)
    rows = [row for (_, _, _, block) in results for row in block]
    header = ["schema_version", "radix", "kind", "alpha", "n", "sup_ratio",
              "argmax_cell", "resolution"]
    write_csv(os.path.join(out, "kernel_scan.csv"), header, rows)

    summary, stable_all, finite_all = {}, True, True
    for kind, alpha, records, _ in results:
        ratios = [r.sup_ratio for r in records]
        ns_sorted = sorted(r.n for r in records)
        mid = ns_sorted[len(ns_sorted) // 2 - 1] if len(ns_sorted) > 1 else ns_sorted[0]
        lo = max((r.sup_ratio for r in records if r.n <= mid), default=0.0)
        hi = max((r.sup_ratio for r in records if r.n > mid), default=0.0)
        finite = bool(np.all(np.isfinite(ratios)))
        halves = (len({n for n in ns_sorted if n <= mid}), len({n for n in ns_sorted if n > mid}))
        entry = {
            "empirical_constant": float(max(ratios)),
            "lower_half_max": float(lo),
            "upper_half_max": float(hi),
            "n_range": [min(ns_sorted), max(ns_sorted)],
        }
        if min(halves) < 2:
            # one order against one or two says nothing about growth
            entry["stable"] = None
            entry["stable_reason"] = (f"the halves hold {halves[0]} and {halves[1]} orders; "
                                      "the verdict needs at least 2 in each")
        else:
            entry["stable"] = finite and (lo == 0.0 or hi <= cfg.stability_factor * lo)
            stable_all &= entry["stable"]
        summary[f"{kind}_alpha_{alpha}"] = entry
        finite_all &= finite
    summary["schema_version"] = SCHEMA_VERSION
    summary["stability_factor"] = cfg.stability_factor
    write_json(os.path.join(out, "kernel_scan_summary.json"), summary)
    write_run_meta(cfg, "kernel-scan")
    print(f"kernel-scan: {len(rows)} rows -> {out}/kernel_scan.csv "
          f"(stable={stable_all})")
    return 0 if (stable_all and finite_all) else 1


# ---------------------------------------------------------------------------
# oscillation

def run_oscillation(cfg: Config) -> int:
    out = _out_dir(cfg)
    rows = []
    finite = True
    for label, build in cfg.functions:
        prof = oscillation_profile(build(np.random.default_rng(cfg.seed)))
        for alpha in cfg.alphas:
            for k, term in enumerate(prof.series(alpha).terms, start=1):
                finite &= bool(np.isfinite(term))
                rows.append([SCHEMA_VERSION, label, alpha, k, prof.scale_cells[k],
                             *map(fmt_float, (prof.omega[k], prof.total[k], prof.nu[k], term))])
    header = ["schema_version", "family", "alpha", "k", "scale_cells",
              "omega", "total", "nu", "series_term"]
    write_csv(os.path.join(out, "oscillation.csv"), header, rows)
    write_run_meta(cfg, "oscillation")
    print(f"oscillation: {len(rows)} rows -> {out}/oscillation.csv")
    return 0 if finite else 1


# ---------------------------------------------------------------------------
# bench

def run_bench(cfg: Config) -> int:
    out = _out_dir(cfg)
    repeats = cfg.bench_repeats
    report, timings = {}, {}
    failed = False
    for ns in cfg.bench_systems:
        f = random_cells(ns, np.random.default_rng(cfg.seed))
        label = "-".join(map(str, ns.radix.radices))
        fast = forward(f)
        naive = oracles.forward(f)
        diff = float(np.max(np.abs(fast.coeffs - naive.coeffs)))
        equal = diff <= 1e-10
        failed |= not equal
        report[label] = {"cells": ns.cell_count, "equal": equal,
                         "max_abs_diff": diff}
        t_fast = sorted(_time_once(forward, f) for _ in range(repeats))
        t_naive = sorted(_time_once(oracles.forward, f) for _ in range(repeats))
        med_fast, med_naive = t_fast[repeats // 2], t_naive[repeats // 2]
        timings[label] = {"fast_s": med_fast, "naive_s": med_naive,
                          "speedup": med_naive / med_fast}
        print(f"bench {label}: cells={ns.cell_count} equal={equal} "
              f"speedup={med_naive / med_fast:.1f}x")
    report["schema_version"] = SCHEMA_VERSION
    write_json(os.path.join(out, "bench.json"), report)
    write_json(os.path.join(out, "timings.json"), timings)
    write_run_meta(cfg, "bench")
    return 1 if failed else 0


def _time_once(fn, f) -> float:
    t0 = time.perf_counter()
    fn(f)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------

COMMANDS = {
    "verify": run_verify,
    "converge": run_converge,
    "kernel-scan": run_kernel_scan,
    "oscillation": run_oscillation,
    "bench": run_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vilenkin",
        description="Identity verification and convergence experiments "
                    "for Fourier analysis on bounded Vilenkin groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="seed for random families")
        p.add_argument("--suites", help="comma-separated suite subset (verify)")
        p.add_argument("--max-cells", type=int, dest="max_cells",
                       help="cap on the cell count M_N")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse(merge_config(args), args.command)
        return COMMANDS[args.command](cfg)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except VilenkinError as e:
        print(f"invalid parameter: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
