"""Config-driven experiment runner.

Subcommands: verify (the suites of verify.SUITES), converge, kernel-scan,
oscillation, bench.  main merges and parses the config (config.py) before any
work, and each runner reads the resulting Config.  For a fixed config and seed
every CSV/JSON artifact is byte-identical across runs, except timings.json,
which holds wall-clock measurements and is excluded from that contract.

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
from . import kernels, oscillation, transform
from .config import Config, merge_config, n_schedule, parse
from .errors import ConfigurationError, VilenkinError
from .families import random_cells
from .group import NumberSystem, scale_of
from .oscillation import difference_conditions, oscillation_profile
from .transform import forward, sup_distance

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
# verify

def run_verify(cfg: Config) -> int:
    """Run the identity suites and write report.json; exit 1 if a suite fails."""
    from . import verify  # here, so that no other subcommand imports the suites
    out = _out_dir(cfg)
    results, timings = {}, {}
    for name in cfg.suites:
        t0 = time.perf_counter()
        results[name] = verify.SUITES[name](cfg.ns, np.random.default_rng(cfg.seed))
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
    """Write the sup errors of the Cesaro means of each function to converge.csv."""
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
    """Scan the kernel bound ratios and write their stability summary."""
    ns = cfg.ns
    majorant_n = sorted(set(n_schedule(ns, {"kind": "scales_and_neighbors"}) + [1]
                            if cfg.scan_n is None else cfg.scan_n))
    # None: the coset-decay scan takes its block [M_{level-1}, M_level]; it rejects
    # level 0, the default on a one-digit radix, so the scans run before any output
    results = [_scan_group(ns, kind, alpha, cfg.scan_level,
                           majorant_n if kind == "majorant" else cfg.scan_n)
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
    """Write the oscillation profile and series of each function to oscillation.csv."""
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
    """Time the fast transform against the character-sum reference."""
    from . import oracles  # here, so that no other subcommand imports the references
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
