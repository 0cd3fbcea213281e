"""Config-driven experiment runner.

Subcommands: verify, converge, kernel-scan, oscillation, bench.  Settings
merge as flags > VILENKIN_* environment variables > --config JSON file >
defaults.  For a fixed config and seed every CSV/JSON artifact is
byte-identical across runs, except timings.json, which holds wall-clock
measurements and is excluded from that contract.

Exit codes: 0 all checks pass, 1 an assertion failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import binomials, kernels, oracles, oscillation, transform
from .characters import character_block, character_shift_residual, unity_gap_residual
from .errors import ConfigurationError, VilenkinError, config_object, config_value
from .families import family_from_spec, random_cells
from .group import (NumberSystem, build_number_system, coset_key_table, digit_matrix,
                    radix_from_spec, scale_of)
from .oscillation import difference_condition, oscillation_profile
from .transform import StepFunction, forward, inverse, sup_distance

SCHEMA_VERSION = 1

DEFAULTS = {
    "radix": {"constant": 2, "length": 8},
    "alphas": [0.25, 0.5, 0.75],
    "functions": [{"family": "lacunary", "decay": "inverse_scale"}],
    "n_schedule": {"kind": "scales_and_neighbors"},
    "out": None,
    "seed": 0,
    "suites": None,
    "max_cells": 1 << 20,
    "thresholds": {"stability_factor": 1.5, "final_over_first": 0.25,
                   "trailing_points": 4},
    "kernel_scan": {"kinds": ["majorant", "coset_decay"], "level": None,
                    "n": None},
    "bench": {"sizes": [{"constant": 2, "length": 12}], "repeats": 3},
}

_ENV_PREFIX = "VILENKIN_"


def _env_overrides() -> dict:
    out = {}
    if v := os.environ.get(_ENV_PREFIX + "OUT"):
        out["out"] = v
    if v := os.environ.get(_ENV_PREFIX + "SUITES"):
        out["suites"] = [s.strip() for s in v.split(",") if s.strip()]
    for key, name in (("seed", "SEED"), ("max_cells", "MAX_CELLS")):
        if v := os.environ.get(_ENV_PREFIX + name):
            try:
                out[key] = int(v)
            except ValueError:
                raise ConfigurationError(f"{_ENV_PREFIX}{name}={v!r} is not an integer")
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config {path} is not valid JSON: {e}")
    except RecursionError:
        raise ConfigurationError(f"config {path} nests too deeply")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigurationError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    unknown = set(cfg) - set(DEFAULTS)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    return cfg


# sub-configs merged key by key; everything else is replaced whole
_MERGE_KEYS = ("thresholds", "kernel_scan", "bench")


def merge_config(args: argparse.Namespace) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    file_cfg = load_config(getattr(args, "config", None)
                           or os.environ.get(_ENV_PREFIX + "CONFIG"))
    for key, val in file_cfg.items():
        if key in _MERGE_KEYS:
            cfg[key].update(config_object(val, DEFAULTS[key], key))
        else:
            cfg[key] = val
    cfg.update(_env_overrides())
    for key in ("out", "seed", "max_cells"):
        v = getattr(args, key.replace("-", "_"), None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "suites", None):
        cfg["suites"] = [s.strip() for s in args.suites.split(",") if s.strip()]
    return cfg


def resolve_ns(cfg: dict) -> NumberSystem:
    ns = build_number_system(radix_from_spec(cfg["radix"]))
    if ns.cell_count > config_value(cfg["max_cells"], int, "max_cells", 1):
        raise ConfigurationError(
            f"group has {ns.cell_count} cells, over the max_cells cap {cfg['max_cells']}")
    return ns


def _check_alphas(alphas) -> list[float]:
    out = [config_value(a, float, "alphas") for a in config_value(alphas, list, "alphas")]
    for a in out:
        if not 0.0 < a < 1.0:
            raise ConfigurationError(f"alpha={a} outside (0, 1)")
    return out


def _rng(cfg: dict) -> np.random.Generator:
    return np.random.default_rng(config_value(cfg["seed"], int, "seed", 0))


# ---------------------------------------------------------------------------
# artifact writers

def fmt_float(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) < 1e-4:
        return "%.12e" % v
    return repr(float(v))


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_run_meta(out_dir: str, cfg: dict, command: str) -> None:
    meta = {
        "command": command,
        "config": {k: cfg[k] for k in sorted(cfg) if k != "out"},
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
    }
    write_json(os.path.join(out_dir, "run_meta.json"), meta)


def _out_dir(cfg: dict, command: str) -> str:
    out = config_value(cfg["out"] or os.path.join("runs", command), str, "out")
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as e:
        raise ConfigurationError(f"cannot create output directory {out!r}: {e}")
    return out


_SCHEDULE_KEYS = ("kind", "start", "stop", "values")


def n_schedule(ns: NumberSystem, spec: dict) -> list[int]:
    """Order schedule: scale points by default, plus near-scale offsets."""
    kind = config_object(spec, _SCHEDULE_KEYS, "n_schedule").get("kind", "scales_and_neighbors")
    top = ns.cell_count
    if kind == "list":
        values = [config_value(n, int, "n_schedule.values")
                  for n in config_value(spec.get("values", []), list, "n_schedule.values")]
        if not values:
            raise ConfigurationError("n_schedule list needs 'values'")
    elif kind == "dense":
        start = config_value(spec.get("start", 1), int, "n_schedule.start")
        stop = config_value(spec.get("stop", top), int, "n_schedule.stop")
        values = list(range(start, stop + 1))
    elif kind == "scales":
        values = [ns.M[k] for k in range(1, ns.resolution + 1)]
    elif kind == "scales_and_neighbors":
        values = set()
        for k in range(1, ns.resolution + 1):
            values.add(ns.M[k])
            values.add(ns.M[k] - 1)
            if k >= 2 and ns.M[k] + ns.M[k - 1] <= top:
                values.add(ns.M[k] + ns.M[k - 1])
        values = sorted(values)
    else:
        raise ConfigurationError(f"unknown n_schedule kind {kind!r}")
    for n in values:
        if not 1 <= n <= top:
            raise ConfigurationError(f"order {n} outside 1..{top}")
    return values


# ---------------------------------------------------------------------------
# verify suites

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
    # t_j = a and every x; translating back by -t is the identity
    tables = [((D[:, j] - np.arange(m)[:, None]) % m) * ns.M[j]
              for j, m in enumerate(ns.radix.radices)]
    index = StepFunction(ns, r, np.arange(cells))
    for t in range(cells):
        minus_t = sum(table[a] for table, a in zip(tables, D[t]))  # cell of x - t
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
    F = character_block(ns, 0, cells, r)
    gram = (F.conj().T @ F) / cells
    gram_res = float(np.max(np.abs(gram - np.eye(cells))))
    shift_res = character_shift_residual(ns)
    identity_res, gap_margin = unity_gap_residual(ns)
    passed = gram_res <= 1e-10 and shift_res <= 1e-10 \
        and identity_res <= 1e-10 and gap_margin >= -1e-12
    return {"passed": passed, "max_residual": max(gram_res, shift_res, identity_res),
            "details": {"gram": gram_res, "shift": shift_res,
                        "unity_identity": identity_res, "gap_margin": gap_margin}}


def _suite_binomials(ns: NumberSystem, rng: np.random.Generator) -> dict:
    details = {}
    worst = 0.0
    for a in (0.25, 0.5, 0.75, 0.9):
        for alpha in (a, -a):
            rep = binomials.identity_report(alpha, 10_000)
            details[f"identities_{alpha}"] = rep.max_residual
            worst = max(worst, rep.max_residual)
    ratio = max(binomials.asymptotic_ratio_residual(0.5, 10_000),
                binomials.asymptotic_ratio_residual(-0.5, 10_000))
    details["ratio_residual"] = ratio
    t = binomials.cesaro_table(-0.5, 1000)
    monotone = bool(np.all(t.values > 0) and np.all(np.diff(t.values) < 0))
    details["negative_order_decreasing"] = monotone
    passed = worst <= 1e-10 and ratio <= 0.01 and monotone
    return {"passed": passed, "max_residual": worst, "details": details}


def _suite_dirichlet(ns: NumberSystem, rng: np.random.Generator) -> dict:
    rep = kernels.verify_dirichlet_recursions(ns)
    support = 0.0
    idx = np.arange(ns.cells_at(ns.resolution))
    for k in range(ns.resolution + 1):
        d = kernels.dirichlet(ns, ns.M[k], resolution=ns.resolution)
        exact = ns.M[k] * (idx % ns.M[k] == 0)
        support = max(support, float(np.max(np.abs(d.cells - exact))))
    worst = max(rep.max_residual, support)
    passed = rep.max_residual <= 1e-9 and rep.residuals["mean"] <= 1e-10 and support == 0.0
    details = dict(rep.residuals, scale_support=support)
    return {"passed": passed, "max_residual": worst, "details": details}


def _suite_block(ns: NumberSystem, rng: np.random.Generator) -> dict:
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        worst = max(worst, float(kernels.block_decomposition_residuals(ns, alpha).max()))
    return {"passed": worst <= 1e-9, "max_residual": worst,
            "details": {"n_max": ns.cell_count}}


def _suite_routes(ns: NumberSystem, rng: np.random.Generator) -> dict:
    f = random_cells(ns, rng)
    worst = 0.0
    n_top = min(64, ns.cell_count)
    for alpha in (0.25, 0.5, 0.75):
        for n in range(1, n_top + 1):
            a = transform.cesaro_mean(f, n, alpha)
            b = oracles.cesaro_mean_partial_sums(f, n, alpha)
            c = transform.convolve(f, kernels.cesaro_kernel(ns, n, alpha))
            res = max(sup_distance(a, b), sup_distance(a, c)) / n
            worst = max(worst, res)
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
        parseval = max(parseval, abs(lhs - rhs) / max(lhs, 1.0))
    worst = max(fast_vs_naive, roundtrip, permuted, parseval)
    passed = fast_vs_naive <= 1e-10 and roundtrip <= 1e-10 \
        and permuted <= 1e-10 and parseval <= 1e-9
    return {"passed": passed, "max_residual": worst,
            "details": {"fast_vs_naive": fast_vs_naive, "roundtrip": roundtrip,
                        "permuted_stages": permuted, "parseval": parseval}}


SUITES = {
    "group": _suite_group,
    "characters": _suite_characters,
    "binomials": _suite_binomials,
    "dirichlet": _suite_dirichlet,
    "block": _suite_block,
    "routes": _suite_routes,
    "transform": _suite_transform,
}


def run_verify(cfg: dict) -> int:
    ns = resolve_ns(cfg)
    names = [config_value(s, str, "suites")
             for s in config_value(cfg["suites"] or list(SUITES), list, "suites")]
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ConfigurationError(f"unknown suites {unknown}; have {list(SUITES)}")
    out = _out_dir(cfg, "verify")
    results, timings = {}, {}
    for name in names:
        rng = _rng(cfg)
        t0 = time.perf_counter()
        results[name] = SUITES[name](ns, rng)
        timings[name] = time.perf_counter() - t0
        state = "pass" if results[name]["passed"] else "FAIL"
        print(f"{name:12s} {state}  max_residual={results[name]['max_residual']:.3e}")
    all_passed = all(r["passed"] for r in results.values())
    report = {
        "all_passed": all_passed,
        "radix": list(ns.radix.radices),
        "schema_version": SCHEMA_VERSION,
        "seed": cfg["seed"],
        "suites": results,
    }
    write_json(os.path.join(out, "report.json"), report)
    write_json(os.path.join(out, "timings.json"), timings)
    write_run_meta(out, cfg, "verify")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# converge

def _converge_group(ns: NumberSystem, label: str, f, alpha: float, values: list[int],
                    thresholds: dict) -> list[list]:
    series = oscillation.oscillation_series(f, alpha)
    rows = []
    errors_at_scale = {}
    conditions = {}  # the condition depends on (f, k_cond, alpha) only, not on n
    for n, mean in zip(values, transform.cesaro_means(f, values, alpha)):
        err = sup_distance(mean, f)
        k = scale_of(ns, n) if n < ns.cell_count else ns.resolution
        k_cond = min(max(k, 1), ns.resolution - 1)
        if k_cond not in conditions:
            # with one digit (N = 1) no scale 1 <= k < N exists: the sum is empty
            conditions[k_cond] = difference_condition(f, k_cond, alpha) if k_cond else 0.0
        cond = conditions[k_cond]
        # scale 0 (n = 1) sums no series terms: its partial is the empty sum
        partial = float(series.partials[min(k, len(series.partials)) - 1]) if k else 0.0
        if n in ns.M:
            errors_at_scale[n] = err
        rows.append([n, err, partial, cond])
    scale_errs = [errors_at_scale[m] for m in sorted(errors_at_scale)]
    tail = thresholds["trailing_points"]
    decreasing = all(b <= a * (1 + 1e-12)
                     for a, b in zip(scale_errs[-tail:], scale_errs[-tail + 1:]))
    shrunk = len(scale_errs) >= 2 and \
        scale_errs[-1] <= thresholds["final_over_first"] * max(scale_errs[0], 1e-300)
    verdict = "converging" if (decreasing and shrunk) else "inconclusive"
    if scale_errs and max(scale_errs) <= 1e-12:
        verdict = "exact"
    return [[SCHEMA_VERSION, label, alpha, n, fmt_float(e), fmt_float(p),
             fmt_float(c), verdict] for (n, e, p, c) in rows]


def run_converge(cfg: dict) -> int:
    ns = resolve_ns(cfg)
    alphas = _check_alphas(cfg["alphas"])
    values = n_schedule(ns, cfg["n_schedule"])
    config_value(cfg["thresholds"]["trailing_points"], int, "thresholds.trailing_points", 2)
    config_value(cfg["thresholds"]["final_over_first"], float, "thresholds.final_over_first")
    out = _out_dir(cfg, "converge")
    rows = []
    for spec in config_value(cfg["functions"], list, "functions"):
        label, f = family_from_spec(ns, spec, _rng(cfg))
        for alpha in alphas:
            rows += _converge_group(ns, label, f, alpha, values, cfg["thresholds"])
    header = ["schema_version", "family", "alpha", "n", "sup_error",
              "oscillation_partial", "difference_condition", "verdict"]
    write_csv(os.path.join(out, "converge.csv"), header, rows)
    write_run_meta(out, cfg, "converge")
    finite = all(np.isfinite(float(r[4])) for r in rows)
    print(f"converge: {len(rows)} rows -> {out}/converge.csv")
    return 0 if finite else 1


# ---------------------------------------------------------------------------
# kernel-scan

def _scan_group(ns: NumberSystem, kind: str, alpha: float, level: int,
                values: list[int]) -> tuple[str, float, list, list]:
    if kind == "majorant":
        records = kernels.majorant_ratio_scan(ns, alpha, values)
    else:
        records = kernels.coset_decay_scan(ns, alpha, level, values)
    rows = [[SCHEMA_VERSION, "-".join(map(str, ns.radix.radices)), kind,
             alpha, r.n, fmt_float(r.sup_ratio), r.argmax_cell, r.resolution]
            for r in records]
    return kind, alpha, records, rows


def run_kernel_scan(cfg: dict) -> int:
    ns = resolve_ns(cfg)
    alphas = _check_alphas(cfg["alphas"])
    sub = cfg["kernel_scan"]
    kinds = config_value(sub["kinds"], list, "kernel_scan.kinds")
    for kind in kinds:
        if kind not in ("majorant", "coset_decay"):
            raise ConfigurationError(f"unknown scan kind {kind!r}")
    level = (ns.resolution - 1 if sub["level"] is None
             else config_value(sub["level"], int, "kernel_scan.level"))
    if not 1 <= level <= ns.resolution:
        raise ConfigurationError(f"scan level {level} outside 1..{ns.resolution}")
    given_n = [config_value(n, int, "kernel_scan.n")
               for n in config_value(sub["n"] or [], list, "kernel_scan.n")]
    majorant_n = sorted(set(given_n or n_schedule(ns, {"kind": "scales_and_neighbors"}) + [1]))
    coset_n = given_n or list(range(ns.M[level - 1], ns.M[level] + 1))
    out = _out_dir(cfg, "kernel-scan")
    results = [_scan_group(ns, kind, alpha, level,
                           majorant_n if kind == "majorant" else coset_n)
               for kind in kinds for alpha in alphas]
    rows = [row for (_, _, _, block) in results for row in block]
    header = ["schema_version", "radix", "kind", "alpha", "n", "sup_ratio",
              "argmax_cell", "resolution"]
    write_csv(os.path.join(out, "kernel_scan.csv"), header, rows)

    factor = config_value(cfg["thresholds"]["stability_factor"], float,
                          "thresholds.stability_factor")
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
            entry["stable"] = finite and (lo == 0.0 or hi <= factor * lo)
            stable_all &= entry["stable"]
        summary[f"{kind}_alpha_{alpha}"] = entry
        finite_all &= finite
    summary["schema_version"] = SCHEMA_VERSION
    summary["stability_factor"] = factor
    write_json(os.path.join(out, "kernel_scan_summary.json"), summary)
    write_run_meta(out, cfg, "kernel-scan")
    print(f"kernel-scan: {len(rows)} rows -> {out}/kernel_scan.csv "
          f"(stable={stable_all})")
    return 0 if (stable_all and finite_all) else 1


# ---------------------------------------------------------------------------
# oscillation

def run_oscillation(cfg: dict) -> int:
    ns = resolve_ns(cfg)
    alphas = _check_alphas(cfg["alphas"])
    out = _out_dir(cfg, "oscillation")
    rows = []
    finite = True
    for spec in config_value(cfg["functions"], list, "functions"):
        label, f = family_from_spec(ns, spec, _rng(cfg))
        prof = oscillation_profile(f)
        for alpha in alphas:
            for k in range(1, prof.resolution + 1):
                term = prof.nu[k] / prof.scale_cells[k] ** (1.0 - alpha)
                finite &= bool(np.isfinite(term))
                rows.append([SCHEMA_VERSION, label, alpha, k,
                             prof.scale_cells[k], fmt_float(prof.omega[k]),
                             fmt_float(prof.total[k]), fmt_float(prof.nu[k]),
                             fmt_float(term)])
    header = ["schema_version", "family", "alpha", "k", "scale_cells",
              "omega", "total", "nu", "series_term"]
    write_csv(os.path.join(out, "oscillation.csv"), header, rows)
    write_run_meta(out, cfg, "oscillation")
    print(f"oscillation: {len(rows)} rows -> {out}/oscillation.csv")
    return 0 if finite else 1


# ---------------------------------------------------------------------------
# bench

def run_bench(cfg: dict) -> int:
    out = _out_dir(cfg, "bench")
    repeats = config_value(cfg["bench"]["repeats"], int, "bench.repeats", 1)
    report, timings = {}, {}
    failed = False
    for spec in config_value(cfg["bench"]["sizes"], list, "bench.sizes"):
        ns = build_number_system(radix_from_spec(spec))
        if ns.cell_count > config_value(cfg["max_cells"], int, "max_cells", 1):
            raise ConfigurationError(
                f"bench size {ns.cell_count} over max_cells {cfg['max_cells']}")
        f = random_cells(ns, _rng(cfg))
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
    write_run_meta(out, cfg, "bench")
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
        cfg = merge_config(args)
        return COMMANDS[args.command](cfg)
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except VilenkinError as e:
        print(f"invalid parameter: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
