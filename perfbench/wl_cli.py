"""cli: `vilenkin` subcommands, each job a fresh child process, one at a time.

Users pay the import and the table builds on every command, so each job is
a new interpreter. This is the one workload that runs config merging, the
thread pool, artifact writing, the verify suites, and the characters and
dirichlet_table layers. Artifacts are compared numerically with values the
benchmark computes itself (never byte for byte, so a rounding-level change
still passes); one cheap job runs twice and must write identical bytes.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np

import oracles as O
from harness import Op

SUITES = ("group", "characters", "binomials", "dirichlet", "block", "routes", "transform")

OSC_12 = {"radix": {"constant": 2, "length": 12}}

# (name, subcommand, config: a dict written for the job or a path in the checkout)
JOBS = (
    ("verify-2^9", "verify", {"radix": {"constant": 2, "length": 9}}),
    ("verify-288", "verify", {"radix": {"list": [2, 3, 4, 2, 3, 2]}}),
    ("verify-configs-mixed", "verify", "configs/mixed-verify.json"),
    ("converge-configs-lacunary", "converge", "configs/lacunary-converge.json"),
    ("converge-2^11", "converge", {
        "radix": {"constant": 2, "length": 11}, "alphas": [0.5],
        "n_schedule": {"kind": "scales"},
        "functions": [{"family": "lacunary", "decay": "inverse_scale"},
                      {"family": "random_lipschitz", "bound": 1.0}]}),
    ("kernel-scan-configs-mixed", "kernel-scan", "configs/kernel-scan-mixed.json"),
    # level 9 keeps the coset-decay block to 257 orders x 511 cosets
    ("kernel-scan-2^11", "kernel-scan", {
        "radix": {"constant": 2, "length": 11}, "alphas": [0.5],
        "kernel_scan": {"level": 9}}),
    ("oscillation-2^12", "oscillation", OSC_12),
    ("bench-1024-576", "bench", {"bench": {
        "sizes": [{"constant": 2, "length": 10}, {"list": [2, 3, 4, 2, 3, 2, 2]}],
        "repeats": 3}}),
    ("oscillation-2^12-again", "oscillation", OSC_12),
)
IDENTICAL_TO = {"oscillation-2^12-again": "oscillation-2^12"}

# Jobs that fail today. They run once per benchmark run, outside the timed
# passes, and are reported apart: a fix may change their cost by orders of
# magnitude and must not read as a regression of the timed workload.
KNOWN_DEFECTS = (
    ("verify-dirichlet-4096", "verify",
     {"radix": {"constant": 2, "length": 12}, "suites": ["dirichlet"]},
     "ROADMAP 3: the dirichlet_table cap makes verify exit 2 at 4096 cells"),
    ("converge-n1-1024", "converge",
     {"radix": {"constant": 2, "length": 10},
      "n_schedule": {"kind": "list", "values": [1, 2]}},
     "ROADMAP 4: the n = 1 row reads the series total, so partial(1) > partial(2)"),
)

REL = 1e-8


def radix_of(spec) -> list[int]:
    if isinstance(spec, list):
        return [int(m) for m in spec]
    if "list" in spec:
        return [int(m) for m in spec["list"]]
    if "constant" in spec:
        return [int(spec["constant"])] * int(spec["length"])
    pat = [int(m) for m in spec["pattern"]]
    return [pat[k % len(pat)] for k in range(int(spec["length"]))]


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("VILENKIN_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup(seed: int, root: str, work: str) -> dict:
    """Write the job configs and pay one CLI import, as every job does."""
    os.makedirs(work, exist_ok=True)
    configs = {}
    for name, _, cfg, *_ in JOBS + KNOWN_DEFECTS:
        if isinstance(cfg, str):
            configs[name] = os.path.join(root, cfg)
        else:
            configs[name] = os.path.join(work, f"{name}.json")
            with open(configs[name], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
    env = child_env(root)
    subprocess.run([sys.executable, "-c", "import vilenkin.cli"], env=env, cwd=work,
                   check=True, timeout=120)
    return {"seed": seed, "root": root, "work": work, "configs": configs, "env": env,
            "traced": False}


def _job_cells(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if "bench" in cfg:
        return sum(int(np.prod(radix_of(s))) for s in cfg["bench"]["sizes"])
    return int(np.prod(radix_of(cfg.get("radix", {"constant": 2, "length": 8}))))


def launch(state: dict, name: str, sub: str, timeout: float = 170) -> tuple[int, str]:
    """Run one job in a fresh interpreter; returns (exit code, output directory)."""
    out = os.path.join(state["work"], name)
    shutil.rmtree(out, ignore_errors=True)
    args = [sub, "--config", state["configs"][name], "--out", out,
            "--seed", str(state["seed"])]
    if state["traced"]:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "trace_launcher.py")
        cmd = [sys.executable, launcher, out + ".trace.json"] + args
    else:
        cmd = [sys.executable, "-m", "vilenkin.cli"] + args
    proc = subprocess.run(cmd, env=state["env"], cwd=state["work"], timeout=timeout,
                          stdout=subprocess.DEVNULL)
    return proc.returncode, out


# ---------------------------------------------------------------------------
# oracles over the artifacts

def _resolved(out: str, config_path: str, seed: int) -> dict:
    """The config the program says it ran, checked against the one it was given."""
    with open(os.path.join(out, "run_meta.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)["config"]
    with open(config_path, encoding="utf-8") as fh:
        given = json.load(fh)
    for key, val in given.items():
        got = cfg.get(key)
        if key == "seed":
            continue  # the --seed flag overrides the file
        if key in ("thresholds", "kernel_scan", "bench"):
            same = isinstance(got, dict) and all(got.get(k) == v for k, v in val.items())
        else:
            same = got == val
        if not same:
            raise AssertionError(f"config {key}={val!r} resolved to {got!r}")
    if cfg["seed"] != seed:
        raise AssertionError(f"seed resolved to {cfg['seed']}")
    return cfg


def _rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _near(got, want, floor: float = 1e-6) -> bool:
    return O.close(float(got), float(want), REL, scale=max(abs(float(want)), floor))


def family_cells(spec: dict, radices, seed: int) -> tuple[str, np.ndarray]:
    """(label, cells) of a config function spec, built without the package."""
    M = O.ladder(radices)
    idx = np.arange(M[-1])
    digits = [(idx // M[k]) % m for k, m in enumerate(radices)]
    if spec["family"] == "lacunary":
        if spec.get("decay") == "inverse_scale":
            coeffs, label = [1.0 / M[k] for k in range(len(radices))], "lacunary-inverse_scale"
        else:
            coeffs = [float(c) for c in spec["coeffs"]]
            label = "lacunary-" + ",".join(repr(c) for c in coeffs)
        cells = sum(c * np.cos(2 * np.pi * digits[k] / radices[k])
                    for k, c in enumerate(coeffs) if c)
        return label, np.asarray(cells, dtype=np.float64)
    if spec["family"] == "random_lipschitz":
        bound = float(spec.get("bound", 1.0))
        u = np.random.default_rng(seed).uniform(-bound, bound, size=len(radices))
        cells = sum(u[k] / (radices[k] * M[k]) * digits[k] for k in range(len(radices)))
        return f"random_lipschitz-{bound!r}", np.asarray(cells, dtype=np.float64)
    raise AssertionError(f"no oracle for family {spec['family']!r}")


def check_verify(out: str, cfg: dict) -> bool:
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    radices = radix_of(cfg["radix"])
    M = int(np.prod(radices))
    want = cfg["suites"] or list(SUITES)
    suites = rep["suites"]
    ok = (rep["all_passed"] is True and sorted(suites) == sorted(want)
          and rep["radix"] == radices and rep["seed"] == cfg["seed"]
          and all(s["passed"] is True and 0.0 <= s["max_residual"] <= 1e-8
                  for s in suites.values()))
    if "group" in suites:
        ok &= suites["group"]["details"] == {"cells": M, "failures": 0}
    if "block" in suites:
        ok &= suites["block"]["details"]["n_max"] == M
    if "routes" in suites:
        ok &= suites["routes"]["details"]["n_max"] == min(64, M)
    return ok


def converge_rows(out: str, cfg: dict) -> list[tuple[dict, dict]]:
    """(row, expected) pairs, in the order the program must write them."""
    radices = radix_of(cfg["radix"])
    M = O.ladder(radices)
    r = len(radices)
    values = O.n_schedule(radices, cfg["n_schedule"])
    rows = _rows(os.path.join(out, "converge.csv"))
    expected = []
    for spec in cfg["functions"]:
        label, f = family_cells(spec, radices, cfg["seed"])
        fhat = O.spectrum(f, radices)
        for alpha in cfg["alphas"]:
            partials = O.series_partials(f, radices, alpha)
            errs = {}
            block = []
            for n in values:
                mean = O.synthesis(fhat * O.cesaro_weights(n, alpha, M[r]), radices)
                err = float(np.abs(mean - f).max())
                k = O.scale(radices, n)
                cond = O.difference_condition(f, radices, min(max(k, 1), r - 1), alpha)
                if n in M:
                    errs[n] = err
                block.append({"family": label, "alpha": float(alpha), "n": n, "sup_error": err,
                              "oscillation_partial": float(partials[k - 1]) if k >= 1 else None,
                              "difference_condition": cond})
            scale_errs = [errs[m] for m in sorted(errs)]
            tail = cfg["thresholds"]["trailing_points"]
            decreasing = all(b <= a * (1 + 1e-12) for a, b in
                             zip(scale_errs[-tail:], scale_errs[-tail + 1:]))
            shrunk = len(scale_errs) >= 2 and scale_errs[-1] <= (
                cfg["thresholds"]["final_over_first"] * max(scale_errs[0], 1e-300))
            verdict = "converging" if decreasing and shrunk else "inconclusive"
            if scale_errs and max(scale_errs) <= 1e-12:
                verdict = "exact"
            for e in block:
                e["verdict"] = verdict
            expected += block
    if len(rows) != len(expected):
        raise AssertionError(f"{len(rows)} converge rows, expected {len(expected)}")
    return list(zip(rows, expected))


def _converge_ok(pairs) -> bool:
    """Every column against the oracle; the n = 1 partial is left to the defect op."""
    for row, e in pairs:
        if (row["family"], float(row["alpha"]), int(row["n"]), row["verdict"]) != (
                e["family"], e["alpha"], e["n"], e["verdict"]):
            return False
        if not (_near(row["sup_error"], e["sup_error"])
                and _near(row["difference_condition"], e["difference_condition"])):
            return False
        if e["n"] > 1 and not _near(row["oscillation_partial"], e["oscillation_partial"]):
            return False
    return True


def check_converge(out: str, cfg: dict) -> bool:
    return _converge_ok(converge_rows(out, cfg))


def check_converge_monotone(out: str, cfg: dict) -> bool:
    """check_converge, plus partial(n=1) <= partial(n=2) for every family and alpha."""
    pairs = converge_rows(out, cfg)
    partial = {(row["family"], row["alpha"], int(row["n"])): float(row["oscillation_partial"])
               for row, _ in pairs}
    return _converge_ok(pairs) and all(
        v <= partial[(fam, a, 2)] for (fam, a, n), v in partial.items() if n == 1)


def check_kernel_scan(out: str, cfg: dict) -> bool:
    radices = radix_of(cfg["radix"])
    M = O.ladder(radices)
    sub = cfg["kernel_scan"]
    level = sub["level"] if sub["level"] is not None else len(radices) - 1
    majorant_n = sorted(set([int(n) for n in sub["n"]] if sub["n"]
                            else O.n_schedule(radices, {}) + [1]))
    coset_n = [int(n) for n in sub["n"]] if sub["n"] else list(range(M[level - 1], M[level] + 1))
    rows = _rows(os.path.join(out, "kernel_scan.csv"))
    with open(os.path.join(out, "kernel_scan_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    at = 0
    for kind in sub["kinds"]:
        for alpha in cfg["alphas"]:
            values = majorant_n if kind == "majorant" else coset_n
            best = 0.0
            for n in values:
                row = rows[at]
                at += 1
                r = O.minimal_resolution(radices, n)
                if kind == "majorant":
                    want = O.majorant_ratios(radices, n, alpha)
                    hit = want[[int(row["argmax_cell"])]]
                else:
                    want = O.coset_decay_ratios(radices, n, alpha, level)
                    hit = want[O.coset_rep_cells(radices, level, r) == int(row["argmax_cell"])]
                if (row["kind"], float(row["alpha"]), int(row["n"]), int(row["resolution"])) != (
                        kind, float(alpha), n, r):
                    return False
                if not (len(hit) and _near(row["sup_ratio"], want.max())
                        and _near(hit.max(), want.max())):
                    return False
                best = max(best, float(want.max()))
            entry = summary[f"{kind}_alpha_{alpha}"]
            if not (entry["stable"] is True and _near(entry["empirical_constant"], best)):
                return False
    return at == len(rows)


def check_oscillation(out: str, cfg: dict) -> bool:
    radices = radix_of(cfg["radix"])
    M = O.ladder(radices)
    rows = _rows(os.path.join(out, "oscillation.csv"))
    at = 0
    for spec in cfg["functions"]:
        label, f = family_cells(spec, radices, cfg["seed"])
        omega, total, nu = O.oscillation_profile(f, radices)
        for alpha in cfg["alphas"]:
            for k in range(1, len(radices) + 1):
                row = rows[at]
                at += 1
                if (row["family"], float(row["alpha"]), int(row["k"]), int(row["scale_cells"])) != (
                        label, float(alpha), k, M[k]):
                    return False
                if not (_near(row["omega"], omega[k]) and _near(row["total"], total[k])
                        and _near(row["nu"], nu[k])
                        and _near(row["series_term"], nu[k] / M[k] ** (1.0 - alpha))):
                    return False
    return at == len(rows)


def check_bench(out: str, cfg: dict) -> bool:
    with open(os.path.join(out, "bench.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    for spec in cfg["bench"]["sizes"]:
        radices = radix_of(spec)
        entry = rep["-".join(map(str, radices))]
        if not (entry["cells"] == int(np.prod(radices)) and entry["equal"] is True
                and 0.0 <= entry["max_abs_diff"] <= 1e-10):
            return False
    return os.path.exists(os.path.join(out, "timings.json"))


CHECKS = {"verify": check_verify, "converge": check_converge,
          "kernel-scan": check_kernel_scan, "oscillation": check_oscillation,
          "bench": check_bench}


def same_bytes(a: str, b: str) -> bool:
    """Byte identity of every artifact except timings.json, the wall-clock file."""
    names = sorted(n for n in os.listdir(a) if n != "timings.json")
    if names != sorted(n for n in os.listdir(b) if n != "timings.json"):
        return False
    for n in names:
        with open(os.path.join(a, n), "rb") as fa, open(os.path.join(b, n), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def _checker(state: dict, name: str, check):
    def judge(result) -> bool:
        code, out = result
        if code != 0:
            return False
        cfg = _resolved(out, state["configs"][name], state["seed"])
        ok = check(out, cfg)
        twin = IDENTICAL_TO.get(name)
        if twin is not None:
            ok &= same_bytes(out, os.path.join(state["work"], twin))
        return ok
    return judge


def ops(state: dict) -> list[Op]:
    return [Op(name, _job_cells(state["configs"][name]),
               lambda name=name, sub=sub: launch(state, name, sub),
               _checker(state, name, CHECKS[sub]))
            for name, sub, _ in JOBS]


def known_defects(state: dict) -> list[dict]:
    """Run each known-defect job once and report whether it still fails.

    A fix may make a job slow; the timeout keeps the whole run inside its limit.
    """
    out = []
    for name, sub, _, why in KNOWN_DEFECTS:
        check = check_converge_monotone if sub == "converge" else CHECKS[sub]
        try:
            result = launch(state, name, sub, timeout=60)
        except subprocess.TimeoutExpired:
            out.append({"op": name, "exit_code": None, "status": "timed out", "fixed_by": why})
            continue
        try:
            ok = _checker(state, name, check)(result)
        except (OSError, KeyError, ValueError, AssertionError):
            ok = False
        out.append({"op": name, "exit_code": result[0],
                    "status": "passes now" if ok else "fails as known", "fixed_by": why})
    return out


def trace_summaries(state: dict) -> list[dict]:
    found = []
    for name, *_ in JOBS:
        path = os.path.join(state["work"], name + ".trace.json")
        with open(path, encoding="utf-8") as fh:
            found.append(json.load(fh))
    return found


def verify_suite_seconds(state: dict) -> dict:
    """Per-suite seconds from the timings.json every verify job writes."""
    total = {s: 0.0 for s in SUITES}
    for name, sub, _ in JOBS:
        if sub != "verify":
            continue
        with open(os.path.join(state["work"], name, "timings.json"), encoding="utf-8") as fh:
            for suite, secs in json.load(fh).items():
                total[suite] = total.get(suite, 0.0) + float(secs)
    return total
