"""Benchmark of the vilenkin package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {large_grid,scan,cli} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` next to this
directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured without tracing. With `--trace 1` a traced
pass gives the per-layer metrics, and untraced passes after it give
`trace.overhead_frac`. The full per-layer table is printed above the last line
and written to `.perfbench_out/`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("large_grid", "scan", "cli")
SETUP_SAMPLES = 5  # this process plus four fresh ones; setup_s is their median


def _setup(name: str, seed: int, work: str):
    """Import the workload (and with it numpy and the package) and build its inputs."""
    mod = importlib.import_module(f"wl_{name}")
    state = mod.setup(seed, ROOT, work) if name == "cli" else mod.setup(seed)
    return mod, state


def _timed_setup(name: str, seed: int, work: str):
    """Set the workload up; returns (module, state, seconds)."""
    t0 = time.perf_counter()
    mod, state = _setup(name, seed, work)
    return mod, state, time.perf_counter() - t0


def _setup_probe(name: str, seed: int) -> float:
    """Seconds of one set-up in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _work_dir() -> str:
    path = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path


def run_untraced(args, work: str) -> dict:
    from facts import collect
    from harness import end_to_end, log, peak_rss_mb, run_for

    # the fresh processes go first, so none of them runs beside this one's inputs
    setup_samples = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    mod, state, seconds = _timed_setup(args.workload, args.seed, work)
    setup_samples.append(seconds)
    ops = mod.ops(state)
    passes = run_for(ops, args.seconds, reference=getattr(mod, "SCALE_TO_REFERENCE", False))
    rss = peak_rss_mb(children=args.workload == "cli")
    metrics = end_to_end(passes, ops, setup_samples, rss)
    report = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops),
              "passes": len(passes.walls), "setup_samples_s": setup_samples,
              "failures": passes.failures, "facts": collect(getattr(mod, "GRIDS", {}))}
    if passes.speed:
        report["pass_speed"] = passes.speed
        report["unscaled"] = {k: v["value"] for k, v in
                              end_to_end(passes, ops, setup_samples, rss, scaled=False).items()}
    if args.workload == "cli":
        report["known_defects"] = mod.known_defects(state)
    print(json.dumps(report, sort_keys=True))
    for f in passes.failures:
        log(f"FAILED {f}")
    return {"correct": passes.failed == 0, "attempted": passes.attempted,
            "failed": passes.failed, "metrics": metrics}


def run_traced(args, work: str) -> dict:
    import tracer as T
    from facts import collect
    from harness import Passes, run_for, run_pass
    from layers import per_layer, table

    tr = T.Tracer()
    t0 = time.perf_counter()
    if args.workload != "cli":
        tr.install()
    mod, state = _setup(args.workload, args.seed, work)
    setup_s = time.perf_counter() - t0
    ops = mod.ops(state)
    traced, untraced = Passes(), Passes()
    if args.workload == "cli":
        state["traced"] = True
        run_pass(ops, traced)
        summary = T.merge(mod.trace_summaries(state))
        suites = mod.verify_suite_seconds(state)
        state["traced"] = False
        trace_wall = traced.walls[0]
    else:
        # one untraced pass first, so the traced pass is as warm as the ones it is compared to
        tr.uninstall()
        run_pass(ops, untraced)
        tr.install()
        run_pass(ops, traced, before_op=tr.begin_op)
        tr.uninstall()
        summary = tr.summary()
        suites = {}
        trace_wall = setup_s + traced.walls[0]
    run_for(ops, max(0.0, args.seconds - (time.perf_counter() - t0)), untraced)
    overhead = traced.walls[0] / statistics.median(untraced.walls) - 1.0
    metrics, full = per_layer(summary, trace_wall, overhead, suites)
    full.update({"workload": args.workload, "seed": args.seed, "trace_wall_s": trace_wall,
                 "traced_pass_s": traced.walls[0], "untraced_pass_s": untraced.walls})
    full["facts"] = collect(getattr(mod, "GRIDS", {}))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace_{args.workload}_seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
    print(table(full))
    failed = traced.failed + untraced.failed
    return {"correct": failed == 0, "attempted": traced.attempted + untraced.attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "vilenkin", "__init__.py")):
        print(f"no package sources at {os.path.join(ROOT, 'src', 'vilenkin')}", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    work = _work_dir()
    try:
        if args.setup_probe:
            print(_timed_setup(args.workload, args.seed, work)[2])
            return 0
        origin = importlib.util.find_spec("vilenkin").origin
        if not os.path.abspath(origin).startswith(os.path.join(ROOT, "src")):
            print(f"vilenkin resolves to {origin}, not to src/", file=sys.stderr)
            return 2
        result = (run_traced if args.trace else run_untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
