"""Write BENCH_<n>.json: the end-to-end benchmark metrics of this checkout plus machine facts.

    python3 scripts/bench_snapshot.py --number N

Each workload runs as one untraced `perfbench/run.py` process, one after the
other, at seed 0 for 30 s; these are fixed so that every snapshot measures
the same thing. The last line of its standard output is the result (`correct`,
`attempted`, `failed`, `metrics`); the JSON line above it holds the run
facts (cores, Python, numpy, OpenBLAS, caches, computed working sets), which
go into the snapshot beside the metrics. The file is written at the root of
the checkout, so the numbers of successive changes form a trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("large_grid", "scan", "cli")
SEED = 0
SECONDS = 30


def _json_lines(stdout: str) -> list[dict]:
    out = []
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            out.append(obj)
    return out


def run_workload(name: str) -> dict:
    """One untraced run of a workload: its result line plus the facts it printed."""
    cmd = [sys.executable, RUN, "--workload", name, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = _json_lines(proc.stdout)
    if proc.returncode != 0 or not lines or "metrics" not in lines[-1]:
        raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = lines[-1]
    report = next((obj for obj in reversed(lines[:-1]) if "facts" in obj), {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "passes": report.get("passes"),
        "facts": report.get("facts"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--number", type=int, required=True, help="n of BENCH_<n>.json")
    args = p.parse_args(argv)
    snapshot = {
        "bench": args.number,
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} "
                   f"--seconds {SECONDS} --trace 0",
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in WORKLOADS:
        print(f"bench_snapshot: {name} ...", file=sys.stderr, flush=True)
        snapshot["workloads"][name] = run_workload(name)
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
