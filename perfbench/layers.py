"""Per-layer metrics from a trace summary.

The JSON result carries the metrics listed under `per_layer` in
BENCHMARK.json. Times of a layer that every workload runs are given in
seconds. Times of a function or subcommand that a workload may bypass are
given as a share of the traced wall, so that a bypass reads 0 as a ratio;
their seconds are in the full table.
"""

from __future__ import annotations

from tracer import LAYERS
from wl_cli import SUITES

SUBCOMMANDS = {"verify": "run_verify", "converge": "run_converge",
               "kernel-scan": "run_kernel_scan", "oscillation": "run_oscillation",
               "bench": "run_bench"}

# functions reported by call count; * also by repeat_frac
CALLS = ("group.coset_rep*", "group.translate_indices", "binomials.cesaro_table*",
         "kernels.cesaro_kernel*", "transform.forward", "transform.inverse")
# functions run by every workload: self time in seconds
SELF_S = ("group.digit_matrix", "group.coset_key_table", "oscillation.oscillation_profile")
# functions some workload bypasses: self time as a share of the traced wall
SHARE = ("kernels.coset_decay_scan", "kernels.dirichlet_table",
         "kernels.block_decomposition_residual", "oscillation.difference_condition",
         "characters.character_block")


def per_layer(summary: dict, wall: float, overhead: float, suites: dict):
    """Returns (metrics for the JSON result, full table with every traced function)."""
    stats, counters, pool = summary["stats"], summary["counters"], summary["pool"]

    def stat(key):
        calls, busy, self_s, errors, tracked, repeats = stats.get(key, (0, 0.0, 0.0, 0, 0, 0))
        return {"calls": calls, "busy_s": busy, "self_s": self_s, "errors": errors,
                "repeat_frac": repeats / tracked if tracked else 0.0}

    m = {}
    for layer in LAYERS:
        s = stat(layer)
        m[f"{layer}.calls"] = (s["calls"], "count")
        if layer != "cli":
            m[f"{layer}.busy_s"] = (s["busy_s"], "s")
            m[f"{layer}.self_s"] = (s["self_s"], "s")
        m[f"{layer}.share"] = (s["self_s"] / wall, "ratio")
        m[f"{layer}.errors"] = (s["errors"], "count")
    m["cli.pool_parallelism"] = (pool["worker_s"] / pool["wall_s"] if pool["wall_s"] else 0.0,
                                 "ratio")
    for name in CALLS:
        key = name.rstrip("*")
        m[f"{key}.calls"] = (stat(key)["calls"], "count")
        if name.endswith("*"):
            m[f"{key}.repeat_frac"] = (stat(key)["repeat_frac"], "ratio")
    for key in SELF_S:
        m[f"{key}.self_s"] = (stat(key)["self_s"], "s")
    for key in SHARE:
        m[f"{key}.share"] = (stat(key)["self_s"] / wall, "ratio")
    transform_busy = stat("transform")["busy_s"]
    m["transform.cells"] = (counters.get("transform.cells", 0), "count")
    m["transform.flops_computed"] = (counters.get("transform.flops_computed", 0), "count")
    m["transform.bytes_computed"] = (counters.get("transform.bytes_computed", 0), "B")
    m["transform.mcells_per_busy_s"] = (
        counters.get("transform.cells", 0) / 1e6 / transform_busy if transform_busy else 0.0,
        "Mcell/s")
    m["characters.character_block.entries"] = (
        counters.get("characters.character_block.entries", 0), "count")
    for sub, fn in SUBCOMMANDS.items():
        m[f"cli.{sub}.share"] = (stat(f"cli.{fn}")["busy_s"] / wall, "ratio")
    for suite in SUITES:
        m[f"cli.verify.{suite}.share"] = (suites.get(suite, 0.0) / wall, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")

    full = {
        "wall_s": wall,
        "layers": {layer: stat(layer) for layer in LAYERS},
        "functions": {k: stat(k) for k in sorted(stats) if "." in k},
        "counters": counters,
        "pool": pool,
        "cli": {"self_s": stat("cli")["self_s"],
                **{f"{sub}.wall_s": stat(f"cli.{fn}")["busy_s"]
                   for sub, fn in SUBCOMMANDS.items()},
                **{f"verify.{s}_s": suites.get(s, 0.0) for s in SUITES}},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }
    return full["metrics"], full


def table(full: dict) -> str:
    """Human-readable per-layer table of a traced run."""
    wall = full["wall_s"]
    lines = [f"traced wall {wall:.3f} s  overhead "
             f"{full['metrics']['trace.overhead_frac']['value']:+.3f}",
             f"{'layer / function':44s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} "
             f"{'share':>6s} {'errors':>6s} {'repeat':>6s}"]
    for layer, s in full["layers"].items():
        lines.append(f"{layer:44s} {s['calls']:9d} {s['busy_s']:9.4f} {s['self_s']:9.4f} "
                     f"{s['self_s'] / wall:6.3f} {s['errors']:6d}")
        for key, f in full["functions"].items():
            if key.split(".", 1)[0] == layer and f["calls"]:
                lines.append(f"  {key:42s} {f['calls']:9d} {f['busy_s']:9.4f} "
                             f"{f['self_s']:9.4f} {f['self_s'] / wall:6.3f} {f['errors']:6d} "
                             f"{f['repeat_frac']:6.3f}")
    for k, v in full["cli"].items():
        if v:
            lines.append(f"cli.{k:40s} {v:9.4f} s")
    for k, v in full["counters"].items():
        lines.append(f"{k:44s} {v:d}")
    lines.append(f"cli.pool_parallelism {full['metrics']['cli.pool_parallelism']['value']:.3f}")
    return "\n".join(lines)
