"""Pass loop, latency statistics and process facts shared by the workloads."""

from __future__ import annotations

import functools
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Op:
    """One timed call: `run` is timed, `check` judges its output afterwards."""

    name: str
    cells: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# Host speed. This machine's cores are shared, and their speed drifts by tens
# of percent within and between runs. A workload can ask for a fixed chunk of
# reference work to be timed after every op; its times are then scaled to a
# host on which one chunk takes REF_CHUNK_S. A change to the program cannot
# move the chunk's time, while a change in host speed moves both alike.
#
# The chunk has the mix of the scan rows: about half interpreter loops over
# digits, as in coset_rep and cell_index, and half numpy passes over 4096
# cells. Regressing log pass time on log chunk time over the passes of two
# 60-s runs on the 2-core reference host gave a slope of 0.99 (correlation
# 0.98) on scan and 0.86 (correlation 0.79) on large_grid. A chunk of
# interpreter work alone gave 0.66 on scan, so scaling by it overshot.
REF_CHUNK_S = 1e-3
REF_SHARE = 0.05  # reference time after an op, as a share of the op's time


class _RefElement:
    __slots__ = ("digits",)

    def __init__(self, digits: tuple):
        self.digits = digits

    def index(self) -> int:
        ci = 0
        for x in self.digits[:6]:
            ci = ci * 7 + x
        return ci


@functools.cache
def _reference_inputs():
    # numpy is imported here, not with this module, so that the set-up a
    # workload times in this process imports it as a fresh process does
    import numpy as np

    return np, np.linspace(-1.0, 1.0, 4096), np.linspace(0.0, 1.0, 4096) + 0j


def reference_chunk() -> float:
    """The fixed reference work, about 1 ms on the reference host."""
    np, cells, spectrum = _reference_inputs()
    acc = 0.0
    for b in range(1, 190):
        d = [0] * 12
        rem = b
        for j in range(6):
            d[j], rem = divmod(rem, 7)
        ci = _RefElement(tuple(d)).index()
        acc += abs(cells[ci & 4095]) * b ** 0.5 / 4096
    for _ in range(11):
        acc += float(np.abs(np.cumsum(spectrum * 1.0001)).max())
    return acc


@dataclass
class Passes:
    walls: list = field(default_factory=list)       # seconds per pass, ops only
    latencies: list = field(default_factory=list)   # seconds per op execution
    speed: list = field(default_factory=list)       # per pass: chunks * REF_CHUNK_S / their time
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def _reference_after(dt: float) -> tuple[int, float]:
    """Run REF_SHARE of `dt` in reference chunks, at least one; returns (chunks, seconds)."""
    n = max(1, round(REF_SHARE * dt / REF_CHUNK_S))
    t0 = time.perf_counter()
    for _ in range(n):
        reference_chunk()
    return n, time.perf_counter() - t0


def run_pass(ops: list[Op], result: Passes, before_op=None, reference: bool = False) -> None:
    """Run every op once. Only `run` is timed; checks and reference chunks run outside the clock."""
    wall = ref_s = 0.0
    chunks = 0
    for op in ops:
        if before_op is not None:
            before_op()
        t0 = time.perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as e:  # an op that raises counts as failed, the run goes on
            out, err = None, e
        dt = time.perf_counter() - t0
        wall += dt
        result.latencies.append(dt)
        if reference:
            n, spent = _reference_after(dt)
            chunks += n
            ref_s += spent
        result.attempted += 1
        if err is None:
            try:
                ok = bool(op.check(out))
            except Exception as e:
                ok, err = False, e
        else:
            ok = False
        if not ok:
            result.failed += 1
            if len(result.failures) < 20:
                result.failures.append(f"{op.name}: {err!r}" if err else op.name)
    result.walls.append(wall)
    if reference:
        result.speed.append(chunks * REF_CHUNK_S / ref_s)


def run_for(ops: list[Op], seconds: float, result: Passes | None = None,
            reference: bool = False) -> Passes:
    """Whole passes until the next one would end after `seconds`; at least one."""
    result = Passes() if result is None else result
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        run_pass(ops, result, reference=reference)
        last = time.perf_counter() - t
        if time.perf_counter() - start + last > seconds:
            return result


def quantile(values, q: float) -> float:
    """Inverted-CDF quantile: the smallest sample with at least q of the samples at or below it."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest waited-for child, in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _factors(passes: Passes, scaled: bool) -> list[float]:
    """Per pass, the factor that scales its times to reference speed (1 when unscaled)."""
    return passes.speed if scaled and passes.speed else [1.0] * len(passes.walls)


def op_medians(passes: Passes, n_ops: int, scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes of the run."""
    f = _factors(passes, scaled)
    lat = [t * f[j // n_ops] for j, t in enumerate(passes.latencies)]
    return [statistics.median(lat[i::n_ops]) for i in range(n_ops)]


def end_to_end(passes: Passes, ops: list[Op], setup_samples: list, rss_mb: float,
               scaled: bool = True) -> dict:
    """The end-to-end metrics; op times are scaled if the run timed a reference."""
    wall = statistics.median([w * f for w, f in zip(passes.walls, _factors(passes, scaled))])
    cells = sum(op.cells for op in ops)
    per_op = op_medians(passes, len(ops), scaled)
    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(ops) / wall, "1/s"),
        "mcells_per_s": (cells / wall / 1e6, "Mcell/s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1e3 * quantile(per_op, 0.90), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
        "ok_frac": ((passes.attempted - passes.failed) / passes.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
