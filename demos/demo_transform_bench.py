"""Fused transform against the per-digit and the naive oracle: equality then timing.

The naive oracle is a quadratic character sum (about 1 s at 4096 cells and
13 s at 2^14), so it is timed only up to NAIVE_CELLS; above that its column
reads "-" and the fused path is checked against the per-digit oracle alone.
"""

import time

import numpy as np

import vilenkin as vk
from vilenkin import families, oracles, transform

NAIVE_CELLS = 4096


def bench(radices, repeats=3):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(0)
    f = families.random_cells(ns, rng)
    naive = ns.cell_count <= NAIVE_CELLS

    fast = transform.forward(f).coeffs
    ref = (oracles.forward if naive else oracles.staged_forward)(f).coeffs
    diff = np.max(np.abs(fast - ref))

    def med(fn):
        times = sorted(_timed(fn, f) for _ in range(repeats))
        return times[repeats // 2]

    t_fast, t_digit = med(transform.forward), med(oracles.staged_forward)
    naive_col = f"naive={med(oracles.forward) * 1e3:9.2f}ms" if naive else f"naive={'-':>9s}  "
    print(f"cells={ns.cell_count:5d} radices={radices}  diff={diff:.2e}  "
          f"fused={t_fast * 1e3:8.3f}ms  per_digit={t_digit * 1e3:8.3f}ms  {naive_col}  "
          f"speedup={t_digit / t_fast:6.1f}x")


def _timed(fn, f):
    t0 = time.perf_counter()
    fn(f)
    return time.perf_counter() - t0


if __name__ == "__main__":
    bench([2] * 8)
    bench([2] * 10)
    bench([2] * 12)
    bench([4] * 6)
    bench([2, 3, 4, 2, 3, 2, 2, 2])
    bench([2] * 14)
    bench([2] * 16)
    bench([4] * 8)
