"""Staged transform against the quadratic oracle: equality then timing."""

import time

import numpy as np

import vilenkin as vk
from vilenkin import families, oracles, transform


def bench(radices, repeats=3):
    ns = vk.number_system(radices)
    rng = np.random.default_rng(0)
    f = families.random_cells(ns, rng)

    fast = transform.forward(f)
    naive = oracles.forward(f)
    diff = np.max(np.abs(fast.coeffs - naive.coeffs))

    def med(fn):
        times = sorted(_timed(fn, f) for _ in range(repeats))
        return times[repeats // 2]

    t_fast, t_naive = med(transform.forward), med(oracles.forward)
    print(f"cells={ns.cell_count:5d} radices={radices}  diff={diff:.2e}  "
          f"fast={t_fast * 1e3:8.2f}ms  naive={t_naive * 1e3:8.2f}ms  "
          f"speedup={t_naive / t_fast:8.1f}x")


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
