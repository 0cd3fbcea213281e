"""The benchmark's `scan` workload as a test: every op once, judged by its own check.

perfbench/wl_scan.py builds each op from the package's public functions and
checks it against references that do not import vilenkin (np.fft on the
digit tensor, the A_n recurrence). Running them here means a change that
the benchmark's oracles would reject fails the test suite first. The ops
run in this process; nothing is written and no subprocess is started.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def wl_scan():
    # no bytecode cache either: the test leaves perfbench/ as it found it
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode, before = True, sys.dont_write_bytecode
    try:
        return importlib.import_module("wl_scan")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = before


@pytest.mark.parametrize("seed", [1, 7])
def test_scan_ops_pass_their_checks(wl_scan, seed):
    ops = wl_scan.ops(wl_scan.setup(seed))
    parts = {part for op in ops for part in op.name.split(":")}
    assert {"coset_decay", "majorant", "oscillation_series", "converge"} <= parts
    failed = [op.name for op in ops if not op.check(op.run())]
    assert failed == []
