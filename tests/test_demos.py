"""Every demo runs to completion against the current package."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import vilenkin

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SRC = pathlib.Path(vilenkin.__file__).resolve().parent.parent

FAST = ["demo_cesaro_convergence.py", "demo_group_and_characters.py",
        "demo_kernel_identities.py", "demo_oscillation_profiles.py"]


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("demo_*.py")) == sorted(FAST + ["demo_transform_bench.py"])


@pytest.mark.parametrize("name", FAST)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_transform_bench_demo(capsys):
    # the full demo runs up to 2^16 cells; one small size suffices
    spec = importlib.util.spec_from_file_location("demo_transform_bench",
                                                  DEMOS / "demo_transform_bench.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.bench([2] * 6, repeats=1)
    out = capsys.readouterr().out
    assert "cells=   64" in out and "speedup=" in out
    assert "fused=" in out and "per_digit=" in out and "naive=" in out
