"""Facts about the machine and the numeric stack, read without changing anything."""

from __future__ import annotations

import ctypes
import glob
import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def caches() -> list[dict]:
    out = []
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        out.append({k: _read(os.path.join(d, k)) for k in ("level", "type", "size")})
    return out


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * mult


def openblas() -> dict:
    """Version and thread count of the OpenBLAS loaded by numpy, if any."""
    import numpy as np

    info = {"env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    return info


def collect(grids: dict) -> dict:
    """Run facts plus computed working sets: grid name -> radices."""
    import numpy as np

    llc = max((c for c in caches() if c["type"] in ("Unified", "Data")),
              key=lambda c: int(c["level"] or 0), default=None)
    llc_bytes = _size_bytes(llc["size"]) if llc else None
    sets = {}
    for name, radices in grids.items():
        cells = int(np.prod(radices))
        # input, output and one temporary complex128 tensor per transform stage
        arrays = 3 * 16 * cells
        digits = 8 * cells * len(radices)
        sets[name] = {"cells": cells, "transform_arrays_bytes": arrays,
                      "digit_table_bytes": digits,
                      "fits_llc": None if llc_bytes is None else arrays + digits <= llc_bytes}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": openblas(),
        "caches": caches(),
        "working_sets_computed": sets,
        "note": "working sets are computed from array sizes, not measured; "
                "no bandwidth claim is made",
    }
