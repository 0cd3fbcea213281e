"""The config format: defaults, the merge, and one parse before any work.

Settings merge as flags > VILENKIN_* environment variables > --config JSON
file > defaults. parse checks every key as docs/config-schema.json gives it,
whatever the command, and a bad one raises ConfigurationError naming it.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import families
from .errors import ConfigurationError
from .group import NumberSystem, RadixSequence, build_number_system
from .transform import StepFunction, load_step

DEFAULTS = {
    "radix": {"constant": 2, "length": 8},
    "alphas": [0.25, 0.5, 0.75],
    "functions": [{"family": "lacunary", "decay": "inverse_scale"}],
    "n_schedule": {"kind": "scales_and_neighbors"},
    "out": None,
    "seed": 0,
    "suites": None,
    "max_cells": 1 << 20,
    "thresholds": {"stability_factor": 1.5, "final_over_first": 0.25,
                   "trailing_points": 4},
    "kernel_scan": {"kinds": ["majorant", "coset_decay"], "level": None,
                    "n": None},
    "bench": {"sizes": [{"constant": 2, "length": 12}], "repeats": 3},
}

SUITES = ("group", "characters", "binomials", "dirichlet", "block", "routes", "transform")

# the keys of each mapping form of a radix spec, the first one naming the form
_RADIX_FORMS = (("list",), ("constant", "length"), ("pattern", "length"))
_SCHEDULE_KEYS = ("kind", "start", "stop", "values")
_SPEC_KEYS = ("family", "decay", "coeffs", "level", "coset", "bound", "path")

_ENV_PREFIX = "VILENKIN_"
# sub-configs merged key by key; everything else is replaced whole
_MERGE_KEYS = ("thresholds", "kernel_scan", "bench")

_CONFIG_TYPES = {int: ("an integer", int), float: ("a finite number", (int, float)),
                 str: ("a string", str), list: ("a list", list), dict: ("an object", dict)}


def config_value(value, kind: type, name: str, minimum=None):
    """value converted to kind, the JSON type docs/config-schema.json gives the key.

    Raises ConfigurationError naming the key when the value has another type
    (a boolean is not a number), is a number no finite float holds (json
    reads NaN, Infinity and integers of any size), or lies below minimum. A
    list's minimum bounds its length: an empty list would check nothing.
    """
    what, accepted = _CONFIG_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted) \
            or (kind is float and not abs(value) <= sys.float_info.max) \
            or (minimum is not None and (len(value) if kind is list else value) < minimum):
        bound = "" if minimum is None else f"{' of length' if kind is list else ''} >= {minimum}"
        raise ConfigurationError(f"{name}={value!r} is not {what}{bound}")
    return kind(value)


def config_object(value, keys, name: str) -> dict:
    """value as an object whose keys all lie in keys, as docs/config-schema.json closes it.

    Raises ConfigurationError naming every other key.
    """
    obj = config_value(value, dict, name)
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {name} keys: {sorted(unknown)}")
    return obj


def radix_from_spec(spec) -> RadixSequence:
    """Build a RadixSequence from a config fragment.

    Accepted forms: a bare list of ints, {"list": [...]},
    {"constant": m, "length": N}, or {"pattern": [...], "length": N}
    (pattern cycled to total length N).
    """
    if isinstance(spec, (list, tuple)):
        return RadixSequence(tuple(config_value(m, int, "radix") for m in spec))
    if not isinstance(spec, dict):
        raise ConfigurationError(f"radix spec {spec!r} is not a list or mapping")
    form = next((keys for keys in _RADIX_FORMS if keys[0] in spec), ())
    if not form or set(spec) != set(form):
        raise ConfigurationError(
            f"radix spec keys {sorted(spec)} fit none of the forms {list(_RADIX_FORMS)}")
    if form[0] == "list":
        return RadixSequence(tuple(config_value(m, int, "radix.list")
                                   for m in config_value(spec["list"], list, "radix.list")))
    n = config_value(spec["length"], int, "radix.length", 1)
    if n > 62:  # every radix is at least 2, and build_number_system caps M_N at 2^62
        raise ConfigurationError(f"radix.length={n} gives over 2^62 cells")
    if form[0] == "constant":
        return RadixSequence((config_value(spec["constant"], int, "radix.constant"),) * n)
    pat = [config_value(m, int, "radix.pattern")
           for m in config_value(spec["pattern"], list, "radix.pattern")]
    if not pat:
        raise ConfigurationError("pattern radix spec needs a nonempty pattern")
    return RadixSequence(tuple(pat[k % len(pat)] for k in range(n)))


def _number_system(spec, max_cells: int, name: str) -> NumberSystem:
    ns = build_number_system(radix_from_spec(spec))
    if ns.cell_count > max_cells:
        raise ConfigurationError(
            f"{name} has {ns.cell_count} cells, over the max_cells cap {max_cells}")
    return ns


def _check_orders(values, top: int) -> None:
    for n in values:
        if not 1 <= n <= top:
            raise ConfigurationError(f"order {n} outside 1..{top}")


def n_schedule(ns: NumberSystem, spec: dict) -> list[int]:
    """Order schedule: scale points by default, plus near-scale offsets."""
    kind = config_object(spec, _SCHEDULE_KEYS, "n_schedule").get("kind", "scales_and_neighbors")
    top = ns.cell_count
    if kind == "list":
        values = [config_value(n, int, "n_schedule.values")
                  for n in config_value(spec.get("values", []), list, "n_schedule.values")]
        if not values:
            raise ConfigurationError("n_schedule list needs 'values'")
    elif kind == "dense":
        start = config_value(spec.get("start", 1), int, "n_schedule.start")
        stop = config_value(spec.get("stop", top), int, "n_schedule.stop")
        _check_orders((start, stop), top)  # before the range is built
        if start > stop:
            raise ConfigurationError(f"n_schedule dense start {start} exceeds stop {stop}")
        values = list(range(start, stop + 1))
    elif kind == "scales":
        values = [ns.M[k] for k in range(1, ns.resolution + 1)]
    elif kind == "scales_and_neighbors":
        values = set()
        for k in range(1, ns.resolution + 1):
            values.update((ns.M[k], ns.M[k] - 1))
            if k >= 2 and ns.M[k] + ns.M[k - 1] <= top:
                values.add(ns.M[k] + ns.M[k - 1])
        values = sorted(values)
    else:
        raise ConfigurationError(f"unknown n_schedule kind {kind!r}")
    _check_orders(values, top)
    return values


def family_from_spec(ns: NumberSystem, spec) -> tuple[str, Callable]:
    """(label, build) from a function spec; build(rng) makes the StepFunction.

    Every key the family reads is checked here and nothing is built, except
    that a file family's file is read and checked now: it is outside input.
    """
    if "family" not in config_object(spec, _SPEC_KEYS, "functions"):
        raise ConfigurationError(f"function spec {spec!r} needs a 'family'")
    name = spec["family"]
    if name == "lacunary":
        if spec.get("decay") == "inverse_scale":
            return "lacunary-inverse_scale", \
                lambda rng: families.lacunary(ns, families.inverse_scale_coeffs(ns))
        coeffs = [config_value(c, float, "coeffs")
                  for c in config_value(spec.get("coeffs", []), list, "coeffs")]
        if not coeffs or "decay" in spec:
            raise ConfigurationError("lacunary spec needs 'coeffs' or decay='inverse_scale'")
        if len(coeffs) > ns.resolution:
            raise ConfigurationError(f"{len(coeffs)} coeffs exceed the {ns.resolution} digits")
        return "lacunary-" + ",".join(repr(c) for c in coeffs), \
            lambda rng: families.lacunary(ns, coeffs)
    if name == "digit_indicator":
        level = config_value(spec.get("level", 1), int, "level")
        coset = config_value(spec.get("coset", 0), int, "coset")
        if not 0 <= level <= ns.resolution:
            raise ConfigurationError(f"level={level} outside 0..{ns.resolution}")
        if not 0 <= coset < ns.M[level]:
            raise ConfigurationError(f"coset={coset} outside 0..{ns.M[level] - 1}")
        return f"digit_indicator-{level}-{coset}", \
            lambda rng: families.digit_indicator(ns, level, coset)
    if name == "random_lipschitz":
        bound = config_value(spec.get("bound", 1.0), float, "bound", 0)
        if not np.isfinite(2.0 * bound):  # rng.uniform needs a finite width
            raise ConfigurationError(f"bound={bound!r} spans no finite interval [-bound, bound]")
        return f"random_lipschitz-{bound!r}", \
            lambda rng: families.random_lipschitz(ns, rng, bound)
    if name == "file":
        path = spec.get("path")
        if not path:
            raise ConfigurationError("file spec needs a 'path'")
        try:
            with open(config_value(path, str, "path"), "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
            raise ConfigurationError(f"cannot read function file {path}: {e}")
        try:
            f = load_step(text)
        except (ValueError, KeyError, TypeError) as e:
            raise ConfigurationError(f"function file {path} is not a step function: {e!r}")
        if f.ns != ns:
            raise ConfigurationError(f"function in {path} lives on a different group")
        return f"file-{path}", lambda rng: f
    raise ConfigurationError(f"unknown function family {name!r}")


def _env_overrides() -> dict:
    out = {}
    if v := os.environ.get(_ENV_PREFIX + "OUT"):
        out["out"] = v
    if v := os.environ.get(_ENV_PREFIX + "SUITES"):
        out["suites"] = [s.strip() for s in v.split(",") if s.strip()]
    for key, name in (("seed", "SEED"), ("max_cells", "MAX_CELLS")):
        if v := os.environ.get(_ENV_PREFIX + name):
            try:
                out[key] = int(v)
            except ValueError:
                raise ConfigurationError(f"{_ENV_PREFIX}{name}={v!r} is not an integer")
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config {path} is not valid JSON: {e}")
    except RecursionError:
        raise ConfigurationError(f"config {path} nests too deeply")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise ConfigurationError(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    return config_object(cfg, DEFAULTS, "config")


def merge_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    file_cfg = load_config(getattr(args, "config", None)
                           or os.environ.get(_ENV_PREFIX + "CONFIG"))
    for key, val in file_cfg.items():
        if key in _MERGE_KEYS:
            cfg[key].update(config_object(val, DEFAULTS[key], key))
        else:
            cfg[key] = val
    cfg.update(_env_overrides())
    for key in ("out", "seed", "max_cells"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "suites", None):
        cfg["suites"] = [s.strip() for s in args.suites.split(",") if s.strip()]
    return cfg


@dataclass(frozen=True)
class Config:
    """A checked config; merged is the config as given, for run_meta.json."""

    ns: NumberSystem
    alphas: tuple[float, ...]
    orders: tuple[int, ...]
    out: str
    seed: int
    suites: tuple[str, ...]
    stability_factor: float
    final_over_first: float
    trailing_points: int
    scan_kinds: tuple[str, ...]
    scan_level: int
    scan_n: tuple[int, ...]
    bench_systems: tuple[NumberSystem, ...]
    bench_repeats: int
    functions: tuple[tuple[str, Callable[[np.random.Generator], StepFunction]], ...]
    merged: dict


def parse(merged: dict, command: str) -> Config:
    """Check every key of a merged config, whatever the command, and resolve it.

    max_cells caps every group the config names, the radix and each bench
    size. The command only names the default output directory. The one
    value derived from the radix is the default scan level N - 1; it is
    left unchecked, so on a one-digit radix only a coset-decay scan fails.
    """
    max_cells = config_value(merged["max_cells"], int, "max_cells", 1)
    ns = _number_system(merged["radix"], max_cells, "group")
    alphas = tuple(config_value(a, float, "alphas")
                   for a in config_value(merged["alphas"], list, "alphas", 1))
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ConfigurationError(f"alpha={a} outside (0, 1)")
    suites = tuple(config_value(s, str, "suites")
                   for s in config_value(merged["suites"] or list(SUITES), list, "suites"))
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigurationError(f"unknown suites {unknown}; have {list(SUITES)}")
    thresholds, scan, bench = merged["thresholds"], merged["kernel_scan"], merged["bench"]
    level = ns.resolution - 1
    if scan["level"] is not None:
        level = config_value(scan["level"], int, "kernel_scan.level")
        if not 1 <= level <= ns.resolution:
            raise ConfigurationError(f"scan level {level} outside 1..{ns.resolution}")
    scan_n = tuple(config_value(n, int, "kernel_scan.n")
                   for n in config_value(scan["n"] or [], list, "kernel_scan.n"))
    _check_orders(scan_n, ns.cell_count)
    kinds = tuple(config_value(scan["kinds"], list, "kernel_scan.kinds", 1))
    for kind in kinds:
        if kind not in ("majorant", "coset_decay"):
            raise ConfigurationError(f"unknown scan kind {kind!r}")
    return Config(
        ns=ns, alphas=alphas, orders=tuple(n_schedule(ns, merged["n_schedule"])),
        out=config_value(merged["out"] or os.path.join("runs", command), str, "out"),
        seed=config_value(merged["seed"], int, "seed", 0), suites=suites,
        stability_factor=config_value(thresholds["stability_factor"], float,
                                      "thresholds.stability_factor"),
        final_over_first=config_value(thresholds["final_over_first"], float,
                                      "thresholds.final_over_first"),
        trailing_points=config_value(thresholds["trailing_points"], int,
                                     "thresholds.trailing_points", 2),
        scan_kinds=kinds, scan_level=level, scan_n=scan_n,
        bench_systems=tuple(_number_system(spec, max_cells, "bench size")
                            for spec in config_value(bench["sizes"], list, "bench.sizes", 1)),
        bench_repeats=config_value(bench["repeats"], int, "bench.repeats", 1),
        functions=tuple(family_from_spec(ns, spec)
                        for spec in config_value(merged["functions"], list, "functions", 1)),
        merged=merged)
