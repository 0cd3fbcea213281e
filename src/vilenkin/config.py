"""The config format: defaults, the merge, and one parse before any work.

Settings merge as flags > --config JSON file > defaults, and come from
nowhere else. parse checks every key as docs/config-schema.json gives it,
whatever the command, and a bad one raises ConfigurationError naming it.
"""

from __future__ import annotations

import copy
import json
import os
import reprlib
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import families
from .errors import ConfigurationError
from .group import NumberSystem, RadixSequence, build_number_system
from .transform import StepFunction

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
# the keys each function family reads besides "family", as the schema's allOf closes them
_FAMILY_KEYS = {"lacunary": ("decay", "coeffs"), "digit_indicator": ("level", "coset"),
                "random_lipschitz": ("bound",), "file": ("path",)}

# sub-configs merged key by key; everything else is replaced whole
_MERGE_KEYS = ("thresholds", "kernel_scan", "bench")

_CONFIG_TYPES = {int: ("an integer", int), float: ("a finite number", (int, float)),
                 str: ("a string", str), list: ("a list", list), dict: ("an object", dict)}


def config_value(value, kind: type, name: str, minimum=None):
    """value converted to kind, the JSON type docs/config-schema.json gives the key.

    Raises ConfigurationError naming the key when the value has another type
    (a boolean is not a number), is a number no finite float holds (json
    reads NaN, Infinity and integers of any size), or lies below minimum. A
    list's or string's minimum bounds its length: an empty one names nothing.
    The message shows the value abridged, since it may be a whole file's list.
    """
    what, accepted = _CONFIG_TYPES[kind]
    if isinstance(value, bool) or not isinstance(value, accepted) \
            or (kind is float and not abs(value) <= sys.float_info.max) \
            or (minimum is not None and (len(value) if kind in (list, str) else value) < minimum):
        bound = "" if minimum is None else f"{' of length' * (kind in (list, str))} >= {minimum}"
        raise ConfigurationError(f"{name}={reprlib.repr(value)} is not {what}{bound}")
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
    if "family" not in config_value(spec, dict, "functions"):
        raise ConfigurationError(f"function spec {spec!r} needs a 'family'")
    name = spec["family"]
    if not isinstance(name, str) or name not in _FAMILY_KEYS:
        raise ConfigurationError(f"unknown function family {name!r}")
    config_object(spec, ("family", *_FAMILY_KEYS[name]), "functions")
    if name == "lacunary":
        if spec.get("decay") == "inverse_scale" and "coeffs" not in spec:
            return "lacunary-inverse_scale", \
                lambda rng: families.lacunary(ns, families.inverse_scale_coeffs(ns))
        coeffs = [config_value(c, float, "coeffs")
                  for c in config_value(spec.get("coeffs", []), list, "coeffs")]
        if not coeffs or "decay" in spec:
            raise ConfigurationError("lacunary spec takes one of 'coeffs' and decay='inverse_scale'")
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
    # the file family: outside input, so its file is read and checked here
    path = config_value(spec.get("path"), str, "path", 1)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    # ValueError: not UTF-8, not JSON, or a NUL in the path; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as e:
        raise ConfigurationError(f"cannot read function file {path}: {e}")
    if not isinstance(d, dict):  # no repr: the value is the whole file
        raise ConfigurationError(f"function file {path} holds no JSON object")
    f = _step_file(ns, d, path)
    return f"file-{path}", lambda rng: f


def _step_file(ns: NumberSystem, d: dict, path: str) -> StepFunction:
    """The file family's format: radix, resolution and one [re, im] pair per cell.

    Each field is checked by config_value as a config key is, and never
    converted: the radix is a list of ints, the resolution an int, each cell
    a pair of finite numbers, and a bool is none of these. The radix must be
    the group's, and a coarser file is lifted to the group's resolution: an
    exact tile of its cells.
    """
    radix = config_value(d.get("radix"), list, f"{path}: radix")
    if [config_value(m, int, f"{path}: radix") for m in radix] != list(ns.radix.radices):
        raise ConfigurationError(f"function in {path} lives on a different group")
    r = config_value(d.get("resolution"), int, f"{path}: resolution", 0)
    if r > ns.resolution:
        raise ConfigurationError(f"{path}: resolution={r} outside 0..{ns.resolution}")
    pairs = config_value(d.get("cells"), list, f"{path}: cells")
    if len(pairs) != ns.M[r]:
        raise ConfigurationError(f"{path}: {len(pairs)} cells != M_{r} = {ns.M[r]}")
    cells = np.empty(len(pairs), dtype=np.complex128)
    for i, pair in enumerate(pairs):
        name = f"{path}: cells[{i}]"
        if len(config_value(pair, list, name)) != 2:
            raise ConfigurationError(f"{name}={reprlib.repr(pair)} is not a pair [re, im]")
        cells[i] = complex(*(config_value(v, float, name) for v in pair))
    return StepFunction(ns, r, cells).lift(ns.resolution)


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
    file_cfg = load_config(getattr(args, "config", None))
    for key, val in file_cfg.items():
        if key in _MERGE_KEYS:
            cfg[key].update(config_object(val, DEFAULTS[key], key))
        else:
            cfg[key] = val
    for key in ("out", "seed", "max_cells"):
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    if getattr(args, "suites", None) is not None:
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
    scan_n: tuple[int, ...] | None
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
    # only null means every suite: an empty list would check nothing
    suites = SUITES if merged["suites"] is None else tuple(
        config_value(s, str, "suites") for s in config_value(merged["suites"], list, "suites", 1))
    unknown = [s for s in suites if s not in SUITES]
    if unknown:
        raise ConfigurationError(f"unknown suites {unknown}; have {list(SUITES)}")
    thresholds, scan, bench = merged["thresholds"], merged["kernel_scan"], merged["bench"]
    level = ns.resolution - 1
    if scan["level"] is not None:
        level = config_value(scan["level"], int, "kernel_scan.level")
        if not 1 <= level <= ns.resolution:
            raise ConfigurationError(f"scan level {level} outside 1..{ns.resolution}")
    scan_n = None if scan["n"] is None else tuple(  # only null means the default orders
        config_value(n, int, "kernel_scan.n")
        for n in config_value(scan["n"], list, "kernel_scan.n", 1))
    _check_orders(scan_n or (), ns.cell_count)
    stability = config_value(thresholds["stability_factor"], float, "thresholds.stability_factor")
    if not stability > 0:  # a factor of 0 or below reads every scan as unstable
        raise ConfigurationError(f"thresholds.stability_factor={stability!r} is not above 0")
    kinds = tuple(config_value(scan["kinds"], list, "kernel_scan.kinds", 1))
    for kind in kinds:
        if kind not in ("majorant", "coset_decay"):
            raise ConfigurationError(f"unknown scan kind {kind!r}")
    return Config(
        ns=ns, alphas=alphas, orders=tuple(n_schedule(ns, merged["n_schedule"])),
        out=os.path.join("runs", command) if merged["out"] is None
        else config_value(merged["out"], str, "out", 1),
        seed=config_value(merged["seed"], int, "seed", 0), suites=suites,
        stability_factor=stability,
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
