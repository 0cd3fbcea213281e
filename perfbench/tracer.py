"""Call tracing for the traced benchmark runs.

`Tracer.install()` wraps every public module-level function of the vilenkin
package and rebinds the wrapper on every module attribute, and every value of
a module-level dict, that refers to the function. Calls between modules and
the CLI's dispatch table therefore pass through the wrappers. The layer of a
function is the module that defines it.

Spans are never stored one by one. Each thread keeps a stack of open spans and
folds every closed span into per-(layer, function) totals: calls, inclusive
time (outermost call only, so recursion is not counted twice), self time
(duration minus the time of the child spans on the same thread) and calls that
raised. Two kinds of span are kept raw because they are few: root spans on
threads other than the main thread (pool work) and spans of the `cli` layer,
so that the time a subcommand spends waiting on its pool can be moved out of
its self time afterwards.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import threading
import time

LAYERS = ("group", "characters", "binomials", "transform", "kernels",
          "oscillation", "families", "cli")

# Functions whose arguments are remembered per op, for repeat_frac.
REPEAT_TRACKED = frozenset({"group.coset_rep", "binomials.cesaro_table",
                            "kernels.cesaro_kernel"})

# Subcommands that fan their rows out to a thread pool.
POOLED = frozenset({"cli.run_converge", "cli.run_kernel_scan"})


def _transform_counts(x, strategy, out):
    """Cells, flops and bytes of one staged transform, worked out from the radices.

    Each digit stage is an (m_j x m_j) complex matrix applied along one axis:
    M m_j complex multiply-adds (8 real flops each), one read and one write
    of the M-cell complex128 tensor. Naive-strategy calls count cells only.
    """
    ns, r = x.ns, x.resolution
    cells = ns.M[r]
    out["transform.cells"] = out.get("transform.cells", 0) + cells
    if strategy != "fast":
        return
    radices = ns.radix.radices[:r]
    out["transform.flops_computed"] = (out.get("transform.flops_computed", 0)
                                       + 8 * cells * sum(radices))
    out["transform.bytes_computed"] = (out.get("transform.bytes_computed", 0)
                                       + 32 * cells * len(radices))


def _forward_counts(args, kwargs, out):
    f = args[0] if args else kwargs["f"]
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "fast")
    _transform_counts(f, strategy, out)


def _inverse_counts(args, kwargs, out):
    _transform_counts(args[0] if args else kwargs["c"], "fast", out)


def _character_block_counts(args, kwargs, out):
    ns, start, stop = args[0], args[1], args[2]
    r = args[3] if len(args) > 3 else kwargs.get("resolution")
    r = ns.resolution if r is None else r
    out["characters.character_block.entries"] = (
        out.get("characters.character_block.entries", 0) + (stop - start) * ns.M[r])


COUNTERS = {
    "transform.forward": _forward_counts,
    "transform.inverse": _inverse_counts,
    "characters.character_block": _character_block_counts,
}


class _ThreadState:
    __slots__ = ("stack", "depth", "stats", "counters", "seen", "roots", "cli_spans",
                 "is_main")

    def __init__(self, is_main: bool):
        self.stack = []       # open spans: [start, child_time]
        self.depth = {}       # open-span count per function and per layer
        self.stats = {}       # "layer.fn" -> [calls, busy, self, errors, tracked, repeats]
        self.counters = {}
        self.seen = {}        # "layer.fn" -> (op epoch, set of argument keys)
        self.roots = []       # (start, end) of root spans, pool threads only
        self.cli_spans = []   # (name, start, end) of cli-layer spans
        self.is_main = is_main


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._restore = []
        self.epoch = 0

    def begin_op(self) -> None:
        """Start a new op: repeat_frac compares arguments within one op only."""
        self.epoch += 1

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState(threading.current_thread() is threading.main_thread())
            with self._lock:
                self._states.append(st)
            self._tls.state = st
            return st

    def _wrap(self, fn, qual: str):
        layer = qual.split(".", 1)[0]
        tracer = self
        track = qual in REPEAT_TRACKED
        count = COUNTERS.get(qual)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = tracer._state()
            depth = st.depth
            outer_fn = depth.get(qual, 0) == 0
            outer_layer = depth.get(layer, 0) == 0
            depth[qual] = depth.get(qual, 0) + 1
            depth[layer] = depth.get(layer, 0) + 1
            frame = [clock(), 0.0]
            st.stack.append(frame)
            raised = True
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = clock()
                st.stack.pop()
                depth[qual] -= 1
                depth[layer] -= 1
                dur = end - frame[0]
                if st.stack:
                    st.stack[-1][1] += dur
                elif not st.is_main:
                    st.roots.append((frame[0], end))
                s = st.stats.get(qual)
                if s is None:
                    s = st.stats[qual] = [0, 0.0, 0.0, 0, 0, 0]
                lay = st.stats.get(layer)
                if lay is None:
                    lay = st.stats[layer] = [0, 0.0, 0.0, 0, 0, 0]
                s[0] += 1
                lay[0] += 1
                s[2] += dur - frame[1]
                lay[2] += dur - frame[1]
                if outer_fn:
                    s[1] += dur
                if outer_layer:
                    lay[1] += dur
                if raised:
                    s[3] += 1
                    lay[3] += 1
                if track:
                    try:
                        key = hash((args, tuple(sorted(kwargs.items()))))
                    except TypeError:
                        key = None
                    if key is not None:
                        ep, seen = st.seen.get(qual, (None, None))
                        if ep != tracer.epoch:
                            seen = set()
                            st.seen[qual] = (tracer.epoch, seen)
                        s[4] += 1
                        if key in seen:
                            s[5] += 1
                        else:
                            seen.add(key)
                if count is not None and not raised:
                    count(args, kwargs, st.counters)
                if layer == "cli":
                    st.cli_spans.append((qual, frame[0], end))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        """Wrap every public function of vilenkin.* on all of its bindings."""
        import vilenkin

        mods = [vilenkin] + [importlib.import_module(f"vilenkin.{m.name}")
                             for m in pkgutil.iter_modules(vilenkin.__path__)]
        wrappers = {}
        for mod in mods:
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) or not callable(obj) or id(obj) in wrappers:
                    continue
                owner = getattr(obj, "__module__", None) or ""
                name = getattr(obj, "__name__", "") or ""
                layer = owner[len("vilenkin."):] if owner.startswith("vilenkin.") else ""
                if layer in LAYERS and name and not name.startswith("_"):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._restore.append((obj, key, val))
                            obj[key] = wrappers[id(val)]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def summary(self) -> dict:
        """Totals over all threads, with pool waiting moved out of cli self time."""
        stats, counters = {}, {}
        roots, cli_spans = [], []
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, vals in st.stats.items():
                acc = stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
                for i, v in enumerate(vals):
                    acc[i] += v
            for key, v in st.counters.items():
                counters[key] = counters.get(key, 0) + v
            roots.extend(st.roots)
            cli_spans.extend(st.cli_spans)
        worker_s = pool_wall_s = 0.0
        for name, start, end in cli_spans:
            if name not in POOLED:
                continue
            inside = sorted((max(a, start), min(b, end)) for a, b in roots
                            if a < end and b > start)
            covered, reach = 0.0, start
            for a, b in inside:
                if b > reach:
                    covered += b - max(a, reach)
                    reach = b
            worker_s += sum(b - a for a, b in inside)
            pool_wall_s += end - start
            for key in (name, "cli"):
                if key in stats:
                    stats[key][2] -= covered
        return {"stats": stats, "counters": counters,
                "pool": {"worker_s": worker_s, "wall_s": pool_wall_s}}


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    stats, counters = {}, {}
    pool = {"worker_s": 0.0, "wall_s": 0.0}
    for s in summaries:
        for key, vals in s["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in s["counters"].items():
            counters[key] = counters.get(key, 0) + v
        for key in pool:
            pool[key] += s["pool"][key]
    return {"stats": stats, "counters": counters, "pool": pool}


def dump(summary: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
