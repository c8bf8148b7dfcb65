"""Spans and exact work counters recorded around calls into tensortree.

The library has no tracing of its own, so the traced run patches the
public functions of each module from the outside.  Modules import their
callees by name (``tree`` calls its own ``find_best_split`` binding, not
``splitting.find_best_split``), so a target is replaced in every loaded
``tensortree`` module that holds it, and restored afterwards.  NumPy's
``linalg.lstsq`` and ``linalg.svd`` are looked up on ``numpy.linalg`` at
call time and are patched there.

A span records name, start, end, parent span and run id.  Spans stay in
memory and are written once, when the run ends.  Hooks that count work
(candidate rules, tree nodes, retained bytes) run inside a ``trace.hook``
span, so their cost is kept out of every layer's self time.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span list plus thread-safe counters and timers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, site: str | None = None):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, site, start, end, parent, self.run_id,
                               threading.current_thread().name))

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value


def write_spans(spans, path) -> None:
    """One JSON object per span and line."""
    keys = ("id", "name", "site", "start", "end", "parent", "run_id", "thread")
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")


# --- counting hooks --------------------------------------------------------


def _admissible_rules(x, coords_list, value_mode: str, min_child: int) -> int:
    """Rules with both children >= ``min_child`` over the scanned coordinates.

    Mirrors the library's candidate definition: observed mode tries every
    distinct value of a coordinate as a threshold, mean mode tries the
    node-local column mean.
    """
    n = x.shape[0]
    total = 0
    if value_mode == "mean":
        for coords in coords_list:
            col = x[(slice(None),) + tuple(coords)]
            nl = int((col <= col.mean()).sum())
            total += int(nl >= min_child and n - nl >= min_child)
        return total
    if not coords_list:
        return 0
    flat = np.ravel_multi_index(tuple(np.array(coords_list).T), x.shape[1:])
    cols = np.sort(x.reshape(n, -1)[:, flat], axis=0)
    k = np.arange(1, n)[:, None]
    ok = (cols[:-1] < cols[1:]) & (k >= min_child) & (n - k >= min_child)
    return int(ok.sum())


def _count_nodes(node) -> int:
    if hasattr(node, "rule"):
        return 1 + _count_nodes(node.left) + _count_nodes(node.right)
    return 1


def retained_bytes(obj) -> int:
    """Bytes of the distinct NumPy buffers reachable from ``obj``."""
    seen_objs: set[int] = set()
    buffers: dict[int, int] = {}
    todo = [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen_objs or o is None or isinstance(o, (str, bytes, int, float, bool)):
            continue
        seen_objs.add(id(o))
        if isinstance(o, np.ndarray):
            base = o
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            todo.extend(o)
        elif hasattr(o, "__dict__"):
            todo.extend(vars(o).values())
    return sum(buffers.values())


def _array_bytes(values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (list, tuple)):
            total += _array_bytes(v)
    return total


# --- patch targets ---------------------------------------------------------

# (defining module, function, span name).  Hooks are keyed by span name.
SPAN_TARGETS = (
    ("splitting", "find_best_split", "splitting.find_best_split"),
    ("splitting", "split_gain", "splitting.split_gain"),
    ("leaf_models", "fit_leaf", "leaf_models.fit_leaf"),
    ("leaf_models", "predict_leaf", "leaf_models.predict_leaf"),
    ("decomposition", "cp_als", "decomposition.cp_als"),
    ("decomposition", "tucker_als", "decomposition.tucker_als"),
    ("tree", "grow", "tree.grow"),
    ("tree", "prune", "tree.prune"),
    ("ensemble", "fit_boosting", "ensemble.fit_boosting"),
    ("ensemble", "fit_forest", "ensemble.fit_forest"),
    ("tensor_output", "fit_entrywise", "tensor_output.fit_entrywise"),
    ("tensor_output", "fit_lowrank", "tensor_output.fit_lowrank"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "loads", "serialize.loads"),
    ("cli", "main", "cli.main"),
    ("data", "generate", "data.generate"),
)

# Public tensor_ops functions counted (not spanned) where other modules call them.
TENSOR_OPS = ("unfold", "fold", "mode_product", "khatri_rao", "khatri_rao_all", "outer",
              "frobenius_norm")

LINALG = ("lstsq", "svd")


class _Scan(threading.local):
    """Coordinates scored inside the current find_best_split call, per thread."""

    coords: list | None = None


def _hooks(tracer: Tracer, scan: _Scan):
    def find_best_split(site, args, kwargs, result):
        x, criterion = np.asarray(args[0]), args[2]
        tracer.add("splitting.candidates", _admissible_rules(
            x, scan.coords or [], criterion.value_mode, kwargs.get("min_child", 1)))

    def fit_leaf(site, args, kwargs, result):
        tracer.add("leaf_models.fit_leaf.sweeps", len(result.losses))
        tracer.add("leaf_models.fit_leaf.fallbacks", int(result.fell_back))
        spec = args[2]
        if result.losses and len(result.losses) >= spec.als.max_iterations:
            tracer.add("leaf_models.fit_leaf.capped")

    def als(name):
        def hook(site, args, kwargs, result):
            info = result[1]
            tracer.add(f"{name}.sweeps", len(info.errors))
            tracer.add(f"{name}.capped", int(not info.converged))
        return hook

    def grow(site, args, kwargs, result):
        tracer.add("tree.nodes", _count_nodes(result.root))

    def ensemble(site, args, kwargs, result):
        tracer.add("ensemble.trees", len(result.trees))
        if site != "tensor_output":
            tracer.add("ensemble.retained_bytes", retained_bytes(result))

    def output(site, args, kwargs, result):
        tracer.add("ensemble.retained_bytes", retained_bytes(result))

    def dumps(site, args, kwargs, result):
        tracer.add("serialize.doc_bytes", len(result.encode("utf-8")))

    return {
        "splitting.find_best_split": find_best_split,
        "leaf_models.fit_leaf": fit_leaf,
        "decomposition.cp_als": als("decomposition.cp_als"),
        "decomposition.tucker_als": als("decomposition.tucker_als"),
        "tree.grow": grow,
        "ensemble.fit_boosting": ensemble,
        "ensemble.fit_forest": ensemble,
        "tensor_output.fit_entrywise": output,
        "tensor_output.fit_lowrank": output,
        "serialize.dumps": dumps,
    }


def _span_wrapper(tracer, fn, name, site, hook, scan):
    is_search = name == "splitting.find_best_split"

    def wrapper(*args, **kwargs):
        if is_search:
            outer_coords, scan.coords = scan.coords, []
        try:
            with tracer.span(name, site):
                result = fn(*args, **kwargs)
            tracer.add(f"{name}.calls")
            if hook is not None:
                with tracer.span("trace.hook", site):
                    hook(site, args, kwargs, result)
        finally:
            if is_search:
                scan.coords = outer_coords
        return result

    return wrapper


def _counter_wrapper(tracer, fn, key):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.add(f"{key}.calls")
        tracer.add(f"{key}.bytes", _array_bytes(args) + _array_bytes(kwargs.values())
                   + _array_bytes([result]))
        return result

    return wrapper


def _timed_wrapper(tracer, fn, key):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add("linalg.s", time.perf_counter() - start)
            tracer.add(f"{key}.calls")

    return wrapper


def _coord_recorder(fn, scan):
    def wrapper(x, y, coords, *rest):
        if scan.coords is not None:
            scan.coords.append(tuple(coords))
        return fn(x, y, coords, *rest)

    return wrapper


def _package_modules():
    """Loaded tensortree modules by short name (the package itself is ``tensortree``)."""
    return {name.removeprefix("tensortree."): mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "tensortree" or name.startswith("tensortree."))}


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore."""
    modules = _package_modules()
    scan = _Scan()
    hooks = _hooks(tracer, scan)
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for mod_name, fn_name, span_name in SPAN_TARGETS:
            original = getattr(modules[mod_name], fn_name)
            for site, mod in modules.items():
                if vars(mod).get(fn_name) is original:
                    patch(mod, fn_name, _span_wrapper(
                        tracer, original, span_name, site, hooks.get(span_name), scan))
        for fn_name in TENSOR_OPS:
            original = getattr(modules["tensor_ops"], fn_name)
            for site, mod in modules.items():
                if site != "tensor_ops" and vars(mod).get(fn_name) is original:
                    patch(mod, fn_name, _counter_wrapper(tracer, original, "tensor_ops"))
        for fn_name in LINALG:
            patch(np.linalg, fn_name, _timed_wrapper(
                tracer, getattr(np.linalg, fn_name), f"linalg.{fn_name}"))
        splitting = modules["splitting"]
        patch(splitting, "_eval_coord", _coord_recorder(splitting._eval_coord, scan))
        tree_cls = modules["tree"].TensorTree
        patch(tree_cls, "predict", _tree_predict_wrapper(tracer, tree_cls.predict))
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _tree_predict_wrapper(tracer, method):
    def predict(self, x):
        with tracer.span("tree.predict", "tree"):
            out = method(self, x)
        tracer.add("tree.predict.rows", len(out))
        return out

    return predict


# --- per-layer metrics from one traced iteration --------------------------


def _durations(spans):
    """Per-span (name, site, duration, self time), with self = duration - children."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, name, site, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [(name, site, end - start, end - start - child_time[span_id])
            for span_id, name, site, start, end, parent, *_ in spans]


# Per-layer metrics: name -> unit.  Counts repeat exactly on one seed.
EXACT = {
    "splitting.find_best_split.calls": "count",
    "splitting.candidates": "count",
    "leaf_models.fit_leaf.calls": "count",
    "leaf_models.fit_leaf.sweeps": "count",
    "leaf_models.fit_leaf.capped": "count",
    "leaf_models.fit_leaf.fallbacks": "count",
    "decomposition.cp_als.calls": "count",
    "decomposition.cp_als.sweeps": "count",
    "decomposition.cp_als.capped": "count",
    "decomposition.tucker_als.calls": "count",
    "decomposition.tucker_als.sweeps": "count",
    "decomposition.tucker_als.capped": "count",
    "linalg.lstsq.calls": "count",
    "linalg.svd.calls": "count",
    "tensor_ops.calls": "count",
    "tensor_ops.bytes": "bytes_computed",
    "tree.grow.calls": "count",
    "tree.nodes": "count",
    "ensemble.trees": "count",
    "ensemble.retained_mb": "MB",
    "tensor_output.jobs": "count",
    "serialize.doc_bytes": "bytes",
}

TIMED = {
    "splitting.find_best_split.self_s": "s",
    "splitting.split_gain.s": "s",
    "leaf_models.fit_leaf.s": "s",
    "leaf_models.predict_leaf.s": "s",
    "decomposition.cp_als.s": "s",
    "decomposition.tucker_als.s": "s",
    "linalg.s": "s",
    "tree.grow.self_s": "s",
    "tree.prune.s": "s",
    "tree.predict.s": "s",
    "tree.predict.rows_per_s": "rows/s",
    "ensemble.fit.self_s": "s",
    "tensor_output.job_s": "s",
    "tensor_output.wall_s": "s",
    "tensor_output.parallel_eff": "ratio",
    "tensor_output.output_decomp_s": "s",
    "serialize.dumps.s": "s",
    "serialize.loads.s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
}


def layer_metrics(spans, counts, threads: int) -> dict[str, float]:
    """Per-layer values of one traced iteration (spans and counters of that iteration)."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for name, site, dur, self_s in _durations(spans):
        total[name] += dur
        self_time[name] += self_s
        if site == "tensor_output" and name == "ensemble.fit_boosting":
            total["tensor_output.job_s"] += dur
        if site == "tensor_output" and name.startswith("decomposition."):
            total["tensor_output.output_decomp_s"] += dur

    out = {key: float(counts.get(key, 0)) for key in EXACT}
    out["ensemble.retained_mb"] = counts.get("ensemble.retained_bytes", 0) / 2**20
    out["tensor_output.jobs"] = float(sum(
        1 for s in spans if s[1] == "ensemble.fit_boosting" and s[2] == "tensor_output"))

    wall = total["tensor_output.fit_entrywise"] + total["tensor_output.fit_lowrank"]
    jobs = total["tensor_output.job_s"]
    predict_s = total["tree.predict"]
    rows = counts.get("tree.predict.rows", 0)
    out.update({
        "splitting.find_best_split.self_s": self_time["splitting.find_best_split"],
        "splitting.split_gain.s": total["splitting.split_gain"],
        "leaf_models.fit_leaf.s": total["leaf_models.fit_leaf"],
        "leaf_models.predict_leaf.s": total["leaf_models.predict_leaf"],
        "decomposition.cp_als.s": total["decomposition.cp_als"],
        "decomposition.tucker_als.s": total["decomposition.tucker_als"],
        "linalg.s": float(counts.get("linalg.s", 0.0)),
        "tree.grow.self_s": self_time["tree.grow"],
        "tree.prune.s": total["tree.prune"],
        "tree.predict.s": predict_s,
        "tree.predict.rows_per_s": rows / predict_s if predict_s else 0.0,
        "ensemble.fit.self_s": (self_time["ensemble.fit_boosting"]
                                + self_time["ensemble.fit_forest"]),
        "tensor_output.job_s": jobs,
        "tensor_output.wall_s": wall,
        "tensor_output.parallel_eff": jobs / (wall * threads) if wall else 0.0,
        "tensor_output.output_decomp_s": total["tensor_output.output_decomp_s"],
        "serialize.dumps.s": total["serialize.dumps"],
        "serialize.loads.s": total["serialize.loads"],
        "cli.main.s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
    })
    return out


def generate_seconds(spans) -> float:
    return sum(end - start for _, name, _, start, end, *_ in spans if name == "data.generate")
