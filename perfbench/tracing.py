"""Layer-attributed tracing of one benchmark iteration, from outside ``src/``.

:func:`install` wraps the public functions where each layer of the
reproduction is entered, and :func:`remove` puts the original objects
back.  A module-level name imported by value (``trace_time`` in
``repro.core.runtime_model``, ``aligned_span`` in
``repro.engine.backend``) is patched in the importing module; a method is
patched on the class that defines it.  Every wrapped call records a span
(name, parent, start, end) in a :class:`SpanRecorder` and, where the call
returns a counted object (``MemoryStats``, ``PhysicalTrace``,
``DESResult``, a cache's miss count), adds its counts at the same
boundary.

Span names start with their layer (``engine.read`` belongs to
``engine``); a layer's self time is the duration of its spans minus the
part covered by their child spans, so the self times of all layers add up
to the duration of the root span.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.core.evalcache as evalcache
import repro.core.runtime_model as runtime_model
import repro.core.suite as suite
import repro.core.sweep as sweep
import repro.engine.backend as backend
import repro.engine.engine as engine
import repro.exec.executor as executor
import repro.graph.datasets as datasets
import repro.memsim.cache as cache
import repro.memsim.raf as raf
import repro.sim.des as des
import repro.workloads.registry as registry
from repro.gpu.base import AccessMethod

#: Name of the span around one whole iteration.
ROOT_SPAN = "bench.iteration"

#: Every layer a span can belong to, in call-stack order.
LAYERS = (
    "bench",
    "exec",
    "core",
    "evalcache",
    "graph",
    "traversal",
    "gpu",
    "fluid",
    "des",
    "memsim",
    "workloads",
    "engine",
)


class SpanRecorder:
    """In-memory spans plus the counters recorded at span boundaries."""

    def __init__(self) -> None:
        #: One ``[name, parent_id, start, end]`` list per span; the id is
        #: the index.  ``parent_id`` is -1 for a root span.
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its id."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), math.nan])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        """End the innermost span, which must be ``span_id``."""
        self.spans[span_id][3] = time.perf_counter()
        if self._stack.pop() != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")

    def as_records(self) -> list[dict[str, Any]]:
        """Spans as plain dicts, for writing out."""
        return [
            {"id": i, "name": name, "parent": parent, "start": start, "end": end}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]


# -- counters recorded at span boundaries -----------------------------------


def _count_build(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    bound = inspect.signature(datasets.load_dataset).bind(*args, **kwargs)
    bound.apply_defaults()
    rec.keys["graph.build"].add(tuple(bound.arguments.values()))


def _count_trace(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["traversal.steps"] += result.num_steps


def _count_physical(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["gpu.requests"] += result.total_requests
    rec.counters["gpu.fetched_bytes"] += result.fetched_bytes


def _count_des(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counters["des.requests"] += result.requests


def _count_cache(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    references = int(np.size(args[1]))
    rec.counters["memsim.cache.references"] += references
    rec.counters["memsim.cache.hits"] += references - result


def _count_kernel(rec: SpanRecorder, args: tuple, kwargs: dict, result: Any) -> None:
    stats = result.stats
    rec.counters["engine.requests"] += stats.requests
    rec.counters["engine.fetched_bytes"] += stats.fetched_bytes
    rec.counters["engine.useful_bytes"] += stats.useful_bytes


# -- patch targets -----------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` (a module or a class)."""

    owner: Any
    attr: str
    span: str
    on_result: Callable[..., None] | None = None
    wrap: Callable[["SpanRecorder", "Target", Callable], Callable] | None = None


def _defining_subclasses(base: type, attr: str) -> list[type]:
    """Every subclass of ``base`` (recursively) defining ``attr`` itself."""
    found, pending = [], list(base.__subclasses__())
    while pending:
        cls = pending.pop(0)
        if attr in cls.__dict__ and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def _wrap(rec: SpanRecorder, target: Target, fn: Callable) -> Callable:
    name, on_result = target.span, target.on_result

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span_id = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span_id)
        if on_result is not None:
            on_result(rec, args, kwargs, result)
        return result

    return wrapper


def _wrap_cache_lookup(rec: SpanRecorder, target: Target, fn: Callable) -> Callable:
    """The evalcache lookup also counts hits and misses around each call."""
    traced = _wrap(rec, target, fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        before = evalcache.evaluation_cache_stats()
        result = traced(*args, **kwargs)
        after = evalcache.evaluation_cache_stats()
        rec.counters["evalcache.hits"] += after["hits"] - before["hits"]
        rec.counters["evalcache.misses"] += after["misses"] - before["misses"]
        return result

    return wrapper


def targets() -> list[Target]:
    """All wrapped entry points, one per (owner, attribute)."""
    out = [
        Target(executor.Executor, "map", "exec.map"),
        Target(suite, "evaluate_workload", "core.task"),
        Target(sweep, "price_trace_point", "core.task"),
        Target(
            runtime_model,
            "cached_physical_trace",
            "evalcache.lookup",
            wrap=_wrap_cache_lookup,
        ),
        Target(datasets, "load_dataset", "graph.build", _count_build),
        Target(registry.Workload, "trace", "traversal.trace", _count_trace),
        Target(runtime_model, "trace_time", "fluid.trace_time"),
        # predict_runtime_des imports simulate_step from repro.sim.des at
        # call time, so the module attribute is the binding it uses.
        Target(des, "simulate_step", "des.simulate_step", _count_des),
        Target(raf, "raf_curve", "memsim.raf_curve"),
        Target(backend, "aligned_span", "memsim.accounting"),
        Target(backend, "split_by_max_transfer", "memsim.accounting"),
        Target(backend, "expand_to_blocks", "memsim.accounting"),
        Target(registry.Workload, "run", "workloads.kernel", _count_kernel),
        Target(engine.ExternalGraphEngine, "read_neighbors", "engine.read_neighbors"),
        Target(engine.ExternalGraphEngine, "touch_vertex_state", "engine.touch_state"),
        Target(backend.ExternalMemoryBackend, "read", "engine.read"),
    ]
    out += [
        Target(cls, "physical_trace", "gpu.physical_trace", _count_physical)
        for cls in _defining_subclasses(AccessMethod, "physical_trace")
    ]
    out += [
        Target(cls, "access", "memsim.cache_access", _count_cache)
        for cls in _defining_subclasses(cache.CacheModel, "access")
    ]
    return out


@dataclass(frozen=True)
class Patch:
    """How to undo one installed wrapper."""

    owner: Any
    attr: str
    original: Any
    owned: bool  # False: the class inherited the attribute


def install(rec: SpanRecorder) -> list[Patch]:
    """Wrap every target; returns the patches :func:`remove` undoes."""
    patches: list[Patch] = []
    try:
        for target in targets():
            owner, attr = target.owner, target.attr
            is_class = isinstance(owner, type)
            owned = not is_class or attr in owner.__dict__
            original = owner.__dict__[attr] if is_class and owned else getattr(owner, attr)
            wrap = target.wrap or _wrap
            setattr(owner, attr, wrap(rec, target, getattr(owner, attr)))
            patches.append(Patch(owner, attr, original, owned))
    except BaseException:
        remove(patches)
        raise
    return patches


def remove(patches: list[Patch]) -> None:
    """Restore every patched attribute to its original object."""
    for patch in reversed(patches):
        if patch.owned:
            setattr(patch.owner, patch.attr, patch.original)
        else:
            delattr(patch.owner, patch.attr)


# -- summaries ---------------------------------------------------------------


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of everything ``rec`` holds (one iteration)."""
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layers = dict.fromkeys(LAYERS, 0.0)
    for (name, _, start, end), self_s in zip(rec.spans, self_times(rec.spans)):
        inclusive[name] += end - start
        own[name] += self_s
        calls[name] += 1
        layers[layer_of(name)] += self_s
    c = rec.counters

    def ratio(part: float, base: float) -> float:
        return part / base if base else 0.0

    hits, misses = c["evalcache.hits"], c["evalcache.misses"]
    return {
        "graph.build.calls": calls["graph.build"],
        "graph.build.s": inclusive["graph.build"],
        "graph.build.distinct_ratio": ratio(
            len(rec.keys["graph.build"]), calls["graph.build"]
        ),
        "traversal.trace.calls": calls["traversal.trace"],
        "traversal.trace.s": inclusive["traversal.trace"],
        "traversal.steps": c["traversal.steps"],
        "gpu.physical_trace.calls": calls["gpu.physical_trace"],
        "gpu.physical_trace.s": inclusive["gpu.physical_trace"],
        "gpu.requests": c["gpu.requests"],
        "gpu.fetched_bytes": c["gpu.fetched_bytes"],
        "evalcache.hits": hits,
        "evalcache.misses": misses,
        "evalcache.hit_ratio": ratio(hits, hits + misses),
        "evalcache.lookup.self_s": own["evalcache.lookup"],
        "fluid.trace_time.calls": calls["fluid.trace_time"],
        "fluid.trace_time.s": inclusive["fluid.trace_time"],
        "des.simulate_step.calls": calls["des.simulate_step"],
        "des.simulate_step.s": inclusive["des.simulate_step"],
        "des.requests": c["des.requests"],
        "des.requests_per_s": ratio(c["des.requests"], inclusive["des.simulate_step"]),
        "memsim.raf_curve.s": inclusive["memsim.raf_curve"],
        "memsim.cache_access.s": inclusive["memsim.cache_access"],
        "memsim.cache.references": c["memsim.cache.references"],
        "memsim.cache.hit_ratio": ratio(
            c["memsim.cache.hits"], c["memsim.cache.references"]
        ),
        "memsim.accounting.s": inclusive["memsim.accounting"],
        "engine.read.calls": calls["engine.read"],
        "engine.read.s": inclusive["engine.read"],
        "engine.read.self_s": own["engine.read"],
        "engine.read_neighbors.self_s": own["engine.read_neighbors"],
        "engine.touch_state.s": inclusive["engine.touch_state"],
        "engine.requests": c["engine.requests"],
        "engine.fetched_bytes": c["engine.fetched_bytes"],
        "engine.useful_bytes": c["engine.useful_bytes"],
        "engine.raf": ratio(c["engine.fetched_bytes"], c["engine.useful_bytes"]),
        "workloads.kernel.self_s": own["workloads.kernel"],
        "exec.map.self_s": own["exec.map"],
        **{f"layer.{layer}.self_s": layers[layer] for layer in LAYERS},
    }


def traced_call(fn: Callable[[], Any]) -> tuple[Any, SpanRecorder]:
    """Run ``fn`` under the root span with every wrapper installed.

    The wrappers are removed before this returns, whether or not ``fn``
    raised.
    """
    rec = SpanRecorder()
    patches = install(rec)
    try:
        root = rec.open(ROOT_SPAN)
        try:
            result = fn()
        finally:
            rec.close(root)
    finally:
        remove(patches)
    return result, rec


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several iterations' metric dicts."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
