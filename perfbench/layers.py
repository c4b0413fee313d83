"""Wrap the program's layers from outside and turn spans into layer metrics.

Each :class:`Hook` names one public function or method of a layer.
:func:`install` replaces it with a timing wrapper everywhere it is looked
up: on its class, or on its defining module and on every loaded
``repro`` module that imported it by name.  The returned callable puts
the originals back.  A hook whose module or attribute is missing is
skipped, so its layer reports zero calls instead of breaking the run.

Generator functions (``drain=True``) are drained inside their span and
handed back as an iterator over the drained items.  Every consumer in the
benchmark's workloads drains them fully anyway, so this moves no work; it
only makes parse and simplify time separable without a timer per edge.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from operator import length_hint
from typing import Any, Callable, Dict, List, Optional, Tuple

from harness import Tracer, summarise


def _count_input(tracer: Tracer, name: str, args: Tuple[Any, ...]) -> None:
    if args and isinstance(args[0], Iterator):
        tracer.count(name + ".in", length_hint(args[0]))


def _snapshot_hit(tracer: Tracer, name: str, args: Tuple[Any, ...]) -> None:
    if args[0] in tracer.seen:
        tracer.count(name + ".hits")
    else:
        tracer.seen.add(args[0])


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    target: str  # "function" or "Class.method"
    drain: bool = False
    #: Called before the wrapped call as ``note(tracer, span name, args)``.
    note: Optional[Callable[[Tracer, str, Tuple[Any, ...]], None]] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.target}"


HOOKS: Tuple[Hook, ...] = (
    Hook("graph.io", "repro.graph.io", "iter_edge_list", drain=True),
    Hook("streams.transforms", "repro.streams.transforms", "simplify_edges",
         drain=True, note=_count_input),
    Hook("streams.stream", "repro.streams.stream", "EdgeStream.columnar"),
    Hook("api.execution", "repro.api.execution", "run"),
    Hook("engine.stream_engine", "repro.engine.stream_engine", "StreamEngine.run"),
    Hook("core.compact", "repro.core.compact",
         "CompactGraphPrioritySampler.process_chunk"),
    Hook("core.compact", "repro.core.compact",
         "CompactGraphPrioritySampler.process_many"),
    Hook("core.compact", "repro.core.compact",
         "CompactInStreamEstimator.process_chunk"),
    Hook("core.compact", "repro.core.compact",
         "CompactInStreamEstimator.process_many"),
    Hook("core.post_stream", "repro.core.post_stream", "PostStreamEstimator.estimate"),
    Hook("engine.replication", "repro.engine.replication", "ReplicatedRunner.run"),
    Hook("engine.resilient", "repro.engine.resilient", "run_resilient"),
    Hook("engine.shared_edges", "repro.engine.shared_edges",
         "SharedEdgePopulation.publish"),
    Hook("api.sweep", "repro.api.sweep", "run_sweep"),
    Hook("api.sweep", "repro.api.sweep", "SweepSpec.expand"),
    Hook("api.ground_truth", "repro.api.ground_truth", "GroundTruthCache.key_for"),
    Hook("api.ground_truth", "repro.api.ground_truth", "GroundTruthCache.statistics"),
    Hook("graph.exact", "repro.graph.exact", "compute_statistics"),
    Hook("serve.service", "repro.serve.service", "SamplingService.query"),
    Hook("serve.protocol", "repro.serve.protocol", "handle_line"),
    Hook("serve.snapshot", "repro.serve.snapshot", "SampleSnapshot.capture"),
    Hook("serve.snapshot", "repro.serve.snapshot", "SnapshotStore.publish"),
    Hook("serve.snapshot", "repro.serve.snapshot", "SampleSnapshot.materialize"),
    Hook("serve.snapshot", "repro.serve.snapshot", "SampleSnapshot.estimates",
         note=_snapshot_hit),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(hook.layer for hook in HOOKS))


def _wrap(fn: Callable, hook: Hook, tracer: Tracer) -> Callable:
    name, note = hook.name, hook.note

    if hook.drain:
        @functools.wraps(fn)
        def drained(*args, **kwargs):
            if note is not None:
                note(tracer, name, args)
            span = tracer.open(name)
            try:
                items = list(fn(*args, **kwargs))
            finally:
                tracer.close(span)
            tracer.count(name + ".out", len(items))
            return iter(items)

        return drained

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        if note is not None:
            note(tracer, name, args)
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    return timed


def install(tracer: Tracer, hooks: Tuple[Hook, ...] = HOOKS) -> Callable[[], None]:
    """Wrap every hook that resolves; returns the undo callable."""
    undo: List[Tuple[Any, str, Any]] = []
    for hook in hooks:
        try:
            module = importlib.import_module(hook.module)
        except ImportError:
            continue
        owner_name, _, attr = hook.target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            continue
        raw = owner.__dict__.get(attr) if owner_name else getattr(owner, attr, None)
        if raw is None:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(_wrap(raw.__func__, hook, tracer))
        else:
            wrapped = _wrap(raw, hook, tracer)
        undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        if owner_name:
            continue
        # Patch the name where it is looked up: modules that imported it.
        for other in list(sys.modules.values()):
            if (
                other is not module
                and getattr(other, "__name__", "").startswith("repro")
                and other.__dict__.get(attr) is raw
            ):
                undo.append((other, attr, raw))
                setattr(other, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return uninstall


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _row(summary: Dict[str, Dict[str, float]], layer: str, target: str) -> Dict[str, float]:
    return summary.get(f"{layer}:{target}", {"calls": 0, "total": 0.0, "self": 0.0})


def layer_metrics(tracer: Tracer, ops: int, wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced session.

    Times are milliseconds per op (``ops`` traced ops, ``wall`` seconds of
    traced op or session wall time); counts are totals over the traced
    ops; ``<layer>.share`` is the layer's self time over ``wall``.
    """
    summary = summarise(tracer.spans)
    counts = tracer.counts
    per_op = 1e3 / max(1, ops)

    def total(layer: str, *targets: str) -> float:
        return sum(_row(summary, layer, t)["total"] for t in targets) * per_op

    def own(layer: str, target: str) -> float:
        return _row(summary, layer, target)["self"] * per_op

    def calls(layer: str, *targets: str) -> int:
        return sum(int(_row(summary, layer, t)["calls"]) for t in targets)

    compact = ("CompactGraphPrioritySampler.process_chunk",
               "CompactGraphPrioritySampler.process_many",
               "CompactInStreamEstimator.process_chunk",
               "CompactInStreamEstimator.process_many")
    estimates = _row(summary, "serve.snapshot", "SampleSnapshot.estimates")
    hits = counts.get("serve.snapshot:SampleSnapshot.estimates.hits", 0)
    simplify = "streams.transforms:simplify_edges"
    out: Dict[str, float] = {
        "graph.io.calls": calls("graph.io", "iter_edge_list"),
        "graph.io.parse_ms": total("graph.io", "iter_edge_list"),
        "graph.io.lines": counts.get("graph.io:iter_edge_list.out", 0),
        "streams.transforms.calls": calls("streams.transforms", "simplify_edges"),
        "streams.transforms.simplify_ms": own("streams.transforms", "simplify_edges"),
        "streams.transforms.dropped": max(
            0, counts.get(simplify + ".in", 0) - counts.get(simplify + ".out", 0)
        ),
        "streams.stream.calls": calls("streams.stream", "EdgeStream.columnar"),
        "streams.stream.columnar_ms": total("streams.stream", "EdgeStream.columnar"),
        "api.execution.calls": calls("api.execution", "run"),
        "api.execution.self_ms": own("api.execution", "run"),
        "engine.stream_engine.calls": calls("engine.stream_engine", "StreamEngine.run"),
        "engine.stream_engine.drive_ms": total("engine.stream_engine", "StreamEngine.run"),
        "engine.stream_engine.self_ms": own("engine.stream_engine", "StreamEngine.run"),
        "core.compact.calls": calls("core.compact", *compact),
        "core.compact.update_ms": total("core.compact", *compact),
        "core.post_stream.calls": calls("core.post_stream", "PostStreamEstimator.estimate"),
        "core.post_stream.estimate_ms": total("core.post_stream", "PostStreamEstimator.estimate"),
        "engine.replication.calls": calls("engine.replication", "ReplicatedRunner.run"),
        "engine.replication.run_ms": total("engine.replication", "ReplicatedRunner.run"),
        "engine.resilient.calls": calls("engine.resilient", "run_resilient"),
        "engine.resilient.run_ms": total("engine.resilient", "run_resilient"),
        "engine.shared_edges.calls": calls("engine.shared_edges", "SharedEdgePopulation.publish"),
        "engine.shared_edges.publish_ms": total("engine.shared_edges", "SharedEdgePopulation.publish"),
        "api.sweep.calls": calls("api.sweep", "run_sweep"),
        "api.sweep.expand_ms": total("api.sweep", "SweepSpec.expand"),
        "api.ground_truth.calls": calls("api.ground_truth", "GroundTruthCache.statistics"),
        "api.ground_truth.key_ms": total("api.ground_truth", "GroundTruthCache.key_for"),
        "api.ground_truth.statistics_ms": total("api.ground_truth", "GroundTruthCache.statistics"),
        "graph.exact.calls": calls("graph.exact", "compute_statistics"),
        "graph.exact.compute_ms": total("graph.exact", "compute_statistics"),
        "serve.service.calls": calls("serve.service", "SamplingService.query"),
        "serve.service.query_ms": total("serve.service", "SamplingService.query"),
        "serve.protocol.calls": calls("serve.protocol", "handle_line"),
        "serve.protocol.handle_ms": own("serve.protocol", "handle_line"),
        "serve.snapshot.calls": calls("serve.snapshot", "SampleSnapshot.capture"),
        "serve.snapshot.capture_ms": total("serve.snapshot", "SampleSnapshot.capture"),
        "serve.snapshot.publish_ms": total("serve.snapshot", "SnapshotStore.publish"),
        "serve.snapshot.materialize_ms": total("serve.snapshot", "SampleSnapshot.materialize"),
        "serve.snapshot.estimates_ms": total("serve.snapshot", "SampleSnapshot.estimates"),
        "serve.snapshot.estimate_hit_ratio": (
            hits / estimates["calls"] if estimates["calls"] else 0.0
        ),
    }
    self_by_layer: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for name, row in summary.items():
        layer = name.partition(":")[0]
        if layer in self_by_layer:
            self_by_layer[layer] += row["self"]
    for layer, seconds in self_by_layer.items():
        out[f"{layer}.share"] = seconds / wall if wall > 0 else 0.0
    return out
