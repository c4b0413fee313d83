"""``run(spec) -> RunReport``: the one interpreter of declarative specs.

Every entry point — CLI commands, the table/figure harnesses, the
examples — dispatches through this module, so the paper's experiment
shape (seeded stream permutation → budget-matched counter → engine-driven
pass → estimates with error bars) is implemented exactly once:

* **single pass** (default): one :class:`~repro.engine.StreamEngine`
  drive over the permuted stream, batched through ``process_many``;
* **tracking pass** (``spec.checkpoints > 0``): the engine runs in
  lockstep with an exact prefix counter and records a
  :class:`TrackPoint` at every mark;
* **replicated pass** (``spec.replications > 1``): the spec fans out
  across the :class:`~repro.engine.ReplicatedRunner` process pool —
  any registered method, not just GPS — and per-metric
  :class:`~repro.engine.MetricSummary` error bars come back.

The resulting :class:`RunReport` is uniform across modes and methods and
serialises to JSON for downstream tooling.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.registry import MethodSpec, get_method, get_weight
from repro.api.spec import RunSpec
from repro.core.compact import CompactInStreamEstimator
from repro.core.estimates import GraphEstimates
from repro.core.in_stream import InStreamEstimator
from repro.core.post_stream import PostStreamEstimator
from repro.core.weights import WeightFunction, is_label_free
from repro.engine.replication import MetricSummary, ReplicatedRunner
from repro.engine.stream_engine import EngineStats, StreamEngine
from repro.streams.chunks import DEFAULT_CHUNK_SIZE, permuted_columns
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.exact import ExactStreamCounter
from repro.graph.io import iter_edge_list, read_edge_columns
from repro.streams.stream import EdgeStream
from repro.streams.transforms import simplify_edges

Edge = Tuple[Any, Any]

#: Counters exposing the in-stream estimate bundle (either GPS core).
IN_STREAM_TYPES = (InStreamEstimator, CompactInStreamEstimator)


# ----------------------------------------------------------------------
# Report containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrackPoint:
    """State recorded at one tracking checkpoint."""

    position: int
    exact_triangles: int
    exact_clustering: float
    estimate: float
    in_stream: Optional[GraphEstimates] = None
    post_stream: Optional[GraphEstimates] = None

    @property
    def are(self) -> float:
        """Absolute relative triangle error at this checkpoint."""
        if self.exact_triangles == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return abs(self.estimate - self.exact_triangles) / self.exact_triangles


def _estimates_dict(estimates: GraphEstimates) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for stat in ("triangles", "wedges", "clustering"):
        est = getattr(estimates, stat)
        low, high = est.confidence_bounds()
        out[stat] = {
            "value": est.value,
            "variance": est.variance,
            "ci_low": low,
            "ci_high": high,
        }
    out["stream_position"] = estimates.stream_position
    out["sample_size"] = estimates.sample_size
    out["threshold"] = estimates.threshold
    return out


@dataclass(frozen=True)
class RunReport:
    """Uniform outcome of ``run(spec)`` across modes and methods.

    ``estimates`` always carries the method's final point estimates (for
    replicated runs: the across-replication means); ``metrics`` carries
    per-metric error bars for replicated runs; ``tracking`` the checkpoint
    series for tracking runs.  Timing fields are the engine pass for
    single/tracking runs; for replicated runs they cover the whole
    protocol wall-clock — including process-pool startup and aggregation
    — so they measure the study, not the per-edge update.  ``in_stream``/``post_stream`` hold the full
    GPS estimate bundles (with variances and bounds) when the method
    exposes them.  ``counter`` is the live counter object of single/track
    passes — handy for checkpointing — and is excluded from serialisation.
    """

    spec: RunSpec
    mode: str  # "single" | "track" | "replicate" | "sharded"
    edges: int
    estimates: Dict[str, float]
    metrics: Dict[str, MetricSummary] = field(default_factory=dict)
    tracking: Tuple[TrackPoint, ...] = ()
    elapsed_seconds: float = 0.0
    update_time_us: float = 0.0
    edges_per_second: float = 0.0
    replications: int = 1
    workers: int = 0
    sample_size: Optional[int] = None
    threshold: Optional[float] = None
    in_stream: Optional[GraphEstimates] = None
    post_stream: Optional[GraphEstimates] = None
    #: The pipeline that actually drove the pass: ``"chunked"`` only
    #: when the counter, weight and stream all supported the columnar
    #: gate; a spec asking for chunked may legitimately report
    #: ``"scalar"`` (label-reading weight, non-int labels, estimator
    #: counters …).  Results are bit-identical either way.
    pipeline: str = "scalar"
    #: Fault-tolerance cost of pooled dispatch: tasks resubmitted after
    #: worker failure / executors rebuilt after BrokenProcessPool (both
    #: zero for inline runs and fault-free pools).
    task_retries: int = 0
    pool_rebuilds: int = 0
    counter: Any = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict: specs round-trip, estimate bundles flatten.

        Example
        -------
        >>> from repro.api import RunSpec
        >>> report = RunReport(spec=RunSpec(source="a.txt"), mode="single",
        ...                    edges=3, estimates={"triangles": 1.0})
        >>> report.to_dict()["estimates"]
        {'triangles': 1.0}
        """
        out: Dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "mode": self.mode,
            "method": self.spec.method,
            "edges": self.edges,
            "estimates": dict(self.estimates),
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "elapsed_seconds": self.elapsed_seconds,
            "update_time_us": self.update_time_us,
            "edges_per_second": self.edges_per_second,
            "replications": self.replications,
            "workers": self.workers,
            "sample_size": self.sample_size,
            "threshold": self.threshold,
            "pipeline": self.pipeline,
            "task_retries": self.task_retries,
            "pool_rebuilds": self.pool_rebuilds,
        }
        if self.tracking:
            out["tracking"] = [
                {
                    "position": p.position,
                    "exact_triangles": p.exact_triangles,
                    "exact_clustering": p.exact_clustering,
                    "estimate": p.estimate,
                    "are": p.are if p.are != float("inf") else None,
                }
                for p in self.tracking
            ]
        if self.in_stream is not None:
            out["in_stream"] = _estimates_dict(self.in_stream)
        if self.post_stream is not None:
            out["post_stream"] = _estimates_dict(self.post_stream)
        return out

    def to_json(self, **kwargs: Any) -> str:
        """The report as JSON text (what ``--json`` prints on the CLI)."""
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output (cache replay).

        Scalar fields, the spec, per-metric summaries and the tracking
        series round-trip; the live estimate-bundle objects
        (``in_stream``/``post_stream``) and the counter do not survive
        JSON flattening and come back as ``None``.  This is what the
        sweep cell cache replays on ``--resume``, where only the metric
        payload feeds aggregation.

        Example
        -------
        >>> from repro.api import RunSpec
        >>> report = RunReport(spec=RunSpec(source="a.txt"), mode="single",
        ...                    edges=3, estimates={"triangles": 1.0})
        >>> RunReport.from_dict(report.to_dict()).estimates
        {'triangles': 1.0}
        """
        return cls(
            spec=RunSpec.from_dict(data["spec"]),
            mode=data["mode"],
            edges=data["edges"],
            estimates=dict(data["estimates"]),
            metrics={
                name: MetricSummary(**summary)
                for name, summary in data.get("metrics", {}).items()
            },
            tracking=tuple(
                TrackPoint(
                    position=row["position"],
                    exact_triangles=row["exact_triangles"],
                    exact_clustering=row["exact_clustering"],
                    estimate=row["estimate"],
                )
                for row in data.get("tracking", ())
            ),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            update_time_us=data.get("update_time_us", 0.0),
            edges_per_second=data.get("edges_per_second", 0.0),
            replications=data.get("replications", 1),
            workers=data.get("workers", 0),
            sample_size=data.get("sample_size"),
            threshold=data.get("threshold"),
            pipeline=data.get("pipeline", "scalar"),
            task_retries=data.get("task_retries", 0),
            pool_rebuilds=data.get("pool_rebuilds", 0),
        )

    @property
    def triangle_estimate(self) -> float:
        """The method's triangle point estimate, whatever it named it.

        Raises instead of defaulting so a method registered with an
        unconventional metric set fails loudly in harnesses that compare
        triangle counts (Table 2) rather than scoring a silent 100% ARE.
        """
        for key in ("triangles", "in_stream_triangles"):
            if key in self.estimates:
                return self.estimates[key]
        raise KeyError(
            f"method {self.spec.method!r} reports no triangle metric; "
            f"available metrics: {sorted(self.estimates)}"
        )


# ----------------------------------------------------------------------
# Source resolution
# ----------------------------------------------------------------------
def _resolve_edges(
    source: str, graph: Optional[Any]
) -> Union[List[Edge], EdgeStream]:
    """The edge population a spec streams, in canonical (pre-shuffle) order.

    Resolution order: an explicitly passed graph/edge sequence wins, then
    a dataset-registry name, then an edge-list file path.  Graphs resolve
    to the same repr-sorted order :meth:`EdgeStream.from_graph` shuffles,
    so seeded permutations are bit-identical to the legacy entry points;
    files keep their arrival order (the stream seed then permutes it).
    A clean integer file resolves to a columnar :class:`EdgeStream`
    (:func:`~repro.graph.io.read_edge_columns`) holding the same edges
    as the tuple reader would; every other file takes that reader.
    """
    if graph is not None:
        if isinstance(graph, AdjacencyGraph):
            return EdgeStream.canonical_edges(graph)
        return list(graph)
    # Lazy import: repro.experiments.runner imports this module.
    from repro.experiments.datasets import DATASETS, make_graph

    if source in DATASETS:
        return EdgeStream.canonical_edges(make_graph(source))
    if os.path.exists(source):
        columns = read_edge_columns(source)
        if columns is not None:
            return EdgeStream.from_columns(*columns)
        return list(simplify_edges(iter_edge_list(source)))
    raise ValueError(
        f"cannot resolve source {source!r}: not a registered dataset "
        f"and no such file"
    )


def _permute(edges: Sequence[Edge], stream_seed: Optional[int]) -> EdgeStream:
    """Seeded arrival permutation; ``None`` keeps the source order.

    A columnar source is permuted by index gather, in the same arrival
    order the tuple shuffle gives.
    """
    columns = edges.columnar() if isinstance(edges, EdgeStream) else None
    if columns is not None:
        return EdgeStream.from_columns(*permuted_columns(columns, stream_seed))
    if stream_seed is None:
        return EdgeStream.from_edges(edges)
    order = list(edges)
    random.Random(stream_seed).shuffle(order)
    return EdgeStream(order)


def _resolve_weight(
    spec: RunSpec, method: MethodSpec, weight_fn: Optional[WeightFunction]
) -> Optional[WeightFunction]:
    requested = weight_fn if weight_fn is not None else (
        get_weight(spec.weight).factory() if spec.weight is not None else None
    )
    if requested is not None and not method.uses_weight:
        raise ValueError(
            f"method {spec.method!r} does not use a weight function; drop "
            f"the weight ({spec.weight or weight_fn!r}) or pick a "
            f"weight-aware method"
        )
    return requested


def _chunk_size_for(
    spec: RunSpec,
    method: MethodSpec,
    weight_fn: Optional[WeightFunction],
    counter: Any,
    stream: EdgeStream,
) -> Optional[int]:
    """The engine chunk size for this pass, or ``None`` for scalar.

    The chunked pipeline engages only when every layer consents: the
    spec asked for it, neither the method nor the weight reads node
    labels (mirroring the ``is_label_free`` gate of the pools' interned
    populations — a label-reading configuration must see the stream's
    original tuples), the counter's admission gate is actually
    vectorised (``chunk_vectorized``; false for e.g. the in-stream
    estimator, whose per-arrival snapshot leaves nothing to gate), and
    the stream columnarises — its labels already are int32 ints, so no
    relabelling ever happens on this path and samples, checkpoints and
    reports stay label-faithful.  Every fallback is bit-identical,
    just scalar-speed.
    """
    if spec.pipeline != "chunked":
        return None
    if method.reads_labels:
        return None
    if weight_fn is not None and not is_label_free(weight_fn):
        return None
    if not getattr(counter, "chunk_vectorized", False):
        return None
    if stream.columnar() is None:
        return None
    return DEFAULT_CHUNK_SIZE


def _lazy_file_stream(spec: RunSpec, method: MethodSpec, graph: Optional[Any]):
    """A lazy edge iterator when nothing forces materialisation, else None.

    A single unpermuted pass of a length-free method over an edge-list
    file never needs the population in memory — the counter is budget-
    bounded and the engine consumes any iterable — so ``sample`` on a
    multi-GB file keeps its streaming behaviour.
    """
    if (
        graph is not None
        or spec.stream_seed is not None
        or spec.checkpoints > 0
        or spec.replications > 1
        or spec.shards > 1
        or method.needs_stream_length
    ):
        return None
    from repro.experiments.datasets import DATASETS

    if spec.source in DATASETS or not os.path.exists(spec.source):
        return None  # datasets materialise anyway; bad paths error later
    return simplify_edges(iter_edge_list(spec.source))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def run(
    spec: RunSpec,
    *,
    graph: Optional[Any] = None,
    weight_fn: Optional[WeightFunction] = None,
    include_post: bool = False,
    faults: Optional[Any] = None,
) -> RunReport:
    """Execute one declarative spec and return its uniform report.

    Parameters
    ----------
    spec:
        The experiment description; its ``replications``/``checkpoints``
        fields select the replicated, tracking or single-pass mode.
    graph:
        Optional in-memory :class:`AdjacencyGraph` (or edge sequence)
        overriding ``spec.source`` resolution.
    weight_fn:
        Optional weight-function *instance* overriding ``spec.weight``
        (programmatic callers with unregistered weights).
    include_post:
        For tracking passes of GPS methods: also record the post-stream
        estimate bundle at every checkpoint (one Algorithm-2 evaluation
        per mark, so off by default).
    faults:
        Optional :class:`~repro.faults.FaultPlan` (or shared
        :class:`~repro.faults.FaultInjector`) consulted by pooled
        dispatch (replicated site ``"replication"``, sharded site
        ``"shard"``).  Chaos testing only; inline modes ignore it.

    Example
    -------
    >>> from repro.api import RunSpec, run
    >>> report = run(RunSpec(source="infra-roadNet-CA", method="triest",
    ...                      budget=2000))
    >>> report.mode, sorted(report.estimates)
    ('single', ['triangles'])
    """
    method = get_method(spec.method)
    resolved_weight = _resolve_weight(spec, method, weight_fn)

    lazy = _lazy_file_stream(spec, method, graph)
    if lazy is not None:
        # A lazy source cannot be pre-validated for the columnar gate
        # (a mid-stream fallback would have to replay consumed edges),
        # so the unpermuted file pass always drives scalar.
        counter = method.make(
            spec.budget, 0, spec.sampler_seed, weight_fn=resolved_weight,
            core=spec.core,
        )
        stats = StreamEngine(counter).run(lazy)
        return _finish_report(
            spec, mode="single", method=method, counter=counter, stats=stats
        )

    edges = _resolve_edges(spec.source, graph)

    if spec.shards > 1:
        return _run_sharded(spec, edges, resolved_weight, faults=faults)

    if spec.replications > 1:
        return _run_replicated(spec, edges, resolved_weight, faults=faults)

    stream = _permute(edges, spec.stream_seed)
    counter = method.make(
        spec.budget, len(stream), spec.sampler_seed, weight_fn=resolved_weight,
        core=spec.core,
    )
    chunk_size = _chunk_size_for(spec, method, resolved_weight, counter, stream)
    if spec.checkpoints > 0:
        return _run_tracking(
            spec, method, counter, stream, include_post, chunk_size
        )
    stats = StreamEngine(counter, chunk_size=chunk_size).run(stream)
    return _finish_report(
        spec, mode="single", method=method, counter=counter, stats=stats,
        pipeline="chunked" if chunk_size else "scalar",
    )


def replicate(
    spec: RunSpec,
    *,
    graph: Optional[Any] = None,
    weight_fn: Optional[WeightFunction] = None,
) -> RunReport:
    """Force the replicated (error-bar) pass, even for ``replications=1``.

    ``run(spec)`` treats a single replication as an ordinary pass; this
    entry point always returns a ``mode="replicate"`` report with
    per-metric summaries (a one-value :class:`MetricSummary` collapses to
    its point estimate), which is what ``python -m repro replicate -R 1``
    means.

    Example
    -------
    >>> from repro.api import RunSpec, replicate
    >>> report = replicate(RunSpec(source="infra-roadNet-CA",
    ...                            method="triest", budget=2000,
    ...                            replications=4, workers=0))
    >>> report.mode, report.metrics["triangles"].count
    ('replicate', 4)
    """
    if spec.stream_seed is None:
        raise ValueError(
            "replicated runs need a base stream_seed (replication i "
            "streams the permutation seeded stream_seed + i)"
        )
    if spec.checkpoints > 0:
        # Mirror the RunSpec R>1 rule: the replicated pass aggregates
        # final estimates only and would silently drop the schedule.
        raise ValueError(
            "checkpoints and replicated execution are mutually exclusive"
        )
    method = get_method(spec.method)
    resolved_weight = _resolve_weight(spec, method, weight_fn)
    edges = _resolve_edges(spec.source, graph)
    if spec.shards > 1:
        return _run_sharded(spec, edges, resolved_weight,
                            force_replicate=True)
    return _run_replicated(spec, edges, resolved_weight)


def _run_sharded(
    spec: RunSpec,
    edges: Sequence[Edge],
    weight_fn: Optional[WeightFunction],
    force_replicate: bool = False,
    faults: Optional[Any] = None,
) -> RunReport:
    """Sharded dispatch: route across ``spec.shards`` samplers and merge.

    One pass per replication; every replication ``i`` shifts the stream
    permutation (``stream_seed + i``) and the sampler-seed base
    (``sampler_seed + i``; shard ``s`` then seeds ``base·shards + s``)
    exactly like the replicated single-sampler protocol.
    """
    from repro.shard.runner import ShardedRunner
    from repro.shard.spec import ShardSpec

    runner = ShardedRunner.from_layout(
        edges,
        ShardSpec(shards=spec.shards),
        budget=spec.budget,
        method=spec.method,
        weight_fn=weight_fn,
        stream_seed=spec.stream_seed,
        sampler_seed=spec.sampler_seed,
        core=spec.core,
        pipeline=spec.pipeline,
        workers=spec.workers,
        faults=faults,
    )
    stats = ("triangles", "wedges", "clustering")
    if spec.replications > 1 or force_replicate:
        started = time.perf_counter()
        values: List[Dict[str, float]] = []
        workers_used = 0
        pipeline = "scalar"
        task_retries = 0
        pool_rebuilds = 0
        assert spec.stream_seed is not None  # spec validation enforces it
        for i in range(spec.replications):
            result = runner.run(
                stream_seed=spec.stream_seed + i,
                sampler_seed=spec.sampler_seed + i,
            )
            workers_used = max(workers_used, result.workers)
            pipeline = result.pipeline
            task_retries += result.task_retries
            pool_rebuilds += result.pool_rebuilds
            bundle = result.estimates
            values.append(
                {name: getattr(bundle, name).value for name in stats}
            )
        elapsed = time.perf_counter() - started
        metrics = {
            name: MetricSummary.from_values([v[name] for v in values])
            for name in stats
        }
        total = len(edges) * spec.replications
        return RunReport(
            spec=spec,
            mode="replicate",
            edges=len(edges),
            estimates={name: s.mean for name, s in metrics.items()},
            metrics=metrics,
            elapsed_seconds=elapsed,
            update_time_us=elapsed / max(1, total) * 1e6,
            edges_per_second=total / elapsed if elapsed > 0 else float("inf"),
            replications=spec.replications,
            workers=workers_used,
            pipeline=pipeline,
            task_retries=task_retries,
            pool_rebuilds=pool_rebuilds,
        )

    result = runner.run()
    bundle = result.estimates
    elapsed = result.elapsed_seconds
    return RunReport(
        spec=spec,
        mode="sharded",
        edges=result.edges,
        estimates={name: getattr(bundle, name).value for name in stats},
        elapsed_seconds=elapsed,
        update_time_us=elapsed / max(1, result.edges) * 1e6,
        edges_per_second=(
            result.edges / elapsed if elapsed > 0 else float("inf")
        ),
        workers=result.workers,
        sample_size=bundle.sample_size,
        threshold=bundle.threshold,
        post_stream=bundle,
        pipeline=result.pipeline,
        task_retries=result.task_retries,
        pool_rebuilds=result.pool_rebuilds,
    )


def _run_replicated(
    spec: RunSpec,
    edges: Sequence[Edge],
    weight_fn: Optional[WeightFunction],
    faults: Optional[Any] = None,
) -> RunReport:
    runner = ReplicatedRunner(
        edges,
        capacity=spec.budget,
        weight_fn=weight_fn,
        replications=spec.replications,
        max_workers=spec.workers,
        base_stream_seed=spec.stream_seed,
        base_sampler_seed=spec.sampler_seed,
        method=spec.method,
        core=spec.core,
        pipeline=spec.pipeline,
        faults=faults,
    )
    started = time.perf_counter()
    summary = runner.run()
    elapsed = time.perf_counter() - started
    total = len(edges) * spec.replications
    return RunReport(
        spec=spec,
        mode="replicate",
        edges=len(edges),
        estimates={name: s.mean for name, s in summary.metrics.items()},
        metrics=dict(summary.metrics),
        elapsed_seconds=elapsed,
        update_time_us=elapsed / max(1, total) * 1e6,
        edges_per_second=total / elapsed if elapsed > 0 else float("inf"),
        replications=summary.num_replications,
        workers=summary.workers,
        pipeline=summary.pipeline,
        task_retries=summary.task_retries,
        pool_rebuilds=summary.pool_rebuilds,
    )


def _run_tracking(
    spec: RunSpec,
    method: MethodSpec,
    counter: Any,
    stream: EdgeStream,
    include_post: bool,
    chunk_size: Optional[int] = None,
) -> RunReport:
    exact = ExactStreamCounter()
    points: List[TrackPoint] = []
    is_gps = isinstance(counter, IN_STREAM_TYPES)
    sampler = getattr(counter, "sampler", None)

    def record(position: int) -> None:
        points.append(
            TrackPoint(
                position=position,
                exact_triangles=exact.triangles,
                exact_clustering=exact.clustering,
                estimate=float(counter.triangle_estimate),
                in_stream=counter.estimates() if is_gps else None,
                post_stream=(
                    PostStreamEstimator(sampler).estimate()
                    if include_post and sampler is not None
                    else None
                ),
            )
        )

    engine = StreamEngine(counter, companions=(exact,), chunk_size=chunk_size)
    stats = engine.run(
        stream,
        checkpoints=stream.checkpoints(spec.checkpoints),
        on_checkpoint=record,
    )
    return _finish_report(
        spec, mode="track", method=method, counter=counter, stats=stats,
        tracking=tuple(points),
        pipeline="chunked" if chunk_size else "scalar",
    )


def _finish_report(
    spec: RunSpec,
    *,
    mode: str,
    method: MethodSpec,
    counter: Any,
    stats: EngineStats,
    tracking: Tuple[TrackPoint, ...] = (),
    pipeline: str = "scalar",
) -> RunReport:
    sampler = getattr(counter, "sampler", None)
    in_stream = (
        counter.estimates() if isinstance(counter, IN_STREAM_TYPES) else None
    )
    post_stream = (
        PostStreamEstimator(sampler).estimate()
        if sampler is not None and method.wants_post_stream
        else None
    )
    if method.from_bundles is not None and (
        in_stream is not None or post_stream is not None
    ):
        # Derive metrics from the bundles just computed instead of letting
        # the extractor re-run Algorithm 2 over the reservoir.
        estimates = method.from_bundles(in_stream, post_stream)
    else:
        estimates = method.extract(counter)
    return RunReport(
        spec=spec,
        mode=mode,
        edges=stats.edges,
        estimates=estimates,
        tracking=tracking,
        elapsed_seconds=stats.elapsed_seconds,
        update_time_us=stats.update_time_us,
        edges_per_second=stats.edges_per_second,
        sample_size=sampler.sample_size if sampler is not None else None,
        threshold=sampler.threshold if sampler is not None else None,
        in_stream=in_stream,
        post_stream=post_stream,
        pipeline=pipeline,
        counter=counter,
    )


__all__ = ["RunReport", "TrackPoint", "replicate", "run"]
