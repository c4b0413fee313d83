"""Parallel multi-seed replication of any registered method.

The paper's error bars come from repeating each experiment over many
independent ``(stream permutation, sampler uniforms)`` seed pairs.  A
sequential for-loop over full stream passes is the slowest part of any
such study, and the replications are embarrassingly parallel — each one
is a pure function of ``(edges, budget, weight_fn, method, stream_seed,
sampler_seed)``.  :class:`ReplicatedRunner` fans them out over a
:class:`concurrent.futures.ProcessPoolExecutor` and aggregates the
per-replication estimates into mean / variance / normal confidence
intervals via Welford's algorithm.

Counters come from the :mod:`repro.api.registry` method registry, so the
same pool replicates GPS *and* every baseline (``method="triest-impr"``
works exactly like the default shared-sample ``"gps"``); each method's
registration supplies the budget interpretation and the metric set that
gets aggregated.  Methods registered by third-party modules are visible
to forked workers; under a spawn start method the registering module
must be importable by workers.

Pool workers receive the edge population once, through the pool
initializer's arguments; per-task payloads are seed pairs.  Under the
``fork`` start method those arguments reach each worker copy-on-write
with no serialisation, and under spawn/forkserver they are pickled once
per worker.  Whenever nothing can observe node labels the runner
interns the population to dense ``int32`` ids first; interning is a
pure relabelling and every aggregated metric is label-free, so results
are bit-identical.  Weight functions that read labels
(:func:`repro.core.weights.is_label_free`) and methods registered with
``reads_labels=True`` keep the original tuples.
``max_workers=0`` runs everything inline in the calling process — the
results are identical (each replication is deterministic given its seed
pair), which the test suite exploits.

Two further per-worker reuses keep replication setup flat: each process
holds a **warm arena** (:class:`_WorkerArena`) — the compact GPS
counters expose ``reset(seed)`` restoring freshly-constructed state
bit-identically, so slot arrays, heap and adjacency are allocated once
and reused across every task — and the population is held as a lazy
dual view (:class:`_Population`) whose columnar ``int32`` shape feeds
the chunked pipeline (``pipeline="chunked"``, the default): workers
shuffle an index permutation (the same Fisher–Yates RNG consumption as
shuffling tuples), gather the columns, and drive
``process_chunk`` blocks through the vectorised admission gate.

This pool parallelises *within one configuration* (R replications of a
single ``(source, method, budget, weight)``).  Grids of configurations
are the :mod:`repro.api.sweep` layer's job: its shared pool
parallelises *across cells*, and its expanded specs always carry
``replications=1``, so the two pools never nest.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compact import DEFAULT_CORE, validate_core
from repro.core.weights import WeightFunction, is_label_free
from repro.engine.resilient import (
    DEFAULT_RETRY_BUDGET,
    RetryStats,
    run_resilient,
)
from repro.engine.stream_engine import DEFAULT_PIPELINE, validate_pipeline
from repro.faults.injector import FaultInjector, coerce_injector
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.edge import Node
from repro.stats.confidence import confidence_interval
from repro.stats.running import RunningMoments
from repro.streams.chunks import (
    DEFAULT_CHUNK_SIZE,
    columnar_or_none,
    permuted_columns,
)
from repro.streams.interner import NodeInterner
from repro.streams.stream import EdgeStream

Edge = Tuple[Node, Node]
SeedPair = Tuple[int, int]

#: The default method: the GPS shared-sample pass whose metric set
#: (in-stream + post-stream, one reservoir) matches the paper's protocol.
DEFAULT_METHOD = "gps"


def _get_method(name: str):
    """Lazy registry lookup: repro.api imports this module at load time."""
    from repro.api.registry import get_method

    return get_method(name)


@dataclass(frozen=True)
class ReplicationResult:
    """Estimates from one independent ``(stream, sampler)`` seed pair.

    ``metrics`` carries the replicated method's named point estimates
    (the registry's extractor output); the GPS shared-sample metric names
    are also readable through the legacy attribute properties.
    """

    stream_seed: int
    sampler_seed: int
    metrics: Dict[str, float]
    sample_size: int = 0
    threshold: float = 0.0

    # Legacy GPS accessors (method="gps" metric names).
    @property
    def in_stream_triangles(self) -> float:
        return self.metrics["in_stream_triangles"]

    @property
    def post_stream_triangles(self) -> float:
        return self.metrics["post_stream_triangles"]

    @property
    def in_stream_wedges(self) -> float:
        return self.metrics["in_stream_wedges"]

    @property
    def in_stream_clustering(self) -> float:
        return self.metrics["in_stream_clustering"]


@dataclass(frozen=True)
class MetricSummary:
    """Mean / variance / normal CI of one metric across replications."""

    mean: float
    variance: float
    std_error: float
    ci_low: float
    ci_high: float
    count: int

    def to_dict(self) -> Dict[str, float]:
        """JSON-safe form; ``MetricSummary(**d)`` inverts it.

        The one serialiser every report layer shares
        (:class:`~repro.api.execution.RunReport`,
        :class:`~repro.api.sweep.CellResult`), so the JSON schema cannot
        fork between them.
        """
        return {
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "count": self.count,
        }

    @classmethod
    def from_values(
        cls, values: Sequence[float], level: float = 0.95
    ) -> "MetricSummary":
        moments = RunningMoments()
        moments.extend(values)
        std_error = moments.std_error
        low, high = confidence_interval(moments.mean, std_error**2, level=level)
        return cls(
            mean=moments.mean,
            variance=moments.variance,
            std_error=std_error,
            ci_low=low,
            ci_high=high,
            count=moments.count,
        )


@dataclass(frozen=True)
class ReplicatedSummary:
    """Aggregated outcome of :meth:`ReplicatedRunner.run`.

    ``metrics`` maps each of the method's metric names to its
    :class:`MetricSummary`; the GPS names are also readable through the
    legacy attribute properties.  ``workers == 0`` records an inline run.
    """

    replications: Tuple[ReplicationResult, ...]
    metrics: Dict[str, MetricSummary]
    workers: int
    method: str = DEFAULT_METHOD
    #: The pipeline replications actually drove (``"scalar"`` when the
    #: configuration cannot use the columnar gate, whatever was asked).
    pipeline: str = "scalar"
    #: Fault-tolerance cost: tasks resubmitted after worker failure.
    task_retries: int = 0
    #: Fault-tolerance cost: executors rebuilt after BrokenProcessPool.
    pool_rebuilds: int = 0

    @property
    def num_replications(self) -> int:
        return len(self.replications)

    # Legacy GPS accessors (method="gps" metric names).
    @property
    def in_stream_triangles(self) -> MetricSummary:
        return self.metrics["in_stream_triangles"]

    @property
    def post_stream_triangles(self) -> MetricSummary:
        return self.metrics["post_stream_triangles"]

    @property
    def in_stream_wedges(self) -> MetricSummary:
        return self.metrics["in_stream_wedges"]

    @property
    def in_stream_clustering(self) -> MetricSummary:
        return self.metrics["in_stream_clustering"]


@dataclass(frozen=True)
class _ReplicationTask:
    """Everything a worker process needs (must stay picklable)."""

    edges: Sequence[Edge]
    capacity: int
    weight_fn: Optional[WeightFunction]
    stream_seed: int
    sampler_seed: int
    method: str = DEFAULT_METHOD
    core: str = DEFAULT_CORE
    pipeline: str = DEFAULT_PIPELINE


class _Population:
    """One edge population, viewable as tuples and as int32 columns.

    The columnar view is derived lazily and cached, so a runner driving
    a tuple-only method never pays the conversion, and a chunked one
    pays it once — in the parent before a pool starts, so workers
    inherit both views — not once per replication.
    """

    __slots__ = ("_edges", "_columns", "_columns_tried")

    def __init__(self, edges: Sequence[Edge]) -> None:
        self._edges = edges
        self._columns = None
        self._columns_tried = False

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self):
        return iter(self._edges)

    def columns(self):
        """``(u, v)`` int32 columns, or ``None`` when not int-labelled."""
        if not self._columns_tried:
            self._columns_tried = True
            self._columns = columnar_or_none(self._edges)
        return self._columns


class _WorkerArena:
    """Per-process reusable state: a warm counter plus its population.

    Replication tasks within one pool share ``(method, capacity,
    weight_fn, core)``, and the compact GPS counters expose ``reset``
    restoring freshly-constructed state bit-identically — so the slot
    arrays, heap list, adjacency dict and chunk buffers are allocated
    once per process and reused across every replication instead of
    being rebuilt per task.  Counters without ``reset`` (the object
    core, the baselines) are simply rebuilt; the arena then only
    caches the population's columnar view.
    """

    __slots__ = (
        "method", "capacity", "core", "weight_fn", "counter", "resettable",
    )

    def __init__(self, method, capacity, core, weight_fn, counter) -> None:
        self.method = method
        self.capacity = capacity
        self.core = core
        self.weight_fn = weight_fn
        self.counter = counter
        self.resettable = hasattr(counter, "reset")


_ARENA: Optional[_WorkerArena] = None


def _release_arena() -> None:
    """Drop the warm arena (inline runs call this so the main process
    does not retain capacity-sized arrays after a study finishes;
    worker arenas die with their pool)."""
    global _ARENA
    _ARENA = None


def _acquire_counter(task: _ReplicationTask, stream_length: int):
    """A counter for ``task`` — arena-reset when possible, else fresh.

    The weight function is compared by identity (the arena holds the
    reference, so the check cannot alias a recycled object); any
    configuration mismatch rebuilds the arena.
    """
    global _ARENA
    arena = _ARENA
    matches = (
        arena is not None
        and arena.method == task.method
        and arena.capacity == task.capacity
        and arena.core == task.core
        and arena.weight_fn is task.weight_fn
    )
    if matches and arena.resettable:
        try:
            arena.counter.reset(task.sampler_seed)
            return arena.counter
        except AttributeError:
            # A wrapper advertised reset but its inner counter has none
            # (gps-post over the object core); the memo below makes the
            # probe happen once per configuration, not once per task.
            arena.resettable = False
    counter = _get_method(task.method).make(
        task.capacity, stream_length, task.sampler_seed,
        weight_fn=task.weight_fn, core=task.core,
    )
    if matches:
        arena.counter = counter  # keep the arena (and its memo)
    else:
        _ARENA = _WorkerArena(
            task.method, task.capacity, task.core, task.weight_fn, counter
        )
    return counter


# Per-worker state: the edge population is identical across a runner's
# replications, so it is delivered once per worker through the pool
# initializer's arguments, never per task.
_WORKER_STATE: Optional[
    Tuple[_Population, int, Optional[WeightFunction], str, str, str]
] = None


def _pool_initializer(
    population: _Population,
    capacity: int,
    weight_fn: Optional[WeightFunction],
    method: str,
    core: str,
    pipeline: str,
) -> None:
    """Install the runner's population and configuration in a worker."""
    global _WORKER_STATE
    _WORKER_STATE = (population, capacity, weight_fn, method, core, pipeline)


def _run_seed_pair(pair: SeedPair) -> ReplicationResult:
    """Worker entry point: task payload is just the seed pair."""
    population, capacity, weight_fn, method, core, pipeline = _WORKER_STATE
    return _run_replication(
        _ReplicationTask(
            edges=population,
            capacity=capacity,
            weight_fn=weight_fn,
            stream_seed=pair[0],
            sampler_seed=pair[1],
            method=method,
            core=core,
            pipeline=pipeline,
        )
    )


def _run_replication(task: _ReplicationTask) -> ReplicationResult:
    """One full pass of the task's method; module-level so pools pickle it."""
    population = (
        task.edges if isinstance(task.edges, _Population)
        else _Population(task.edges)
    )
    n = len(population)
    counter = _acquire_counter(task, n)
    columns = None
    if task.pipeline == "chunked" and getattr(
        counter, "chunk_vectorized", False
    ):
        columns = population.columns()
    if columns is not None:
        us, vs = permuted_columns(columns, task.stream_seed)
        process_chunk = counter.process_chunk
        for at in range(0, n, DEFAULT_CHUNK_SIZE):
            process_chunk(
                us[at:at + DEFAULT_CHUNK_SIZE],
                vs[at:at + DEFAULT_CHUNK_SIZE],
            )
    else:
        order = list(population)
        random.Random(task.stream_seed).shuffle(order)
        process_many = getattr(counter, "process_many", None)
        if process_many is not None:
            process_many(order)
        else:
            process = counter.process
            for u, v in order:
                process(u, v)
    spec = _get_method(task.method)
    sampler = getattr(counter, "sampler", None)
    return ReplicationResult(
        stream_seed=task.stream_seed,
        sampler_seed=task.sampler_seed,
        metrics=spec.extract(counter),
        sample_size=sampler.sample_size if sampler is not None else 0,
        threshold=sampler.threshold if sampler is not None else 0.0,
    )


def default_max_workers(tasks: int, cpu_count: Optional[int] = None) -> int:
    """The auto-sized pool: ``min(tasks, cpu, 8)``, floored at 2 when the
    machine has at least 2 cores so aggregation is exercised in parallel
    by default — but never more processes than cores (a single-CPU
    machine gets 1, not a forced 2-process pool)."""
    cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    return max(min(2, cpu), min(tasks, cpu, 8))


class ReplicatedRunner:
    """Fan R independent replications of one method across processes.

    Parameters
    ----------
    graph:
        The fixed edge population; each replication streams an
        independent random permutation of it.  An explicit edge sequence
        is accepted in place of an :class:`AdjacencyGraph`.
    capacity:
        The common memory budget ``m``; the method's registration
        interprets it (reservoir capacity, probability, instances …).
    weight_fn:
        Shared weight function for weight-aware (GPS) methods (must be
        picklable for ``max_workers`` ≥ 1; every weight class in
        :mod:`repro.core.weights` is).  Ignored by weight-free baselines.
    replications:
        Number of independent ``(stream_seed, sampler_seed)`` pairs, R.
    max_workers:
        Size of the process pool; ``0`` (or 1 replication) runs inline in
        the calling process.  ``None`` picks ``min(R, cpu, 8)``, floored
        at 2 only when the machine has ≥ 2 cores (see
        :func:`default_max_workers`).
    base_stream_seed / base_sampler_seed:
        Replication ``i`` uses seeds ``(base_stream_seed + i,
        base_sampler_seed + i)``; override ``seed_pairs`` for full control.
    method:
        Registered method name (:mod:`repro.api.registry`); the default
        ``"gps"`` runs the paper's shared-sample GPS pass.
    core:
        GPS reservoir core for core-aware methods (``"compact"``
        default / ``"object"`` reference); bit-identical results.
    pipeline:
        Stream pipeline inside each replication: ``"chunked"``
        (default) drives columnar blocks through the compact core's
        vectorised ``process_chunk`` when the counter supports it
        (uniform-family weights), ``"scalar"`` keeps the tuple loop.
        Bit-identical results either way — a pure performance switch.

    Examples
    --------
    >>> from repro.graph.generators import erdos_renyi_gnm
    >>> runner = ReplicatedRunner(
    ...     erdos_renyi_gnm(30, 60, seed=0), capacity=20,
    ...     replications=3, max_workers=0, method="triest-impr",
    ... )
    >>> summary = runner.run()
    >>> summary.metrics["triangles"].count
    3
    """

    __slots__ = (
        "_edges",
        "_population",
        "_capacity",
        "_weight_fn",
        "_seed_pairs",
        "_max_workers",
        "_method",
        "_core",
        "_pipeline",
        "_interner",
        "_injector",
        "_retry_budget",
    )

    def __init__(
        self,
        graph,
        capacity: int,
        weight_fn: Optional[WeightFunction] = None,
        replications: int = 8,
        max_workers: Optional[int] = None,
        base_stream_seed: int = 0,
        base_sampler_seed: int = 10_000,
        seed_pairs: Optional[Sequence[SeedPair]] = None,
        method: str = DEFAULT_METHOD,
        core: str = DEFAULT_CORE,
        pipeline: str = DEFAULT_PIPELINE,
        faults=None,
        retry_budget: int = DEFAULT_RETRY_BUDGET,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        self._injector: Optional[FaultInjector] = coerce_injector(faults)
        self._retry_budget = retry_budget
        method_spec = _get_method(method)  # fail fast on unknown names
        validate_core(core)
        validate_pipeline(pipeline)
        if isinstance(graph, AdjacencyGraph):
            # Same canonical order EdgeStream.from_graph shuffles, so a
            # replication with stream_seed s reproduces that exact stream.
            edges = EdgeStream.canonical_edges(graph)
        else:
            edges = list(graph)
        # Intern whenever nothing can observe the labels: interning is a
        # pure relabelling, and it makes the population dense int32 ids
        # the chunked pipeline can columnarise.  Weight functions or
        # methods that read labels (``MethodSpec.reads_labels``) keep
        # the original tuples.
        label_free = not method_spec.reads_labels and (
            weight_fn is None or is_label_free(weight_fn)
        )
        self._interner: Optional[NodeInterner]
        if label_free:
            self._interner = NodeInterner()
            self._edges: Tuple[Edge, ...] = tuple(
                self._interner.intern_edges(edges)
            )
        else:
            self._interner = None
            self._edges = tuple(edges)
        # One lazy dual-view shared by every task, inline or pooled, so
        # the columnar conversion happens at most once per runner.
        self._population = _Population(self._edges)
        self._capacity = capacity
        self._weight_fn = weight_fn
        self._method = method
        self._core = core
        self._pipeline = pipeline
        if seed_pairs is not None:
            pairs = [(int(s), int(t)) for s, t in seed_pairs]
        else:
            if replications <= 0:
                raise ValueError("need at least one replication")
            pairs = [
                (base_stream_seed + i, base_sampler_seed + i)
                for i in range(replications)
            ]
        if not pairs:
            raise ValueError("need at least one replication")
        if len(set(pairs)) != len(pairs):
            raise ValueError("seed pairs must be distinct")
        self._seed_pairs: List[SeedPair] = pairs
        if max_workers is None:
            max_workers = default_max_workers(len(pairs))
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0")
        self._max_workers = max_workers

    @property
    def seed_pairs(self) -> Tuple[SeedPair, ...]:
        return tuple(self._seed_pairs)

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def method(self) -> str:
        return self._method

    @property
    def core(self) -> str:
        return self._core

    @property
    def pipeline(self) -> str:
        return self._pipeline

    @property
    def interner(self) -> Optional[NodeInterner]:
        """Id → label mapping of the interned population (None when the
        weight function or method reads labels)."""
        return self._interner

    def resolved_pipeline(self) -> str:
        """The pipeline replications will actually drive.

        Mirrors the per-task decision in ``_run_replication`` — chunked
        only when the method's counter has a vectorised gate
        (``chunk_vectorized``) and the population columnarises — so the
        summary reports what ran, not what was asked.
        """
        if self._pipeline != "chunked":
            return "scalar"
        # chunk_vectorized depends only on the weight family, so probe
        # with a unit budget instead of allocating real slot arrays;
        # methods with a minimum budget (TRIEST needs >= 3) get the
        # real one — they are scalar-only anyway, so the answer stands.
        make = _get_method(self._method).make
        try:
            probe = make(1, len(self._edges), 0,
                         weight_fn=self._weight_fn, core=self._core)
        # Safe probe fallback: a method refusing the unit budget is
        # answered by building the real counter instead — no failure is
        # swallowed, the except IS the answer.
        except Exception:  # repro-lint: disable=exception-discipline
            probe = make(self._capacity, len(self._edges), 0,
                         weight_fn=self._weight_fn, core=self._core)
        if not getattr(probe, "chunk_vectorized", False):
            return "scalar"
        # An interned population is dense ints by construction; only a
        # label-preserving one needs the actual columnar probe.
        if self._interner is None and self._population.columns() is None:
            return "scalar"
        return "chunked"

    def run(self) -> ReplicatedSummary:
        """Execute all replications and aggregate their estimates."""
        pairs = self._seed_pairs
        pipeline = self.resolved_pipeline()
        if self._max_workers == 0 or len(pairs) == 1:
            try:
                results = [
                    _run_replication(
                        _ReplicationTask(
                            edges=self._population,
                            capacity=self._capacity,
                            weight_fn=self._weight_fn,
                            stream_seed=stream_seed,
                            sampler_seed=sampler_seed,
                            method=self._method,
                            core=self._core,
                            pipeline=self._pipeline,
                        )
                    )
                    for stream_seed, sampler_seed in pairs
                ]
            finally:
                _release_arena()
            workers = 0
            stats = RetryStats()
        else:
            workers = min(self._max_workers, len(pairs))
            if pipeline == "chunked":
                # Columnarise in the parent: workers inherit both views
                # instead of each converting the population itself.
                self._population.columns()
            results, stats = run_resilient(
                _run_seed_pair,
                list(pairs),
                workers=workers,
                initializer=_pool_initializer,
                initargs=(self._population, self._capacity, self._weight_fn,
                          self._method, self._core, self._pipeline),
                retry_budget=self._retry_budget,
                injector=self._injector,
                site="replication",
            )
        metric_names = list(results[0].metrics)
        return ReplicatedSummary(
            replications=tuple(results),
            metrics={
                name: MetricSummary.from_values([r.metrics[name] for r in results])
                for name in metric_names
            },
            workers=workers,
            method=self._method,
            pipeline=pipeline,
            task_retries=stats.task_retries,
            pool_rebuilds=stats.pool_rebuilds,
        )


__all__ = [
    "DEFAULT_METHOD",
    "MetricSummary",
    "ReplicatedRunner",
    "ReplicatedSummary",
    "ReplicationResult",
    "default_max_workers",
]
