"""Pool fan-out: workers get the edge population through initargs.

Every pool (replication, sweep, shard) hands its workers the population
once, through the pool initializer.  These tests pin down that pooled
runs are bit-identical to inline ones on every label path, that the
label-reading gates keep original labels, that pool failures propagate,
and that no pool depends on shared-memory segments.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import pytest

import repro.api.sweep as sweep_module
from repro.api.sweep import SweepSpec, run_sweep
from repro.core.weights import AttributeWeight, UniformWeight
from repro.engine.replication import ReplicatedRunner
from repro.graph.generators import powerlaw_cluster
from repro.graph.io import write_edge_list
from repro.shard.runner import ShardedRunner
from repro.streams.stream import EdgeStream


@pytest.fixture
def graph():
    return powerlaw_cluster(120, 3, 0.5, seed=1)


@pytest.fixture
def edge_file(tmp_path, graph):
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    return path


@pytest.fixture
def label_reader():
    """A test-only method registered with ``reads_labels=True``."""
    import repro.api.registry as registry
    from repro.baselines.triest import TriestBase

    @registry.register_method(
        "label-reader-test", description="test-only", reads_labels=True
    )
    def _make(budget, stream_length, seed):
        return TriestBase(budget, seed=seed)

    yield "label-reader-test"
    registry._METHODS.pop("label-reader-test", None)


def _replicate(graph, max_workers, **kwargs):
    return ReplicatedRunner(
        graph, capacity=50, replications=3, max_workers=max_workers, **kwargs
    ).run()


def _assert_replications_identical(pooled, inline):
    assert pooled.workers > 0 and inline.workers == 0
    assert pooled.replications == inline.replications
    assert pooled.metrics == inline.metrics
    assert pooled.pipeline == inline.pipeline


# ----------------------------------------------------------------------
# Replication: pooled == inline on every label path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", ["gps", "gps-post"])
def test_replication_label_free_weight_pooled_matches_inline(graph, method):
    kwargs = dict(weight_fn=UniformWeight(), method=method)
    _assert_replications_identical(
        _replicate(graph, 2, **kwargs), _replicate(graph, 0, **kwargs)
    )


def test_replication_label_reading_weight_pooled_matches_inline(graph):
    weight = AttributeWeight(lambda u, v: 1.0 + (u + v) % 3)
    runner = ReplicatedRunner(
        graph, capacity=50, replications=3, max_workers=0, weight_fn=weight
    )
    # Labels reach the weight function unchanged: nothing is interned.
    assert runner.interner is None
    _assert_replications_identical(
        _replicate(graph, 2, weight_fn=weight), runner.run()
    )


def test_replication_label_reading_method_pooled_matches_inline(
    graph, label_reader
):
    runner = ReplicatedRunner(
        graph, capacity=50, replications=3, max_workers=0,
        method=label_reader,
    )
    assert runner.interner is None
    _assert_replications_identical(
        _replicate(graph, 2, method=label_reader), runner.run()
    )


def test_interned_population_round_trips_labels(graph):
    runner = ReplicatedRunner(graph, capacity=50, replications=2,
                              max_workers=0)
    interner = runner.interner
    assert interner is not None
    # Every interned id maps back to an original node label.
    labels = set(interner.labels)
    for u, v in graph.edges():
        assert u in labels and v in labels


def test_label_reading_method_disqualifies_sweep_interning(label_reader):
    spec = SweepSpec(sources=("whatever.txt",),
                     methods=(label_reader, "triest"))
    assert not sweep_module._grid_label_free(spec)
    assert sweep_module._grid_label_free(spec.replace(methods=("triest",)))


# ----------------------------------------------------------------------
# Sweep and shard pools
# ----------------------------------------------------------------------
def test_sweep_pooled_vs_inline_bit_identical(edge_file):
    base = SweepSpec(sources=(str(edge_file),),
                     methods=("gps-in-stream", "triest"),
                     budgets=(40, 60), runs=2, workers=0)
    inline = run_sweep(base)
    pooled = run_sweep(base.replace(workers=2))
    assert pooled.workers == 2 and inline.workers == 0
    for a, b in zip(inline.cells, pooled.cells):
        assert a.key == b.key
        assert a.metrics == b.metrics


def test_two_shard_pooled_vs_inline_bit_identical(graph):
    edges = EdgeStream.canonical_edges(graph)
    kwargs = dict(shards=2, budget=100, weight_fn=UniformWeight())
    inline = ShardedRunner(edges, workers=0, **kwargs).run()
    pooled = ShardedRunner(edges, workers=2, **kwargs).run()
    assert pooled.workers == 2 and inline.workers == 0
    assert pooled.estimates == inline.estimates
    assert pooled.shard_thresholds == inline.shard_thresholds
    assert pooled.shard_sample_sizes == inline.shard_sample_sizes


# ----------------------------------------------------------------------
# Failure propagation and independence from shared memory
# ----------------------------------------------------------------------
@pytest.mark.parametrize("boom", [RuntimeError("worker died"),
                                  KeyboardInterrupt()])
def test_pool_submit_failure_propagates(graph, monkeypatch, boom):
    import repro.engine.resilient as resilient_module

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            pass

        def submit(self, fn, *args):
            raise boom

        def shutdown(self, *args, **kwargs):
            pass

    monkeypatch.setattr(
        resilient_module, "ProcessPoolExecutor", ExplodingPool
    )
    runner = ReplicatedRunner(graph, capacity=50, replications=2,
                              max_workers=1)
    with pytest.raises(type(boom)):
        runner.run()


def test_pools_need_no_shared_memory(graph, edge_file, monkeypatch):
    class NoSharedMemory:
        def __init__(self, *args, **kwargs):
            raise OSError("shared memory is unavailable")

    monkeypatch.setattr(shared_memory, "SharedMemory", NoSharedMemory)
    replicated = _replicate(graph, 2, weight_fn=UniformWeight())
    assert replicated.workers == 2
    sweep = run_sweep(SweepSpec(sources=(str(edge_file),),
                                methods=("gps-post",), budgets=(40,),
                                runs=2, workers=2))
    assert sweep.workers == 2
    sharded = ShardedRunner(
        EdgeStream.canonical_edges(graph), shards=2, budget=100,
        weight_fn=UniformWeight(), workers=2,
    ).run()
    assert sharded.workers == 2
