"""Horizontally sharded GPS sampling (ROADMAP item 2a).

A stream partitioned by *edge hash* across ``S`` independent GPS
samplers, each with budget ``m/S``, merges back into a single unbiased
Horvitz–Thompson estimate: the router assigns every canonical edge to
exactly one shard, so the per-shard reservoirs are samples of disjoint
substreams and the union post-stream pass (:func:`repro.stats.merge.
merge_estimates`) evaluates Algorithm 2 with each edge's inclusion
probability taken at its *owner shard's* final threshold.

* :mod:`repro.shard.spec` — :class:`ShardSpec`, the frozen JSON-round-
  trip description of a shard layout (count + router seed);
* :mod:`repro.shard.router` — the deterministic seeded splitmix64 edge
  hash (scalar and vectorised forms, bit-identical);
* :mod:`repro.shard.runner` — :class:`ShardedRunner` driving ``S``
  per-shard chunked :class:`~repro.engine.StreamEngine` passes inline
  or across a process pool whose workers receive the edge columns once.
"""

from repro.shard.router import edge_key, edge_shard, shard_columns
from repro.shard.runner import ShardedResult, ShardedRunner
from repro.shard.spec import ShardSpec

__all__ = [
    "ShardSpec",
    "ShardedResult",
    "ShardedRunner",
    "edge_key",
    "edge_shard",
    "shard_columns",
]
