"""repro.engine — the high-throughput stream-driving subsystem.

``StreamEngine`` is the one loop that feeds arrivals to counters (batched
through ``process_many`` fast paths where available) and fires checkpoint
callbacks; ``ReplicatedRunner`` fans independent multi-seed replications
of any registered method across worker processes and aggregates mean /
variance / confidence intervals — the paper's error-bar protocol.  The
edge population reaches each worker once, through the pool
initializer's arguments (copy-on-write under ``fork``) — per-task
payloads stay seed pairs.
"""

from repro.engine.replication import (
    MetricSummary,
    ReplicatedRunner,
    ReplicatedSummary,
    ReplicationResult,
    default_max_workers,
)
from repro.engine.resilient import (
    DEFAULT_REBUILD_BUDGET,
    DEFAULT_RETRY_BUDGET,
    RetryStats,
    run_resilient,
)
from repro.engine.stream_engine import (
    DEFAULT_PIPELINE,
    PIPELINES,
    EngineStats,
    StreamEngine,
    validate_pipeline,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "DEFAULT_REBUILD_BUDGET",
    "DEFAULT_RETRY_BUDGET",
    "PIPELINES",
    "EngineStats",
    "validate_pipeline",
    "MetricSummary",
    "ReplicatedRunner",
    "ReplicatedSummary",
    "ReplicationResult",
    "RetryStats",
    "StreamEngine",
    "default_max_workers",
    "run_resilient",
]
