"""Measurement helpers shared by run.py, the workload process and the client.

Nothing here imports the program under test, so the helpers are tested
on their own with an injected clock (``test_harness.py``).

* :func:`tail` — the highest percentile that still has at least ten
  samples beyond it, so a reported tail is never one lucky outlier.
* :class:`Tracer` — in-memory spans (name, start, end, parent) kept per
  thread, and :func:`summarise`, which turns them into per-name call
  counts, inclusive time and self time.
* :func:`self_time` — a span's duration minus the union of its child
  spans; overlapping children are merged, so no time is subtracted twice.
* :func:`open_loop` — sends requests on a fixed schedule and times each
  from when it was due, so a stall also counts against the requests
  queued behind it; the gaps between requests can be used to calibrate.
* :func:`calibrate` and :func:`at_reference_speed` — the CPU this runs on
  changes speed by up to 1.7x within seconds, so every end-to-end time is
  rescaled by how long a fixed loop took at about the same moment.
* :func:`cpu_ticks` and :func:`stolen_share` — on a virtual machine the
  host may run other guests on this machine's CPUs (steal time); the share
  of runnable CPU time it took over an interval is taken out of the times
  measured in that interval, since it is time the program never ran.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported tail must have at least this many samples beyond it.
TAIL_BEYOND = 10

#: Iterations of the calibration loop, and its wall time on the reference
#: CPU that end-to-end times are expressed in.
CALIBRATION_ITERATIONS = 150_000
REFERENCE_CALIBRATION_S = 0.012


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """Wall seconds of a fixed pure-Python loop: how fast the CPU runs us now."""
    start = clock()
    table: Dict[int, int] = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[i & 1023] = i
    return clock() - start


def at_reference_speed(seconds: float, calibration: float, stolen: float = 0.0) -> float:
    """``seconds`` measured while :func:`calibrate` took ``calibration``
    and the host took a ``stolen`` share of the CPU time, rescaled to the
    reference CPU."""
    return seconds * (1.0 - stolen) * REFERENCE_CALIBRATION_S / calibration


#: A ``cpu_ticks`` reading: ``(stolen, runnable)`` ticks summed over CPUs.
Ticks = Optional[Tuple[int, int]]


def cpu_ticks(path: str = "/proc/stat") -> Ticks:
    """Ticks stolen by the host, and ticks the CPUs were runnable, so far.

    Runnable is busy (user, nice, system, irq, softirq) plus stolen: an
    idle CPU is never stolen from.  ``None`` where the kernel reports no
    steal time, which disables the correction.
    """
    try:
        with open(path) as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return steal, user + nice + system + irq + softirq + steal


def stolen_share(before: Ticks, after: Ticks) -> float:
    """Share of runnable CPU time the host took between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the reportable tail.

    The value is the highest order statistic with ``beyond`` samples
    above it; its percentile is its rank over the sample count.  That
    statistic lies above the median only with more than ``2 * beyond + 1``
    samples; with fewer, the maximum is returned as percentile 100 with
    zero samples beyond it, so a "tail" never reads below the median.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * beyond + 1:
        return ordered[-1], 100.0, 0
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, beyond


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One timed call: ``parent`` is the span open on the same thread."""

    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent


class Tracer:
    """Collects spans and counts in memory; thread-safe for recording."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: Objects a hook has already seen (for hit/miss style counts).
        self.seen: "weakref.WeakSet" = weakref.WeakSet()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, self.clock(), stack[-1] if stack else None)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return covered


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    return (span.end - span.start) - union_length(
        ((c.start, c.end) for c in children), span.start, span.end
    )


def summarise(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total": 0.0, "self": 0.0}
    )
    for span in spans:
        row = out[span.name]
        row["calls"] += 1
        row["total"] += span.end - span.start
        row["self"] += self_time(span, children.get(id(span), ()))
    return dict(out)


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
def open_loop(
    request: Callable[[], bool],
    rate: float,
    seconds: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    idle: Optional[Callable[[float], None]] = None,
) -> List[Tuple[float, float, bool]]:
    """Issue ``request`` at ``rate`` per second for ``seconds``.

    Request ``i`` is due at ``start + i / rate`` whatever happened to the
    previous one.  Returns ``(latency, lateness, ok)`` per request:
    latency runs from the due time to the answer, lateness from the due
    time to the send, so time a request spent waiting behind a slow one
    is counted rather than hidden.  After each answer ``idle`` is called
    with the seconds left until the next request is due.
    """
    start = clock()
    records = []
    count = int(round(seconds * rate))
    for i in range(count):
        due = start + i / rate
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        ok = request()
        done = clock()
        records.append((done - due, sent - due, ok))
        if idle is not None and i + 1 < count:
            idle(start + (i + 1) / rate - clock())
    return records
