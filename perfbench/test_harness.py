"""Tests of the benchmark's own helpers, with an injected clock.

    python3 -m pytest perfbench -q

They import nothing from the program except through ``run.py``'s
metric tables, so they run in a second.
"""

from __future__ import annotations

import json
import statistics
import sys
import types
from pathlib import Path

import pytest

import harness
import layers
import run


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Tail percentile: at least ten samples beyond
# ----------------------------------------------------------------------
def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 26)]  # 25 samples
    value, percentile, beyond = harness.tail(values)
    assert (value, percentile, beyond) == (15.0, 60.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_with_twenty_two_samples_is_just_above_the_median():
    values = [float(v) for v in range(22, 0, -1)]
    value, percentile, beyond = harness.tail(values)
    assert (value, beyond) == (12.0, 10)
    assert percentile == pytest.approx(100 * 12 / 22)
    assert value > statistics.median(values)


def test_tail_without_enough_samples_falls_back_to_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    # Eleven to twenty-one samples do have ten beyond some order
    # statistic, but not above the median: still the maximum.
    assert harness.tail([float(v) for v in range(21)]) == (20.0, 100.0, 0)


# ----------------------------------------------------------------------
# Self time: span minus the union of its children
# ----------------------------------------------------------------------
def span(name, start, end, parent=None):
    s = harness.Span(name, start, parent)
    s.end = end
    return s


def test_self_time_merges_overlapping_children():
    parent = span("p", 0.0, 10.0)
    children = [span("a", 1.0, 4.0, parent), span("b", 3.0, 6.0, parent),
                span("c", 8.0, 9.0, parent)]
    # Union of children: [1, 6] and [8, 9] -> 6 seconds covered.
    assert harness.self_time(parent, children) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_span():
    parent = span("p", 0.0, 10.0)
    assert harness.self_time(parent, [span("late", 8.0, 12.0, parent)]) == pytest.approx(8.0)
    assert harness.self_time(parent, [span("nested", 2.0, 3.0, parent),
                                      span("outer", 1.0, 5.0, parent)]) == pytest.approx(6.0)


def test_summarise_with_injected_clock():
    clock = FakeClock()
    tracer = harness.Tracer(clock)
    outer = tracer.open("outer")
    clock.now = 1.0
    inner = tracer.open("inner")
    clock.now = 3.0
    tracer.close(inner)
    clock.now = 5.0
    inner = tracer.open("inner")
    clock.now = 6.0
    tracer.close(inner)
    clock.now = 10.0
    tracer.close(outer)
    summary = harness.summarise(tracer.spans)
    assert summary["outer"] == {"calls": 1, "total": 10.0, "self": 7.0}
    assert summary["inner"] == {"calls": 2, "total": 3.0, "self": 3.0}


# ----------------------------------------------------------------------
# Open loop: latency from due time, lateness when the generator stalls
# ----------------------------------------------------------------------
def test_open_loop_times_from_due_time_through_a_stall():
    clock = FakeClock()
    durations = iter([0.02, 0.35, 0.02, 0.02, 0.02])

    def request() -> bool:
        clock.now += next(durations)
        return True

    records = harness.open_loop(request, rate=10.0, seconds=0.5, clock=clock, sleep=clock.sleep)
    latency = [round(r[0], 6) for r in records]
    lateness = [round(r[1], 6) for r in records]
    # Request 1 stalls for 0.35 s; the three behind it are sent late and
    # their latency counts the wait from when each was due.
    assert latency == [0.02, 0.35, 0.27, 0.19, 0.11]
    assert lateness == [0.0, 0.0, 0.25, 0.17, 0.09]
    assert all(ok for _, _, ok in records)


def test_open_loop_keeps_schedule_when_requests_are_fast():
    clock = FakeClock()

    def request() -> bool:
        clock.now += 0.01
        return False

    records = harness.open_loop(request, rate=4.0, seconds=1.0, clock=clock, sleep=clock.sleep)
    assert len(records) == 4
    assert [round(r[0], 6) for r in records] == [0.01] * 4
    assert [r[1] for r in records] == [0.0] * 4
    assert clock.now == pytest.approx(0.76)


def test_open_loop_offers_the_gap_before_each_next_request():
    clock = FakeClock()
    durations = iter([0.05, 0.4, 0.05])
    gaps = []

    def request() -> bool:
        clock.now += next(durations)
        return True

    harness.open_loop(request, rate=4.0, seconds=0.75, clock=clock, sleep=clock.sleep,
                      idle=gaps.append)
    # After the first answer 0.2 s remain; after the stall the next
    # request is already 0.15 s late; none follows the last answer.
    assert [round(g, 6) for g in gaps] == [0.2, -0.15]


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
@pytest.fixture
def fake_layer():
    """``repro_fake.layer`` with a function, a generator and a class,
    plus ``repro_fake.user`` holding the function imported by name."""
    layer = types.ModuleType("repro_fake.layer")

    def work(x):
        return x + 1

    def pairs(n):
        yield from ((i, i + 1) for i in range(n))

    class Thing:
        @classmethod
        def build(cls, x):
            return layer.work(x)  # looked up at call time, so wrapped

    layer.work, layer.pairs, layer.Thing = work, pairs, Thing
    user = types.ModuleType("repro_fake.user")
    user.work = work
    sys.modules.update({"repro_fake.layer": layer, "repro_fake.user": user})
    try:
        yield layer, user
    finally:
        del sys.modules["repro_fake.layer"], sys.modules["repro_fake.user"]


def test_install_patches_where_looked_up_and_undoes(fake_layer):
    layer, user = fake_layer
    original = layer.work
    hooks = (
        layers.Hook("fake", "repro_fake.layer", "work"),
        layers.Hook("fake", "repro_fake.layer", "pairs", drain=True),
        layers.Hook("fake", "repro_fake.layer", "Thing.build"),
        layers.Hook("fake", "repro_fake.missing", "gone"),
        layers.Hook("fake", "repro_fake.layer", "Absent.method"),
    )
    tracer = harness.Tracer()
    uninstall = layers.install(tracer, hooks)
    try:
        assert user.work is not original and layer.work is not original
        assert user.work(1) == 2
        assert layer.Thing.build(2) == 3
        assert list(layer.pairs(3)) == [(0, 1), (1, 2), (2, 3)]
    finally:
        uninstall()
    assert layer.work is original and user.work is original
    assert isinstance(layer.Thing.__dict__["build"], classmethod)
    summary = harness.summarise(tracer.spans)
    assert summary["fake:work"]["calls"] == 2  # direct, and inside build
    assert summary["fake:Thing.build"]["calls"] == 1
    assert tracer.counts["fake:pairs.out"] == 3


def test_layer_metrics_of_an_empty_trace_are_zero():
    metrics = layers.layer_metrics(harness.Tracer(), 0, 0.0)
    assert metrics and all(value == 0 for value in metrics.values())
    assert {f"{layer}.share" for layer in layers.LAYERS} <= set(metrics)


# ----------------------------------------------------------------------
# The declared metrics match what run.py prints
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_metrics_run_prints():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == run.per_layer_names()
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (n, run.unit_of(n)) for n in run.per_layer_names()]
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


# ----------------------------------------------------------------------
# Reference CPU speed
# ----------------------------------------------------------------------
def test_calibrate_reads_the_injected_clock():
    ticks = iter([10.0, 10.03])
    assert harness.calibrate(lambda: next(ticks)) == pytest.approx(0.03)


def test_times_are_rescaled_to_the_reference_speed():
    ref = harness.REFERENCE_CALIBRATION_S
    # A CPU running at half the reference speed takes twice as long for
    # the loop and for the op: the rescaled op time is what it would be.
    assert harness.at_reference_speed(0.8, 2 * ref) == pytest.approx(0.4)
    assert harness.at_reference_speed(0.8, ref) == pytest.approx(0.8)


def test_time_the_host_stole_is_taken_out():
    ref = harness.REFERENCE_CALIBRATION_S
    # A quarter of the runnable CPU time went to other guests: the
    # program ran for three quarters of the wall time.
    assert harness.at_reference_speed(0.8, ref, 0.25) == pytest.approx(0.6)


def test_stolen_share_from_two_stat_readings(tmp_path):
    stat = tmp_path / "stat"
    # user nice system idle iowait irq softirq steal
    stat.write_text("cpu  100 0 50 900 5 0 10 40 0 0\ncpu0 1 2 3\n")
    before = harness.cpu_ticks(str(stat))
    assert before == (40, 200)
    stat.write_text("cpu  160 0 70 1500 5 0 10 60 0 0\n")
    after = harness.cpu_ticks(str(stat))
    # 20 of the 100 ticks the CPUs could have run were stolen.
    assert harness.stolen_share(before, after) == pytest.approx(0.2)


def test_no_steal_readings_mean_no_correction(tmp_path):
    assert harness.cpu_ticks(str(tmp_path / "missing")) is None
    assert harness.stolen_share(None, (5, 10)) == 0.0
    assert harness.stolen_share((5, 10), (5, 10)) == 0.0


def test_only_the_run_s_own_segments_are_removed(tmp_path, monkeypatch):
    shm = tmp_path / "shm"
    shm.mkdir()
    for name in ("psm_ours", "psm_gone", "psm_theirs"):
        (shm / name).write_bytes(b"")
    (shm / "psm_gone").unlink()
    log = tmp_path / "shm-segments.txt"
    log.write_text("psm_ours\npsm_gone\n")
    monkeypatch.setattr(run, "SHM", shm)
    run.remove_segments(log)
    assert sorted(p.name for p in shm.iterdir()) == ["psm_theirs"]
    run.remove_segments(tmp_path / "no-log")  # nothing created, nothing to do


def test_created_segments_are_named_in_the_log(tmp_path, monkeypatch):
    import tempfile
    from multiprocessing import shared_memory

    import workload

    # Put the original back after the test.
    monkeypatch.setattr(shared_memory.SharedMemory, "__init__",
                        shared_memory.SharedMemory.__init__)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    workload.record_segments()
    created = shared_memory.SharedMemory(create=True, size=16)
    try:
        attached = shared_memory.SharedMemory(name=created.name)
        attached.close()
    finally:
        created.close()
        created.unlink()
    assert (tmp_path / workload.SEGMENT_LOG).read_text().split() == [created.name]
