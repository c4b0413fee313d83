"""Run one workload in a fresh interpreter and write its raw results.

Started by ``run.py``; not meant to be run by hand.  The process imports
the program, sets the workload up and prints ``ready`` on stdout, so the
parent can time set-up from interpreter start.  It then runs the workload
for ``--seconds`` and writes a JSON result file: one record per op (wall
time, error, the op's outputs for the parent's oracles), peak resident
memory, and with ``--trace 1`` the per-layer metrics.

With ``--probe 1`` the process only sets up, prints ``ready``, tears down
and prints ``calibration <seconds>``: the parent starts several probes to
take a median set-up time, each rescaled by the speed its probe measured.

Batch workloads are closed loops with one caller; between ops the process
times ``harness.calibrate()`` (for about 5% of the op's time, at least
once) and around each op it reads the CPU time the host stole, so the
parent can rescale each op to the reference CPU speed.
With ``--trace 1`` every second op runs with the layer wrappers installed,
so the untraced ops in between give the tracing overhead on the same run;
``replicate-file`` then also times one untraced inline (``workers=0``) run
as the single-process baseline of the pool.  ``serve-live`` runs an open
loop from a separate client process, which also calibrates between its
queries; traced, it runs an untraced and a traced session of half the
length each.

Every shared-memory segment the process creates is named in
``shm-segments.txt`` under its temp dir, so the parent can remove exactly
this run's segments if the program leaves one behind.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import harness
import layers

HERE = Path(__file__).resolve().parent

BUDGET = 4000
SWEEP_METHODS = ("gps-post", "gps", "triest")
SWEEP_BUDGETS = (2000, 4000)
SWEEP_RUNS = 3
REPLICATIONS = 8
WORKERS = 2
SERVE_NODES = 100_000
SERVE_RATE = 4.0  # queries per second
#: Share of a batch run spent calibrating between ops.  The machine's speed
#: flips within a second, so one loop on each side says little about an op
#: of a few seconds; an op is rescaled by all the loops on both sides.
CALIBRATION_SHARE = 0.05
#: How many distinct stream seeds each batch workload cycles through.
KEYS_PER_RUN = {"run-file": 3, "replicate-file": 1, "sweep-grid": 1}


def stream_keys(workload: str, seed: int) -> List[int]:
    """The stream seeds ``k`` a run cycles through, fixed by the seed."""
    return random.Random(seed).sample(range(1, 1_000_000), KEYS_PER_RUN[workload])


def run_file_spec(api: Any, source: str, k: int) -> Any:
    return api.RunSpec(source=source, method="gps-post", weight="uniform",
                       budget=BUDGET, stream_seed=k)


def replicate_spec(api: Any, source: str, k: int, workers: int = WORKERS) -> Any:
    return api.RunSpec(source=source, method="gps", budget=BUDGET,
                       replications=REPLICATIONS, workers=workers, stream_seed=k)


def sweep_spec(api: Any, source: str, k: int, workers: int = WORKERS) -> Any:
    return api.SweepSpec(sources=(source,), methods=SWEEP_METHODS,
                         budgets=SWEEP_BUDGETS, runs=SWEEP_RUNS,
                         workers=workers, base_stream_seed=k)


def serve_spec(serve: Any, seed: int) -> Any:
    return serve.ServeSpec(source="synthetic", method="gps-post", weight="uniform",
                           budget=BUDGET, nodes=SERVE_NODES, stream_seed=seed)


def sweep_cells(report: Any) -> List[Dict[str, Any]]:
    """A sweep report's cells without their timing and cache-reuse fields."""
    cells = []
    for cell in report.cells:
        row = cell.to_dict()
        row.pop("update_time_us", None)
        row.pop("cached_runs", None)
        cells.append(row)
    return cells


def replicate_output(report: Any) -> Dict[str, Any]:
    """A replicated report's estimates and per-metric error bars."""
    return {
        "estimates": report.estimates,
        "metrics": {n: s.to_dict() for n, s in report.metrics.items()},
    }


#: File, in the temp dir of the moment, that names each segment created.
SEGMENT_LOG = "shm-segments.txt"


def record_segments() -> None:
    """Name every shared-memory segment created here in :data:`SEGMENT_LOG`."""
    from multiprocessing import shared_memory

    original = shared_memory.SharedMemory.__init__

    def init(self: Any, name: Optional[str] = None, create: bool = False,
             size: int = 0, **kwargs: Any) -> None:
        original(self, name, create, size, **kwargs)
        if create:
            with open(Path(tempfile.gettempdir()) / SEGMENT_LOG, "a") as out:
                out.write(self.name + "\n")

    shared_memory.SharedMemory.__init__ = init


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Batch workloads: one op is one call into the program
# ----------------------------------------------------------------------
class RunFile:
    """``run(spec)`` on the file: the batch sample-then-estimate path.

    ``op`` is the timed call; ``describe`` turns its report into plain
    data for the parent's oracles, outside the timed region.
    """

    def __init__(self, source: str) -> None:
        self.source = source

    def setup(self) -> None:
        import repro.api

        self.api = repro.api

    def op(self, k: int) -> Any:
        return self.api.run(run_file_spec(self.api, self.source, k))

    def describe(self, report: Any) -> Dict[str, Any]:
        return {
            "work_edges": report.edges,
            "passes": 1,
            "chunked": int(report.pipeline == "chunked"),
            "retries": report.task_retries,
            "rebuilds": report.pool_rebuilds,
            "output": {
                "estimates": report.estimates,
                "post_stream": asdict(report.post_stream),
            },
        }


class ReplicateFile(RunFile):
    """Eight pooled replications of the in-stream GPS pass."""

    def op(self, k: int) -> Any:
        return self.api.run(replicate_spec(self.api, self.source, k))

    def inline(self, k: int) -> Any:
        """The same replications in this process: the pool's baseline."""
        return self.api.run(replicate_spec(self.api, self.source, k, workers=0))

    def describe(self, report: Any) -> Dict[str, Any]:
        return {
            "work_edges": report.edges * report.replications,
            "passes": report.replications,
            "chunked": report.replications * int(report.pipeline == "chunked"),
            "retries": report.task_retries,
            "rebuilds": report.pool_rebuilds,
            "output": replicate_output(report),
        }


class SweepGrid(RunFile):
    """A cold three-method, two-budget sweep with a fresh disk cache."""

    def op(self, k: int) -> Any:
        self.cache_dir = tempfile.mkdtemp(prefix="sweep-cache-")
        return self.api.run_sweep(sweep_spec(self.api, self.source, k),
                                  cache_dir=self.cache_dir)

    def describe(self, report: Any) -> Dict[str, Any]:
        reports = [r for cell in report.cells for r in cell.reports]
        return {
            "work_edges": sum(r.edges for r in reports),
            "passes": len(reports),
            "chunked": sum(r.pipeline == "chunked" for r in reports),
            "retries": report.task_retries,
            "rebuilds": report.pool_rebuilds,
            "worker_update_s": sum(r.elapsed_seconds for r in reports),
            "gt_hits": report.ground_truth_hits,
            "gt_misses": report.ground_truth_misses,
            "cache_dir": self.cache_dir,
            "output": sweep_cells(report),
        }


def timed(call: Callable[[], Any], record: Dict[str, Any]) -> Any:
    """``call()``, with its wall seconds and the host's stolen share in ``record``."""
    before = harness.cpu_ticks()
    started = time.perf_counter()
    try:
        return call()
    finally:
        record["seconds"] = time.perf_counter() - started
        record["stolen"] = harness.stolen_share(before, harness.cpu_ticks())


def calibrate_for(seconds: float, previous: List[float]) -> List[float]:
    """Calibrations after an op of ``seconds``: for about
    :data:`CALIBRATION_SHARE` of that time, and at least once."""
    times = max(1, round(CALIBRATION_SHARE * seconds / previous[-1]))
    return [harness.calibrate() for _ in range(times)]


def closed_loop(workload: RunFile, keys: List[int], seconds: float, trace: bool) -> Dict[str, Any]:
    """Call ``workload.op`` back to back until ``seconds`` have passed."""
    tracer = harness.Tracer()
    ops: List[Dict[str, Any]] = []
    before = [harness.calibrate()]
    first = before[0]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        k = keys[len(ops) % len(keys)]
        traced = trace and len(ops) % 2 == 1
        uninstall = layers.install(tracer) if traced else None
        record: Dict[str, Any] = {"k": k, "traced": traced, "error": None}
        try:
            report = timed(lambda: workload.op(k), record)
        except Exception as exc:  # an op failure is counted, not fatal
            report = None
            record["error"] = repr(exc)
        finally:
            if uninstall is not None:
                uninstall()
        if report is not None:
            record.update(workload.describe(report))
        after = calibrate_for(record["seconds"], before)
        record["calibration"] = statistics.fmean(before + after)
        before = after
        ops.append(record)
    result: Dict[str, Any] = {"ops": ops, "peak_rss_mb": peak_rss_mb(),
                              "setup_calibration": first}
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        result["layers"] = layers.layer_metrics(
            tracer, len(traced_ops), sum(op["seconds"] for op in traced_ops)
        )
        if isinstance(workload, ReplicateFile):
            inline: Dict[str, Any] = {"error": None}
            try:
                timed(lambda: workload.inline(keys[0]), inline)
            except Exception as exc:  # no baseline, so no speedup
                inline["error"] = repr(exc)
            after = calibrate_for(inline.get("seconds", 0.0), before)
            inline["calibration"] = statistics.fmean(before + after)
            result["inline"] = inline
    return result


# ----------------------------------------------------------------------
# serve-live: the service in this process, the load in a client process
# ----------------------------------------------------------------------
def request_shutdown(port: int) -> None:
    """Ask the service behind ``port`` to stop, as a client would."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b'{"op": "shutdown"}\n')
        sock.makefile("rb").readline()


class ServeLive:
    """``SamplingService`` behind ``serve_tcp`` on an ephemeral port."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.started = 0.0
        self.port: Optional[int] = None
        self.service: Any = None
        self.server: Optional[threading.Thread] = None
        self.client: Optional[subprocess.Popen] = None
        self.ticks: harness.Ticks = None

    def setup(self) -> None:
        """Start ingesting and listening; ready once data is queryable."""
        from repro import serve
        from repro.serve.protocol import serve_tcp

        bound = threading.Event()

        def ready(host: str, port: int) -> None:
            self.port = port
            bound.set()

        self.service = serve.SamplingService(serve_spec(serve, self.seed))
        self.ticks = harness.cpu_ticks()
        self.started = time.perf_counter()
        self.service.start()
        self.server = threading.Thread(
            target=serve_tcp, args=(self.service,),
            kwargs={"port": 0, "ready": ready}, daemon=True,
        )
        self.server.start()
        if not bound.wait(60) or self.service.wait_for_epoch(2, timeout=60) is None:
            raise RuntimeError("service did not come up")

    def session(self, seconds: float) -> Dict[str, Any]:
        """Load the service from the client, then read its final state."""
        self.client = subprocess.Popen(
            [sys.executable, str(HERE / "client.py"), "--port", str(self.port),
             "--rate", str(SERVE_RATE), "--seconds", str(seconds)],
            stdout=subprocess.PIPE, text=True,
        )
        out, _ = self.client.communicate(timeout=seconds + 60)
        if self.client.returncode != 0:
            raise RuntimeError(f"client exited with {self.client.returncode}")
        self.server.join(60)
        stopped = time.perf_counter()
        stolen = harness.stolen_share(self.ticks, harness.cpu_ticks())
        if self.server.is_alive():
            raise RuntimeError("server did not stop after shutdown")
        self.service.join()  # re-raises a worker failure
        final = self.service.latest()
        load = json.loads(out.strip().splitlines()[-1])
        # The machine's mean speed through the session, as the client saw
        # it; if every query ran late and left no gap, taken now, idle.
        calibrations = load["calibrations"] or [harness.calibrate() for _ in range(3)]
        return {
            "queries": load["queries"],
            "calibration": statistics.fmean(calibrations),
            "wall": stopped - self.started,
            "stolen": stolen,
            # Arrivals driven, self loops and repeats included; the
            # sampler's stream_position counts only the edges it kept.
            "edges": self.service.stats.edges,
            "epochs": final.epoch,
            "stalls": self.service.stalls,
        }

    def close(self) -> None:
        """Stop client, server and service, whatever state they are in."""
        if self.client is not None and self.client.poll() is None:
            self.client.kill()
            self.client.wait()
        if self.server is not None and self.server.is_alive() and self.port:
            try:
                request_shutdown(self.port)
            except OSError:
                pass
            self.server.join(30)
        if self.service is not None and self.service.running:
            self.service.stop(drain=False, timeout=30)


def serve_sessions(seed: int, seconds: float, trace: bool, first: ServeLive) -> Dict[str, Any]:
    """One untraced session, or an untraced and a traced half-session."""
    sessions = []
    layer_values = None
    plan = [(seconds / 2, False), (seconds / 2, True)] if trace else [(seconds, False)]
    for i, (length, traced) in enumerate(plan):
        live = first if i == 0 else ServeLive(seed)
        tracer = harness.Tracer()
        uninstall = layers.install(tracer) if traced else None
        try:
            if i > 0:
                live.setup()
            session = live.session(length)
        finally:
            if uninstall is not None:
                uninstall()
            live.close()
        if traced:
            layer_values = layers.layer_metrics(
                tracer, len(session["queries"]), session["wall"]
            )
            layer_values["serve.service.epochs"] = session["epochs"]
            layer_values["serve.service.stalls"] = session["stalls"]
        session["traced"] = traced
        session["output"] = asdict(live.service.latest().estimates())
        sessions.append(session)
    result: Dict[str, Any] = {"sessions": sessions, "peak_rss_mb": peak_rss_mb()}
    if layer_values is not None:
        result["layers"] = layer_values
    return result


# ----------------------------------------------------------------------
def make(workload: str, source: str, seed: int) -> Any:
    if workload == "serve-live":
        return ServeLive(seed)
    kinds: Dict[str, Callable[[str], RunFile]] = {
        "run-file": RunFile, "replicate-file": ReplicateFile, "sweep-grid": SweepGrid,
    }
    return kinds[workload](source)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--source", default="")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    record_segments()
    workload = make(args.workload, args.source, args.seed)
    result: Dict[str, Any] = {}
    try:
        workload.setup()
        print("ready", flush=True)
        if args.probe:
            pass
        elif isinstance(workload, ServeLive):
            result = serve_sessions(args.seed, args.seconds, bool(args.trace), workload)
        else:
            keys = stream_keys(args.workload, args.seed)
            result = closed_loop(workload, keys, args.seconds, bool(args.trace))
    finally:
        if isinstance(workload, ServeLive):
            workload.close()
    # Taken with the program idle: a live service would slow the loop and
    # so hide part of its own cost.
    idle = statistics.median(harness.calibrate() for _ in range(3))
    if args.probe:
        print(f"calibration {idle!r}", flush=True)
        return 0
    result.setdefault("setup_calibration", idle)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
