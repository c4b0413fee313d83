"""End-to-end benchmark of run, replicate, sweep and serve.

    python3 perfbench/run.py --workload run-file --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``run-file``, ``replicate-file``, ``sweep-grid``,
``serve-live`` or ``all``.  Run from anywhere inside a checkout of the
repository: the program is imported from ``src/``, nothing is installed.

For each workload this process generates the input from ``--seed`` (a
``powerlaw_cluster(20000, 5, 0.3, seed)`` edge list for the batch
workloads), times set-up in several fresh interpreters, runs the workload
in one more fresh interpreter (``workload.py``) for ``--seconds``, then
checks every output against an oracle computed here, outside any timed
region.  It prints a table of metrics with units and sample counts and,
as the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics.  See ``perfbench/README.md`` for what each one means.

Temporary files live under ``.perfbench_tmp/`` in the checkout and are
removed on exit, with any shared-memory segment the run created and left
behind.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import layers
import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SHM = Path("/dev/shm")

WORKLOADS = ("run-file", "replicate-file", "sweep-grid", "serve-live")
#: Fresh interpreters that only set up, besides the measured one.  Half
#: run before the workload and half after it, so the median set-up time
#: samples the machine at both ends of the run.
SETUP_PROBES = 6
#: Seconds a child may take beyond ``--seconds`` (its last op, shutdown),
#: and to print ``ready``: a hung child fails the run well inside 180 s.
GRACE = 60.0

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_edges_per_s", "edges/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _on_sigterm(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# Inputs and provenance
# ----------------------------------------------------------------------
def make_input(workload: str, seed: int, tmp: Path) -> Tuple[str, Dict[str, Any]]:
    """Write the workload's input file; returns its path and facts."""
    if workload == "serve-live":
        return "", {"input": f"synthetic(nodes={wl.SERVE_NODES}, seed={seed})"}
    from repro.graph.generators import powerlaw_cluster
    from repro.graph.io import write_edge_list

    path = tmp / "input.txt"
    edges = write_edge_list(powerlaw_cluster(20000, 5, 0.3, seed=seed), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return str(path), {"input": f"powerlaw_cluster(20000, 5, 0.3, seed={seed})",
                       "input_edges": edges, "input_sha256": digest}


def provenance(seed: int, facts: Dict[str, Any]) -> Dict[str, Any]:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode())
        tree.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": commit, "source_sha256": tree.hexdigest(),
            "seed": seed, **facts}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def spawn_ready(cmd: List[str], env: Dict[str, str],
                children: List[subprocess.Popen]) -> Tuple[subprocess.Popen, float, float]:
    """Start ``cmd``; returns it, the seconds until it printed ``ready``
    and the share of CPU time the host stole meanwhile."""
    ticks = harness.cpu_ticks()
    started = time.perf_counter()
    # A session of its own, so cleanup can stop the child's own children
    # (pool workers, the query client) with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    children.append(proc)
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout=GRACE):
            raise BenchError(f"no ready line within {GRACE:.0f} s from {cmd[1:4]}")
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    stolen = harness.stolen_share(ticks, harness.cpu_ticks())
    if line.strip() != "ready":
        raise BenchError(f"set-up failed (exit {proc.poll()}) in {cmd[1:4]}")
    return proc, elapsed, stolen


def probe_setup(cmd: List[str], env: Dict[str, str],
                children: List[subprocess.Popen]) -> Tuple[float, float, float]:
    """Set-up seconds of one fresh interpreter, its idle calibration and
    the share the host stole during set-up."""
    proc, elapsed, stolen = spawn_ready(cmd + ["--probe", "1"], env, children)
    try:
        out, _ = proc.communicate(timeout=GRACE)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe still running after {GRACE:.0f} s")
    label, _, value = out.strip().partition(" ")
    if proc.returncode != 0 or label != "calibration":
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, float(value), stolen


def finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process still running after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")


def stop_group(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and everything left in its process group; wait for all."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def remove_segments(log: Path) -> None:
    """Unlink the shared-memory segments named in ``log`` that still exist.

    The workload process and this one name each segment they create there
    (``workload.record_segments``), so no other process's segment is touched.
    """
    try:
        names = log.read_text().split()
    except FileNotFoundError:
        return
    for name in names:
        try:
            (SHM / name).unlink()
        except FileNotFoundError:  # unlinked by the program, as it should be
            pass


# ----------------------------------------------------------------------
# Oracles: every one runs after the workload process has exited
# ----------------------------------------------------------------------
def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def check_run_file(ops: List[Dict[str, Any]], source: str) -> Dict[str, float]:
    """Each op equals the object-core reference pass over its permutation."""
    import repro.api as api
    from repro.core.post_stream import PostStreamEstimator
    from repro.core.priority_sampler import GraphPrioritySampler
    from repro.graph.io import iter_edge_list
    from repro.streams.transforms import simplify_edges

    expected: Dict[int, Dict[str, Any]] = {}
    for k in sorted({op["k"] for op in ops if op["error"] is None}):
        spec = wl.run_file_spec(api, source, k)
        edges = list(simplify_edges(iter_edge_list(source)))
        random.Random(k).shuffle(edges)
        sampler = GraphPrioritySampler(
            spec.budget, weight_fn=api.get_weight(spec.weight).factory(),
            seed=spec.sampler_seed,
        )
        for u, v in edges:
            sampler.process(u, v)
        bundle = PostStreamEstimator(sampler).estimate()
        expected[k] = {"triangles": bundle.triangles.value,
                       "post_stream": asdict(bundle)}
    for op in ops:
        want = expected.get(op["k"])
        op["correct"] = op["error"] is None and want is not None and (
            op["output"]["estimates"].get("triangles") == want["triangles"]
            and canonical(op["output"]["post_stream"]) == canonical(want["post_stream"])
        )
    return {}


def check_replicate_file(ops: List[Dict[str, Any]], source: str) -> Dict[str, float]:
    """Each op equals an inline (``workers=0``) run of the same spec."""
    import repro.api as api

    expected: Dict[int, str] = {}
    for k in sorted({op["k"] for op in ops if op["error"] is None}):
        report = api.run(wl.replicate_spec(api, source, k, workers=0))
        expected[k] = canonical(wl.replicate_output(report))
    for op in ops:
        op["correct"] = op["error"] is None and canonical(op["output"]) == expected.get(op["k"])
    return {}


def check_sweep_grid(ops: List[Dict[str, Any]], source: str) -> Dict[str, float]:
    """Each op equals an inline sweep; the last op's cache resumes to it."""
    import repro.api as api

    expected: Dict[int, str] = {}
    for k in sorted({op["k"] for op in ops if op["error"] is None}):
        expected[k] = canonical(wl.sweep_cells(api.run_sweep(wl.sweep_spec(api, source, k, workers=0))))
    for op in ops:
        op["correct"] = op["error"] is None and canonical(op["output"]) == expected.get(op["k"])
    done = [op for op in ops if op["error"] is None]
    if not done:
        return {}
    last = done[-1]
    started = time.perf_counter()
    resumed = api.run_sweep(wl.sweep_spec(api, source, last["k"]),
                            cache_dir=last["cache_dir"], resume=True)
    resume_ms = (time.perf_counter() - started) * 1e3
    replayed = resumed.cell_cache_hits == last["passes"] and resumed.cell_cache_misses == 0
    if not (replayed and canonical(wl.sweep_cells(resumed)) == canonical(last["output"])):
        last["correct"] = False
    return {"api.sweep.resume_ms": resume_ms,
            "api.ground_truth.hits": resumed.ground_truth_hits,
            "api.ground_truth.misses": resumed.ground_truth_misses}


def serve_oracle(seed: int, edges: int) -> Tuple[Dict[str, Any], str]:
    """A threadless batch pass over the first ``edges`` synthetic edges."""
    from repro import serve
    from repro.api import get_method, get_weight
    from repro.core.post_stream import PostStreamEstimator

    spec = wl.serve_spec(serve, seed)
    counter = get_method(spec.method).factory(
        spec.budget, 0, spec.sampler_seed, weight_fn=get_weight(spec.weight).factory())
    digest = hashlib.sha256()
    for us, vs in serve.SyntheticSource(spec.nodes, spec.stream_seed,
                                        chunk_size=spec.chunk_size, max_edges=edges):
        digest.update(us.tobytes())
        digest.update(vs.tobytes())
        counter.process_chunk(us, vs)
    sampler = getattr(counter, "sampler", counter)
    return asdict(PostStreamEstimator(sampler).estimate()), digest.hexdigest()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latency_metrics(latencies_ms: Sequence[float]) -> Tuple[Dict[str, float], str]:
    if not latencies_ms:
        raise BenchError("no successful op to time")
    value, percentile, beyond = harness.tail(latencies_ms)
    note = (f"p{percentile:.1f}, {beyond} beyond" if beyond
            else "max: too few samples for a tail above the median with 10 beyond")
    return {"latency_p50_ms": statistics.median(latencies_ms), "latency_tail_ms": value}, note


def batch_result(name: str, raw: Dict[str, Any], source: str, trace: bool) -> Dict[str, Any]:
    ops = raw["ops"]
    checks = {"run-file": lambda: check_run_file(ops, source),
              "replicate-file": lambda: check_replicate_file(ops, source),
              "sweep-grid": lambda: check_sweep_grid(ops, source)}
    extra = checks[name]()
    for op in ops:
        op["ok"] = op["error"] is None and op.get("correct", False)
        op["ref_seconds"] = harness.at_reference_speed(
            op["seconds"], op["calibration"], op["stolen"])
    untraced = [op for op in ops if op["ok"] and not op["traced"]]
    traced = [op for op in ops if op["ok"] and op["traced"]]
    metrics, tail_note = latency_metrics([op["ref_seconds"] * 1e3 for op in untraced])
    work = sum(op["work_edges"] for op in untraced)
    metrics["throughput_edges_per_s"] = work / sum(op["ref_seconds"] for op in untraced)
    wall_clock = {"latency_p50_ms": 1e3 * statistics.median(op["seconds"] for op in untraced),
                  "throughput_edges_per_s": work / sum(op["seconds"] for op in untraced)}
    done = [op for op in ops if op["error"] is None]
    layer = dict(raw.get("layers", {}))
    layer.update(extra)
    passes = sum(op["passes"] for op in done)
    layer["engine.stream_engine.chunked_frac"] = (
        sum(op["chunked"] for op in done) / passes if passes else 0.0)
    layer["engine.replication.task_retries"] = sum(op["retries"] for op in done)
    layer["engine.replication.pool_rebuilds"] = sum(op["rebuilds"] for op in done)
    inline = raw.get("inline")
    if inline is not None and inline["error"] is None and untraced:
        # Both sides are whole run() calls, untraced, in the workload
        # process, each rescaled by the calibrations around it.
        inline_s = harness.at_reference_speed(
            inline["seconds"], inline["calibration"], inline["stolen"])
        layer["engine.replication.inline_ms"] = 1e3 * inline_s
        layer["engine.replication.speedup"] = inline_s / statistics.median(
            op["ref_seconds"] for op in untraced)
    if name == "sweep-grid":
        layer["api.sweep.worker_update_ms"] = (
            1e3 * sum(op["worker_update_s"] for op in done) / len(done) if done else 0.0)
        for key in ("hits", "misses"):
            layer[f"api.ground_truth.{key}"] = layer.get(f"api.ground_truth.{key}", 0) + sum(
                op[f"gt_{key}"] for op in done)
    if traced and untraced:
        layer["bench.tracing_overhead"] = (
            statistics.median([op["ref_seconds"] for op in traced])
            / statistics.median([op["ref_seconds"] for op in untraced]))
    layer["bench.traced_ops"] = len(traced)
    layer["bench.stolen_share"] = statistics.median(op["stolen"] for op in untraced)
    layer["bench.calibration_ms"] = 1e3 * statistics.median(op["calibration"] for op in untraced)
    return {"attempted": len(ops), "failed": sum(not op["ok"] for op in ops),
            "metrics": metrics, "counts": {"latency": len(untraced)},
            "tail_note": tail_note, "layers": layer, "wall_clock": wall_clock}


def serve_result(raw: Dict[str, Any], seed: int, facts: Dict[str, Any]) -> Dict[str, Any]:
    sessions = raw["sessions"]
    attempted = failed = 0
    for session in sessions:
        expected, digest = serve_oracle(seed, session["edges"])
        session["correct"] = canonical(session["output"]) == canonical(expected)
        facts.setdefault("input_edges", []).append(session["edges"])
        facts.setdefault("input_sha256", []).append(digest)
        attempted += len(session["queries"]) + 1
        failed += sum(not ok for _, _, ok in session["queries"]) + (not session["correct"])
    def latencies(traced: bool, rescale: bool) -> List[float]:
        return [1e3 * (harness.at_reference_speed(lat, s["calibration"], s["stolen"])
                       if rescale else lat)
                for s in sessions if s["traced"] == traced for lat, _, ok in s["queries"] if ok]

    plain = [s for s in sessions if not s["traced"]]
    untraced_ms = latencies(False, True)
    metrics, tail_note = latency_metrics(untraced_ms)
    edges, wall = sum(s["edges"] for s in plain), sum(s["wall"] for s in plain)
    metrics["throughput_edges_per_s"] = edges / sum(
        harness.at_reference_speed(s["wall"], s["calibration"], s["stolen"]) for s in plain)
    wall_ms = latencies(False, False)
    wall_clock = {"latency_p50_ms": statistics.median(wall_ms) if wall_ms else 0.0,
                  "throughput_edges_per_s": edges / wall}
    layer = dict(raw.get("layers", {}))
    layer["bench.generator_late_ms"] = 1e3 * max(
        (late for s in sessions for _, late, _ in s["queries"]), default=0.0)
    traced_ms = latencies(True, True)
    if traced_ms:
        layer["bench.tracing_overhead"] = statistics.median(traced_ms) / statistics.median(untraced_ms)
    layer["bench.traced_ops"] = len(traced_ms)
    layer["bench.stolen_share"] = statistics.median(s["stolen"] for s in plain)
    layer["bench.calibration_ms"] = 1e3 * statistics.median(s["calibration"] for s in plain)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "counts": {"latency": len(untraced_ms)}, "tail_note": tail_note, "layers": layer,
            "wall_clock": wall_clock}


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order."""
    names = list(layers.layer_metrics(harness.Tracer(), 0, 0.0))
    names += [
        "engine.stream_engine.chunked_frac", "engine.replication.inline_ms",
        "engine.replication.speedup", "engine.replication.task_retries",
        "engine.replication.pool_rebuilds", "api.sweep.worker_update_ms",
        "api.sweep.resume_ms", "api.ground_truth.hits", "api.ground_truth.misses",
        "serve.service.epochs", "serve.service.stalls", "bench.generator_late_ms",
        "bench.tracing_overhead", "bench.traced_ops", "bench.calibration_ms",
        "bench.stolen_share",
    ]
    return names


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("share", "_frac", "_ratio", ".speedup", ".tracing_overhead")):
        return "ratio"
    return "count"


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def bench(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT))
    env = dict(os.environ, TMPDIR=str(tmp),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    # This process's own temp files (and segment log) go there too.
    tempfile.tempdir = str(tmp)
    children: List[subprocess.Popen] = []
    try:
        source, facts = make_input(name, seed, tmp)
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
               "--source", source, "--seed", str(seed)]
        probes = [probe_setup(cmd, env, children) for _ in range(SETUP_PROBES // 2)]
        out = tmp / "result.json"
        proc, elapsed, stolen = spawn_ready(
            cmd + ["--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)],
            env, children)
        finish(proc, seconds + GRACE)
        probes += [probe_setup(cmd, env, children) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        raw = json.loads(out.read_text())
        probes.append((elapsed, raw["setup_calibration"], stolen))
        if name == "serve-live":
            result = serve_result(raw, seed, facts)
        else:
            result = batch_result(name, raw, source, trace)
    finally:
        for proc in children:
            stop_group(proc)
        tempfile.tempdir = None
        remove_segments(tmp / wl.SEGMENT_LOG)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:  # another run's directory is still there
            pass
    result["metrics"]["setup_s"] = statistics.median(
        harness.at_reference_speed(*probe) for probe in probes)
    result["metrics"]["ok_frac"] = 1.0 - result["failed"] / result["attempted"]
    result["metrics"]["peak_rss_mb"] = raw["peak_rss_mb"]
    result["counts"].update(setup=len(probes), attempted=result["attempted"])
    result["wall_clock"]["setup_s"] = statistics.median(wall for wall, _, _ in probes)
    result["provenance"] = provenance(seed, facts)
    result["name"] = name
    return result


def report(result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """Print one workload's table; returns its JSON metrics."""
    name, counts = result["name"], result["counts"]
    print(f"== {name}  seed {result['provenance']['seed']}  "
          f"({result['attempted']} attempted, {result['failed']} failed)")
    print("   provenance " + json.dumps(result["provenance"], sort_keys=True))
    if not trace:
        samples = {"setup_s": counts["setup"], "ok_frac": counts["attempted"],
                   "peak_rss_mb": 1}
        for metric, unit in END_TO_END:
            n = samples.get(metric, counts["latency"])
            extra = f"  ({result['tail_note']})" if metric == "latency_tail_ms" else ""
            print(f"   {metric:<24} {result['metrics'][metric]:>14.4f} {unit:<8} n={n}{extra}")
        print(f"   {'failed_frac':<24} {result['failed'] / result['attempted']:>14.4f} "
              f"{'ratio':<8} n={counts['attempted']}")
        wall = result["wall_clock"]
        print(f"   times above are at the reference CPU speed, less CPU time the host stole; "
              f"this run's CPU took "
              f"{result['layers']['bench.calibration_ms']:.2f} ms for the "
              f"{1e3 * harness.REFERENCE_CALIBRATION_S:.0f} ms calibration loop; wall clock: "
              + ", ".join(f"{k} {v:.4f}" for k, v in wall.items()))
        return {m: {"value": result["metrics"][m], "unit": u} for m, u in END_TO_END}
    names = per_layer_names()
    values = {n: float(result["layers"].get(n, 0.0)) for n in names}
    for metric in names:
        if not metric.endswith(".share"):
            print(f"   {metric:<40} {values[metric]:>14.4f} {unit_of(metric)}")
    shares = sorted(((values[n], n[: -len(".share")]) for n in names if n.endswith(".share")),
                    reverse=True)
    print("   share of traced op wall (self time, ms per op above):")
    for share, layer in shares:
        print(f"     {layer:<24} {share:>7.1%}")
    total = sum(s for s, _ in shares)
    if total <= 1.0:
        print(f"     {'(outside the layers)':<24} {1.0 - total:>7.1%}")
    else:
        print("     (threads overlap: shares are busy fractions and add up past 100%)")
    ingestion = sum(values[f"{layer}.share"] for layer in
                    ("graph.io", "streams.transforms", "streams.stream", "api.execution"))
    print(f"     ingestion (graph.io + streams.* + api.execution self): {ingestion:.1%}")
    return {n: {"value": values[n], "unit": unit_of(n)} for n in names}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.path.insert(0, str(SRC))
    wl.record_segments()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [bench(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        table = report(result, bool(args.trace))
        prefix = f"{result['name']}." if len(results) > 1 else ""
        metrics.update({prefix + m: v for m, v in table.items()})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
