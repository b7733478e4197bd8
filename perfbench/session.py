"""One measured session: set up, run iterations for a fixed time, report.

Runs in its own process (started by ``run.py``) so that its peak RSS,
its CPU time and its stderr cover the program under test and none of the
benchmark's input generation or reference computation.

Usage: python3 session.py JOB.json RESULT.json
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import layers
import proctree
import tracing
import workloads

#: Set-up is repeated for this long (and at least ``MIN_SETUPS``
#: times) and its median reported, so one slow fork or listener start
#: does not decide ``setup_s``.  A time budget rather than a count gives
#: the cheap set-ups (~12 ms on postalign) the most samples.
SETUP_SECONDS = 2.0
MIN_SETUPS = 5
#: Fewest iterations of each kind (untraced, traced) a run measures,
#: even when they outlast ``--seconds``.
MIN_ITERATIONS = 3
#: Iterations run (and checked) before timing starts: the first pays for
#: lazy imports and cold caches that a long-running session pays once.
WARMUP_ITERATIONS = 1
#: Structural check of the traced run: the top-level spans under an
#: iteration's root span must cover at least this share of its wall.
COVERAGE_TOLERANCE = 0.05
ITERATION_TIMEOUT_S = 60.0


class Session:
    """Everything a workload sets up once and reuses per iteration."""

    def __init__(self, workload: str, inputs, workers: int):
        from repro.dataflow.backends import make_backend, noop_task

        self.reference = workloads.load_reference(inputs)
        self.aligner = None if workload == "postalign" \
            else workloads.build_aligner(self.reference)
        if workload == "placed":
            # The placed servers build their own backends per run; the
            # session's one-time cost is the broker listener plus a
            # client handshake.
            self.backend = "process"
            _broker_handshake()
        else:
            self.backend = make_backend("process", workers=workers)
            if self.aligner is not None:
                self.backend.register_shared("aligner", self.aligner)
            self.backend.start()
            # ``start`` returns once the workers are forked; the pool is
            # up when a task has made the round trip through it.
            self.backend.run_chunk(noop_task, [None])

    def close(self) -> None:
        if not isinstance(self.backend, str):
            self.backend.shutdown()


def _broker_handshake() -> None:
    from repro.cluster.broker import Broker, BrokerServer, TcpBrokerClient

    server = BrokerServer(Broker(), host="127.0.0.1", port=0).start()
    try:
        TcpBrokerClient(server.host, server.port).close()
    finally:
        server.stop()


def environment(workers: int) -> dict:
    """What a result depends on besides the code: CPUs, versions, shm."""
    import numpy
    from repro.dataflow.backends import resolve_start_method
    from repro.dataflow.shm import shm_available

    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": resolve_start_method(),
        "shm_available": shm_available(),
        "platform": platform.platform(),
    }


def _share(before: "tuple[int, int]", after: "tuple[int, int]") -> float:
    """Steal share of the machine's CPU time between two samples."""
    return (after[0] - before[0]) / max(1, after[1] - before[1])


def _median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    workload = job["workload"]
    trace = bool(job["trace"])
    work = Path(job["work_dir"])
    recorder = acc = None
    if trace:
        # Before any pool forks: workers inherit the wrappers and the
        # shared accumulators.
        recorder, acc = tracing.install()
    inputs = workloads.Inputs.from_doc(job["inputs"])
    expected = job["expected"]

    setups = []
    session = None
    setup_deadline = time.perf_counter() + SETUP_SECONDS
    while len(setups) < MIN_SETUPS or time.perf_counter() < setup_deadline:
        if session is not None:
            session.close()
        start = time.perf_counter()
        session = Session(workload, inputs, job["workers"])
        setups.append(time.perf_counter() - start)

    iterations: list[dict] = []
    traced_layers: list[dict] = []
    deadline = float("inf")
    index = 0
    ticks_before = proctree.cpu_ticks()
    peak = proctree.PeakSampler()
    try:
        while True:
            if index == WARMUP_ITERATIONS:
                deadline = time.perf_counter() + job["seconds"]
            done = [it["traced"] for it in iterations if not it["warmup"]]
            if time.perf_counter() >= deadline \
                    and done.count(False) >= MIN_ITERATIONS \
                    and (not trace or done.count(True) >= MIN_ITERATIONS):
                break
            warmup = index < WARMUP_ITERATIONS
            traced = trace and not warmup and index % 2 == 0
            record = {"index": index, "warmup": warmup, "traced": traced,
                      "problems": []}
            out_dir = work / f"iter{index}"
            if traced:
                recorder.begin_run(index)
                recorder.enabled = acc.enabled = True
                worker_before = acc.snapshot()
            cpu_before = proctree.cpu_seconds()
            steal_before = proctree.cpu_ticks()
            peak.start()
            start = time.perf_counter()
            outputs = None
            try:
                with recorder.span("run") if traced else nullcontext():
                    outputs = workloads.run_iteration(
                        workload, inputs, out_dir,
                        reference=session.reference,
                        aligner=session.aligner, backend=session.backend,
                        workers=job["workers"], timeout=ITERATION_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - a failed run is a result
                record["problems"].append(
                    "raised: " + traceback.format_exc(limit=8))
            wall = time.perf_counter() - start
            rss_own, rss_child = peak.stop()
            steal_after = proctree.cpu_ticks()
            cpu = proctree.cpu_seconds() - cpu_before
            if traced:
                recorder.enabled = acc.enabled = False
                worker = tracing.snapshot_delta(acc.snapshot(), worker_before)
            record.update(wall_s=wall, cpu_s=cpu, rss_own_mb=rss_own,
                          rss_child_mb=rss_child, rss_mb=rss_own + rss_child,
                          host_steal_frac=_share(steal_before, steal_after))
            if outputs is not None:
                record["reads"] = outputs.reads
                record["problems"] += workloads.check(outputs, inputs, expected)
                if traced and not record["problems"]:
                    layer_run = _traced_metrics(recorder, worker, outputs,
                                                work, index, record)
                    if not record["problems"]:
                        traced_layers.append(layer_run)
            iterations.append(record)
            shutil.rmtree(out_dir, ignore_errors=True)
            index += 1
    finally:
        session.close()
    steal_frac = _share(ticks_before, proctree.cpu_ticks())

    good = [it for it in iterations if not it["problems"]]
    untraced = [it for it in good if not it["traced"] and not it["warmup"]]
    result = {
        "environment": environment(job["workers"]),
        "attempted": len(iterations),
        "failed": len(iterations) - len(good),
        "setup_s": setups,
        "host_steal_frac": steal_frac,
        "iterations": iterations,
        "end_to_end": {
            "reads_per_s": _median([it["reads"] / it["wall_s"] for it in untraced]),
            "setup_s": _median(setups),
            "cpu_s_per_kread": _median(
                [it["cpu_s"] / (it["reads"] / 1000.0) for it in untraced]),
            # The first pass in a fresh session, as a CLI process makes
            # it.  The session's RSS grows from one iteration to the
            # next (the record keeps every iteration's peak), so a peak
            # over however many iterations fit in ``--seconds`` would
            # move with the machine's speed, not with the program.
            "peak_rss_mb": max([it["rss_mb"] for it in good if it["warmup"]],
                               default=0.0),
        },
    }
    if trace:
        traced_walls = [it["wall_s"] for it in good if it["traced"]]
        per_layer = {}
        if traced_layers:
            names = traced_layers[0]["metrics"].keys()
            per_layer = {name: _median([t["metrics"][name] for t in traced_layers])
                         for name in names}
        base = _median([it["wall_s"] for it in untraced])
        per_layer["trace.overhead_frac"] = \
            _median(traced_walls) / base - 1.0 if base and traced_walls else 0.0
        result["per_layer"] = per_layer
        if traced_layers:
            result["layer_table"] = traced_layers[-1]["table"]
            result["trace_file"] = traced_layers[-1]["trace_file"]
    Path(result_path).write_text(json.dumps(result, indent=1))
    return 0


def _traced_metrics(recorder, worker, outputs, work, index,
                    record) -> dict:
    """Per-layer metrics, layer table and trace file of one traced run."""
    spans = recorder.spans
    root = next(s for s in spans if s[0] == "run")
    coverage = tracing.top_level_coverage(spans, root[3])
    if coverage < 1.0 - COVERAGE_TOLERANCE:
        record["problems"].append(
            f"top-level spans cover {coverage:.3f} of the wall, "
            f"below 1 - {COVERAGE_TOLERANCE}")
    metrics = layers.layer_metrics(recorder, worker, outputs, outputs.reads)
    metrics["trace.top_level_coverage"] = coverage
    table = {f"coordinator {name}": seconds
             for name, seconds in sorted(tracing.layer_table(spans).items())}
    for name, seconds in sorted(layers.worker_kernel_seconds(worker).items()):
        table[f"workers kernel.{name}"] = seconds
    for group in ("storage.get", "storage.put", "agd.decode", "agd.encode",
                  "agd.bases_unpack"):
        if worker.get(group, [0, 0])[1]:
            table[f"workers {group}"] = worker[group][1]
    trace_file = work / f"trace-iter{index}.json"
    trace_file.write_text(json.dumps(tracing.chrome_trace(spans, root[1])))
    return {"metrics": metrics, "table": table, "trace_file": str(trace_file)}


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
