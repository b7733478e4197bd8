"""Per-layer metrics of one traced iteration.

``BENCHMARK.json`` declares every metric with its unit;
``predictions.json`` says how each is measured (``source``) and which
end-to-end metric it should move on which workload.
:func:`layer_metrics` computes those names.
"""

from __future__ import annotations

import tracing


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_totals(spans: "list[tuple]") -> "dict[str, list[float]]":
    """name -> [calls, seconds, m0, m1] over the coordinator spans."""
    totals: dict[str, list[float]] = {}
    for name, start, end, _id, _parent, _tid, _run, args in spans:
        row = totals.setdefault(name, [0.0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        for i, value in enumerate(args.get("m", ())):
            row[2 + i] += value
    return totals


def _stage_totals(reports: "list[dict]") -> "dict[str, dict]":
    """Stage aggregates summed over every session report of the run."""
    stages: dict[str, dict] = {}
    for report in reports:
        for stage, agg in report.get("stages", {}).items():
            row = stages.setdefault(stage, {"busy": 0.0, "wait": 0.0,
                                            "counters": {}})
            row["busy"] += agg.get("busy_seconds", 0.0)
            row["wait"] += agg.get("wait_seconds", 0.0)
            for key, value in agg.get("counters", {}).items():
                row["counters"][key] = row["counters"].get(key, 0) + value
    return stages


def layer_metrics(recorder, worker: "dict[str, list[float]]", outputs,
                  reads: int) -> "dict[str, float]":
    """Every per-layer metric except the trace and stderr diagnostics."""
    spans = recorder.spans
    coord = _span_totals(spans)

    def both(group: str) -> "list[float]":
        a = coord.get(group, [0.0] * 4)
        b = worker.get(group, [0.0] * tracing.SLOT_WIDTH)
        return [a[i] + b[i] for i in range(4)]

    get, put = both("storage.get"), both("storage.put")
    decode, encode = both("agd.decode"), both("agd.encode")
    unpack = both("agd.bases_unpack")
    fmt_import = coord.get("formats.import", [0.0] * 4)
    fmt_export = coord.get("formats.export", [0.0] * 4)
    ledger = coord.get("core.ledger.append", [0.0] * 4)
    dispatch = coord.get("dataflow.dispatch", [0.0] * 4)
    publish = coord.get("cluster.publish", [0.0] * 4)
    pull = coord.get("cluster.pull", [0.0] * 4)
    kernels = worker_kernel_seconds(worker)
    kernel_s = sum(kernels.values())
    align_busy = kernels.get("align_subchunk_task", 0.0)
    snap = worker.get("align.snap", [0.0] * tracing.SLOT_WIDTH)
    snap_reads, snap_aligned, snap_candidates = snap[2], snap[3], snap[4]
    stages = _stage_totals(recorder.session_reports)

    def stage(name: str) -> dict:
        return stages.get(name, {"busy": 0.0, "wait": 0.0, "counters": {}})

    sort = stage("sort")
    decode_copies = sum(s["counters"].get("decode_copies", 0)
                        for s in stages.values())
    outcome = outputs.outcome
    broker = getattr(outcome, "broker_stats", {}) or {}

    def broker_sum(key: str) -> float:
        return float(sum(edge.get(key, 0) for edge in broker.values()))

    decode_copies += broker_sum("decode_copies")
    result_segments = result_copies = 0
    for backend, before in recorder.backends.values():
        after = backend.result_stats
        result_segments += after["result_segments"] - before["result_segments"]
        result_copies += after["result_copies"] - before["result_copies"]
    counters = recorder.counters
    dup = outcome.dupmark_stats
    export_bytes = outputs.vcf_path.stat().st_size
    if outputs.bam_path is not None:
        export_bytes += outputs.bam_path.stat().st_size
    imbalance = getattr(outcome, "completion_imbalance", 0.0)
    return {
        "formats.import_s": fmt_import[1],
        "formats.export_s": fmt_export[1],
        "formats.export_bytes": float(export_bytes),
        "storage.get_calls": get[0],
        "storage.get_bytes": get[2],
        "storage.get_s": get[1],
        "storage.put_calls": put[0],
        "storage.put_bytes": put[2],
        "storage.put_s": put[1],
        "storage.bytes_per_read": _ratio(get[2] + put[2], reads),
        "agd.decode_calls": decode[0],
        "agd.decode_s": decode[1],
        "agd.encode_calls": encode[0],
        "agd.encode_s": encode[1],
        "agd.bases_unpack_s": unpack[1],
        "agd.compress_ratio": _ratio(encode[2], encode[3]),
        "agd.decode_copies": float(decode_copies),
        "align.busy_s": align_busy,
        "align.reads_per_busy_s": _ratio(snap_reads, align_busy),
        "align.mapped_frac": _ratio(snap_aligned, snap_reads),
        "align.candidates_per_read": _ratio(snap_candidates, snap_reads),
        "core.sort.busy_s": sort["busy"],
        "core.sort.wait_s": sort["wait"],
        "core.sort.spill_bytes": float(sort["counters"].get("spill_bytes", 0)),
        "core.sort.spill_view_frac": _ratio(
            sort["counters"].get("spill_view_bytes", 0),
            sort["counters"].get("spill_bytes", 0)),
        "core.dupmark.busy_s": stage("dupmark")["busy"],
        "core.dupmark.dup_frac": _ratio(dup.duplicates_marked, dup.records),
        "core.filter.busy_s": stage("filter")["busy"],
        "core.varcall.busy_s": stage("varcall")["busy"],
        "core.varcall.calls": float(len(outputs.variants)),
        "core.ledger.append_calls": ledger[0],
        "core.ledger.append_s": ledger[1],
        "dataflow.dispatch_calls": dispatch[0],
        "dataflow.dispatch_payload_bytes": dispatch[2],
        "dataflow.dispatch_s": dispatch[1],
        "dataflow.dispatch_overhead_s": dispatch[1] - kernel_s,
        "dataflow.queue_wait_s": counters.get("queue.get_s", 0.0)
        + counters.get("queue.put_s", 0.0),
        "dataflow.queue_full_frac": _ratio(counters.get("queue.full_puts", 0.0),
                                           counters.get("queue.puts", 0.0)),
        "dataflow.result_view_frac": _ratio(result_segments,
                                            result_segments + result_copies),
        "cluster.publish_calls": publish[0],
        "cluster.publish_s": publish[1],
        "cluster.pull_calls": pull[0],
        "cluster.pull_empty_frac": _ratio(pull[2], pull[0]),
        "cluster.pull_s": pull[1],
        "cluster.payload_bytes": broker_sum("payload_bytes"),
        "cluster.wire_bytes": broker_sum("wire_bytes"),
        "cluster.copied_frac": _ratio(broker_sum("copied_bytes"),
                                      broker_sum("payload_bytes")),
        "cluster.shm_handoffs": broker_sum("shm_handoffs"),
        "cluster.redelivered": broker_sum("total_redelivered"),
        "cluster.imbalance": float(imbalance),
    }


def worker_kernel_seconds(worker: "dict[str, list[float]]") -> "dict[str, float]":
    """Seconds each backend task spent inside the worker processes."""
    return {name[len("kernel."):]: values[1]
            for name, values in worker.items() if name.startswith("kernel.")}
