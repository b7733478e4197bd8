"""Layer-boundary tracing from outside the program.

The traced run wraps calls into each layer's public functions; nothing
in ``src/`` records spans.  A wrapper does one of two things:

* in the coordinator process it records a span (name, start, end,
  parent, run id) in memory, written out once at the end;
* in a backend worker process (forked from the coordinator after the
  wrappers were installed) it adds its call count, seconds and bytes to
  a shared-memory accumulator the coordinator reads after the run.

Compute kernels dispatched through ``ProcessBackend.run_chunk`` are
wrapped in :class:`TimedTask`, which times each task inside the worker
(and, for the align task, the aligner's ``SnapStats`` deltas).  The
dispatch overhead is the coordinator's ``run_chunk`` span time minus
that worker-side kernel time.

Store wrappers patch the store *classes*, so every store instance keeps
its own attributes (``root``, ``backing``) and the raw-scratch
negotiation sees exactly what it sees untraced.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
import threading
import time
from contextlib import contextmanager

#: Doubles per accumulator slot: calls, seconds, and four free values.
SLOT_WIDTH = 6
MAX_SLOTS = 64

_ACC: "Accumulator | None" = None
_RECORDER: "Recorder | None" = None
#: One reentrancy guard per group, shared by every function wrapped
#: under that group name.
_GUARDS: dict = {}


class Accumulator:
    """Cross-process counters in shared memory (fork-inherited).

    Slot 0 holds the on/off flag the coordinator flips per iteration.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.values = ctx.RawArray("d", SLOT_WIDTH * MAX_SLOTS)
        self.lock = ctx.Lock()
        self.slots: dict[str, int] = {"__flag__": 0}

    def slot(self, name: str) -> int:
        """Slot index for ``name``; assigned in the coordinator only."""
        index = self.slots.get(name)
        if index is None:
            index = len(self.slots)
            if index >= MAX_SLOTS:
                raise RuntimeError("out of accumulator slots")
            self.slots[name] = index
        return index

    @property
    def enabled(self) -> bool:
        return self.values[0] != 0.0

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self.values[0] = 1.0 if value else 0.0

    def add(self, index: int, seconds: float, *extra: float) -> None:
        base = index * SLOT_WIDTH
        with self.lock:
            self.values[base] += 1
            self.values[base + 1] += seconds
            for offset, value in enumerate(extra, start=2):
                self.values[base + offset] += value

    def snapshot(self) -> "dict[str, list[float]]":
        with self.lock:
            return {
                name: list(self.values[i * SLOT_WIDTH:(i + 1) * SLOT_WIDTH])
                for name, i in self.slots.items() if name != "__flag__"
            }


def snapshot_delta(after: dict, before: dict) -> "dict[str, list[float]]":
    return {
        name: [a - b for a, b in zip(values, before.get(name, [0.0] * len(values)))]
        for name, values in after.items()
    }


class Recorder:
    """In-memory span store for the coordinator process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.enabled = False
        self.run_id = 0
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.session_reports: list[dict] = []
        self.backends: dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._ambient = 0  # innermost open span on the main thread
        self._lock = threading.Lock()

    def begin_run(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans = []
        self.counters = {}
        self.session_reports = []
        self.backends = {}

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Record one span; the parent is the thread's open span, or for
        node and server threads the main thread's innermost open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else self._ambient
        tid = threading.get_ident()
        main = tid == self._main
        stack.append(span_id)
        if main:
            saved, self._ambient = self._ambient, span_id
        start = time.perf_counter()
        try:
            yield args
        finally:
            end = time.perf_counter()
            stack.pop()
            if main:
                self._ambient = saved
            self.spans.append((name, start, end, span_id, parent, tid,
                               self.run_id, args))


# ---------------------------------------------------------------------------
# Wrapping


def _reentrancy_guard():
    """Thread-local reentrancy guard: nested calls into the same group
    (``read_chunk`` calling ``read_chunk_data`` calling
    ``read_chunk_index``) count once, at the outermost."""
    local = threading.local()

    @contextmanager
    def guard():
        if getattr(local, "active", False):
            yield False
            return
        local.active = True
        try:
            yield True
        finally:
            local.active = False

    return guard


def wrap(orig, group: str, measure=None):
    """A wrapper recording ``group`` around ``orig``.

    ``measure(result, args, kwargs)`` returns up to four numbers, kept in
    the span's ``m`` argument or added to the worker accumulator.
    """
    guard = _GUARDS.setdefault(group, _reentrancy_guard())
    acc = _ACC
    recorder = _RECORDER
    slot = acc.slot(group)

    def wrapper(*args, **kwargs):
        if os.getpid() == recorder.pid:
            if not recorder.enabled:
                return orig(*args, **kwargs)
            with guard() as outermost:
                if not outermost:
                    return orig(*args, **kwargs)
                with recorder.span(group) as extra:
                    result = orig(*args, **kwargs)
                    if measure is not None:
                        extra["m"] = measure(result, args, kwargs)
                    return result
        if not acc.enabled:
            return orig(*args, **kwargs)
        with guard() as outermost:
            if not outermost:
                return orig(*args, **kwargs)
            start = time.perf_counter()
            result = orig(*args, **kwargs)
            values = measure(result, args, kwargs) if measure else ()
            acc.add(slot, time.perf_counter() - start, *values)
            return result

    wrapper.__wrapped__ = orig
    wrapper.__name__ = getattr(orig, "__name__", group)
    return wrapper


def patch_function(module, name: str, group: str, measure=None) -> None:
    """Replace ``module.name`` in every loaded ``repro`` module that
    imported that same function object."""
    orig = getattr(module, name)
    replacement = wrap(orig, group, measure)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def patch_method(cls, name: str, group: str, measure=None) -> None:
    setattr(cls, name, wrap(getattr(cls, name), group, measure))


class TimedTask:
    """A backend task timed inside the worker process.

    Picklable by reference (the worker is forked from the coordinator,
    so this module is already imported there).  With ``snap_slot`` it
    also accumulates the aligner's ``SnapStats`` deltas for this task.
    """

    def __init__(self, fn, slot: int, snap_slot: "int | None"):
        self.fn = fn
        self.slot = slot
        self.snap_slot = snap_slot

    def __call__(self, shared, payload):
        acc = _ACC
        stats = None
        if self.snap_slot is not None:
            stats = getattr(shared.get(payload[0]), "stats", None)
        before = _snap_fields(stats)
        start = time.perf_counter()
        try:
            return self.fn(shared, payload)
        finally:
            elapsed = time.perf_counter() - start
            acc.add(self.slot, elapsed)
            if stats is not None:
                after = _snap_fields(stats)
                acc.add(self.snap_slot, 0.0,
                        *(a - b for a, b in zip(after, before)))


def _snap_fields(stats) -> "tuple[int, ...]":
    if stats is None:
        return (0, 0, 0, 0)
    return (stats.reads, stats.aligned, stats.candidates_checked,
            stats.seed_lookups)


def _blob_len(result, args, kwargs):
    return (len(result),)


def _put_len(result, args, kwargs):
    data = args[2] if len(args) > 2 else kwargs["data"]
    return (len(data),)


def _chunk_sizes(result, args, kwargs):
    from repro.agd.chunk import ChunkHeader, HEADER_SIZE

    header = ChunkHeader.from_bytes(bytes(result[:HEADER_SIZE]))
    return (header.uncompressed_size, header.compressed_size)


def install() -> "tuple[Recorder, Accumulator]":
    """Install every layer wrapper; call before any backend pool starts."""
    global _ACC, _RECORDER
    import repro.agd.chunk as chunk
    import repro.agd.compaction as compaction
    import repro.cluster.broker as broker
    import repro.cluster.multiserver as multiserver
    import repro.core.columnar as columnar
    import repro.core.ledger as ledger
    import repro.core.pipelines as pipelines
    import repro.dataflow.backends as backends
    import repro.dataflow.queues as queues
    import repro.dataflow.session as session
    import repro.formats.converters as converters
    import repro.formats.vcf as vcf
    import repro.storage.base as storage

    _ACC = Accumulator()
    _RECORDER = recorder = Recorder()

    patch_method(storage.DirectoryStore, "get", "storage.get", _blob_len)
    patch_method(storage.DirectoryStore, "put", "storage.put", _put_len)
    for name in ("read_chunk", "read_chunk_data", "read_chunk_index"):
        patch_function(chunk, name, "agd.decode")
    for name in ("read_bases_column", "read_results_arrays",
                 "decode_results_arrays"):
        patch_function(columnar, name, "agd.decode")
    patch_function(chunk, "write_chunk", "agd.encode", _chunk_sizes)
    patch_function(compaction, "unpack_column_flat", "agd.bases_unpack")
    patch_function(pipelines, "run_pipeline", "core.pipeline")
    patch_function(multiserver, "run_placed_pipeline", "cluster.run")
    patch_function(converters, "import_fastq", "formats.import")
    patch_function(converters, "import_sam", "formats.import")
    patch_function(converters, "export_bam", "formats.export")
    patch_function(vcf, "write_vcf", "formats.export")
    patch_method(ledger.RunLedger, "append", "core.ledger.append")
    patch_method(broker.TcpBrokerClient, "publish", "cluster.publish")
    patch_method(broker.TcpBrokerClient, "publish_ack", "cluster.publish")
    patch_method(broker.TcpBrokerClient, "pull", "cluster.pull",
                 lambda result, a, k: (float(result[0] == queues.PULL_EMPTY),))
    _wrap_queue(queues.Queue, recorder)
    _wrap_session(session.Session, recorder)
    _wrap_dispatch(backends, recorder, _ACC)
    return recorder, _ACC


def _wrap_queue(cls, recorder: Recorder) -> None:
    """Queue waits as counters, not spans: one span per item would
    flood the trace without adding a boundary worth attributing."""
    get, put = cls.get, cls.put

    def traced_get(self, timeout=None):
        if not recorder.enabled or os.getpid() != recorder.pid:
            return get(self, timeout)
        start = time.perf_counter()
        try:
            return get(self, timeout)
        finally:
            recorder.count("queue.get_s", time.perf_counter() - start)

    def traced_put(self, item, timeout=None):
        if not recorder.enabled or os.getpid() != recorder.pid:
            return put(self, item, timeout)
        full = len(self) >= self.capacity
        start = time.perf_counter()
        try:
            return put(self, item, timeout)
        finally:
            recorder.count("queue.put_s", time.perf_counter() - start)
            recorder.count("queue.puts")
            if full:
                recorder.count("queue.full_puts")

    cls.get, cls.put = traced_get, traced_put


def _wrap_session(cls, recorder: Recorder) -> None:
    """Keep every session's stats report: the placed servers' sessions
    are the only place their per-stage busy times exist."""
    run = cls.run

    def traced_run(self, timeout=None):
        result = run(self, timeout)
        if recorder.enabled and os.getpid() == recorder.pid:
            recorder.session_reports.append(result.report)
        return result

    cls.run = traced_run


def _wrap_dispatch(backends, recorder: Recorder, acc: Accumulator) -> None:
    cls = backends.ProcessBackend
    run_chunk = cls.run_chunk
    payload_nbytes = backends.payload_nbytes
    snap_slot = acc.slot("align.snap")

    def traced_run_chunk(self, fn, payloads, shared=None, timeout=300.0):
        if not recorder.enabled or os.getpid() != recorder.pid:
            return run_chunk(self, fn, payloads, shared, timeout)
        if id(self) not in recorder.backends:
            recorder.backends[id(self)] = (self, dict(self.result_stats))
        name = getattr(fn, "__name__", type(fn).__name__)
        task = TimedTask(fn, acc.slot(f"kernel.{name}"),
                         snap_slot if name == "align_subchunk_task" else None)
        nbytes = sum(payload_nbytes(p) for p in payloads)
        with recorder.span("dataflow.dispatch", fn=name, payloads=len(payloads),
                           m=(nbytes,)):
            return run_chunk(self, task, payloads, shared, timeout)

    cls.run_chunk = traced_run_chunk


# ---------------------------------------------------------------------------
# Analysis


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: "list[tuple]") -> "dict[int, float]":
    """Span id -> its duration minus the union of its children's."""
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[1], span[2]))
    result = {}
    for name, start, end, span_id, _parent, _tid, _run, _args in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_table(spans: "list[tuple]") -> "dict[str, float]":
    """Self time per span name, summed over threads (thread-seconds)."""
    own = self_times(spans)
    table: dict[str, float] = {}
    for span in spans:
        table[span[0]] = table.get(span[0], 0.0) + own[span[3]]
    return table


def top_level_coverage(spans: "list[tuple]", root_id: int) -> float:
    """Share of the root span's wall its direct children cover."""
    root = next(s for s in spans if s[3] == root_id)
    intervals = sorted((s[1], s[2]) for s in spans if s[4] == root_id)
    covered, cursor = 0.0, root[1]
    for start, end in intervals:
        start, end = max(start, cursor), min(end, root[2])
        if end > start:
            covered += end - start
            cursor = end
    wall = root[2] - root[1]
    return covered / wall if wall > 0 else 0.0


def chrome_trace(spans: "list[tuple]", origin: float) -> dict:
    """Chrome trace-event JSON (complete "X" events, microseconds)."""
    events = []
    pid = os.getpid()
    for name, start, end, span_id, parent, tid, run_id, args in spans:
        events.append({
            "name": name,
            "cat": layer_of(name),
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": {"id": span_id, "parent": parent, "run": run_id, **args},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
