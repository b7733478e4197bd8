"""Dataset sorting: external merge sort with superchunks (§4.3).

"Persona also integrates full dataset sorting by various parameters,
including mapped read location and read ID.  The sort implementation is a
simple external merge sort, where several chunks at a time are sorted and
merged into temporary file 'superchunks'.  A final merge stage merges
superchunks into the final sorted dataset."

Sorting reorders *rows*, so all row-grouped columns move together; but —
unlike row-oriented SAM/BAM sorting — only the key column plus compact
row payloads travel through the sort, and records never leave their
columnar encoding (Table 2's advantage).

Two fast paths ride on the columnar layout (the scalar ``list.sort``
and ``heapq.merge`` remain as the fallback for keys that do not pack,
and the fast paths are equivalence-tested against them):

* run sorts extract keys into numpy arrays and apply one stable
  ``np.argsort`` permutation instead of a tuple-comparison ``list.sort``
  (:func:`repro.core.columnar.row_sort_permutation`);
* phase 2 can run as several *partitioned* merge kernels — the packed
  key space is split into contiguous ranges (per-contig ranges for
  location order), each range merged by an independent backend task, and
  the ranges concatenated in key order.  Output bytes are identical to
  the single-kernel ``heapq.merge``.

Spill locality: when the merge will be partitioned, phase 1 spills every
run as *per-partition sub-chunks* at shared key-range boundaries (fixed
from the first run's key quantiles).  Each phase-2 merge kernel then
decodes only its own key range of every run — compressed sub-chunk blobs
it can receive by shared-memory reference — instead of whole decoded
runs round-tripping through the caller.  Because boundaries are applied
with the same left-closed searchsorted rule everywhere, equal keys never
straddle a partition and the concatenated partitions reproduce the
single-kernel merge byte for byte.

Spill-as-views: when the scratch store is a local directory, spills are
written in the *raw* (identity-codec) chunk frame layout and restored by
``mmap`` — a merge kernel receives a tiny :class:`SpillFileRef` instead
of the blob bytes, maps the file under a :class:`SpillLease` guard, and
decodes records straight from the mapped pages in one pass (no
``scratch.get`` copy, no gzip inflate, no blob shipping).  The chunk
header is self-describing, so gzip scratch (remote / in-memory stores,
or ``raw_scratch=False``) and resumed runs with mixed spills restore
through the same path byte-identically.
"""

from __future__ import annotations

import base64
import heapq
import itertools
import mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.agd.chunk import read_chunk, read_chunk_header, write_chunk
from repro.agd.compression import (
    DEFAULT_CODEC,
    SCRATCH_CODEC_LEVEL,
    Codec,
    leveled_codec,
)
from repro.agd.dataset import AGDDataset
from repro.agd.manifest import ChunkEntry, Manifest
from repro.agd.records import record_type_for_column
from repro.align.result import AlignmentResult
from repro.core.columnar import row_sort_keys, row_sort_permutation
from repro.storage.base import ChunkStore, MemoryStore


@dataclass
class SortConfig:
    """External sort parameters."""

    chunks_per_superchunk: int = 4
    output_chunk_size: "int | None" = None  # default: input chunk size
    order: str = "location"  # or "metadata"
    #: Compression level for superchunk spills (gzip).  Scratch blobs are
    #: read back exactly once, so the default is the cheap level 1.
    scratch_codec_level: int = SCRATCH_CODEC_LEVEL
    #: Compression level for the sorted output chunks (None = default
    #: codec, gzip level 6).
    output_codec_level: "int | None" = None
    #: Partitioned phase-2 merge kernels.  None = auto: one kernel per
    #: backend worker when a *multi-worker* backend is supplied, else
    #: the single-kernel streaming ``heapq.merge`` (partitioning trades
    #: streamed emission for parallel merge compute, so it only pays
    #: when workers can actually overlap).
    merge_partitions: "int | None" = None
    #: Raw-scratch negotiation.  None = auto: spill in the raw
    #: (identity-codec) frame layout when the scratch store resolves to
    #: a local directory (see :func:`local_scratch_root`) so phase 2 can
    #: ``mmap`` spills and decode them in place; gzip otherwise.  True
    #: forces raw frames even for non-mappable stores (no inflate cost,
    #: but restore copies through ``scratch.get``); False forces the
    #: gzip fallback everywhere.
    raw_scratch: "bool | None" = None

    def scratch_codec(self, codec_name: str = "gzip") -> Codec:
        return leveled_codec(codec_name, self.scratch_codec_level)

    def resolve_scratch_codec(self, scratch) -> str:
        """Scratch codec name after raw-scratch negotiation.

        Write-side only: restore reads whatever codec each spill's
        header declares, so mixed scratch (a resumed run that changed
        the setting) still merges byte-identically.
        """
        if self.raw_scratch is None:
            return "none" if local_scratch_root(scratch) is not None \
                else "gzip"
        return "none" if self.raw_scratch else "gzip"

    def output_codec(self) -> "Codec":
        if self.output_codec_level is None:
            return DEFAULT_CODEC
        return leveled_codec("gzip", self.output_codec_level)

    def resolve_merge_partitions(self, backend) -> int:
        """Number of phase-2 merge kernels for a given backend.

        Auto partitions only on multi-worker backends that share the
        caller's memory (the thread backend).  For a process pool the
        *payload* direction is now cheap — spill locality hands each
        kernel only its own compressed sub-chunk blobs, shm-shippable —
        but the merged rows still return through pickled IPC (the whole
        dataset, as decoded row tuples), so auto stays conservative and
        process pools opt in explicitly via ``merge_partitions``.
        """
        if backend is None:
            return 1
        if self.merge_partitions is not None:
            return max(1, self.merge_partitions)
        workers = getattr(backend, "workers", 1)
        if workers > 1 and getattr(backend, "shares_caller_memory", True):
            return workers
        return 1


def sort_key_for(order: str, meta_index: int = 1) -> Callable:
    """Key extractor over a row tuple.

    Rows are laid out key-first by :func:`_key_first_columns`: the
    results column (location keys) is always row position 0 when
    present; the metadata column sits at ``meta_index`` — 1 when a
    results column leads the row, 0 for datasets without one (use
    :func:`metadata_row_index` to derive it; the historical default of
    1 silently keyed on the wrong column for results-less datasets).
    """
    if order == "location":
        def location_key(row: tuple) -> tuple:
            result: AlignmentResult = row[0]
            return result.location_key()
        return location_key
    if order == "metadata":
        def metadata_key(row: tuple) -> bytes:
            return row[meta_index]
        return metadata_key
    raise ValueError(f"unknown sort order {order!r} (location|metadata)")


def metadata_row_index(ordered_columns: "list[str]") -> int:
    """Row position of the metadata column in key-first row tuples."""
    try:
        return ordered_columns.index("metadata")
    except ValueError:
        return 1


def _sorted_rows(order: str, rows: "list[tuple]", meta_index: int) -> list:
    """Sort rows by the configured order: the numpy permutation, or the
    scalar ``list.sort`` for keys it cannot pack.  Both are stable, so
    the output order is identical."""
    perm = row_sort_permutation(order, rows, meta_index)
    if perm is not None:
        return [rows[i] for i in perm]
    rows = list(rows)
    rows.sort(key=sort_key_for(order, meta_index))
    return rows


def sort_rows_task(shared, payload) -> "list[tuple]":
    """Backend task: sort one run's rows that are already in memory.

    The streaming sort-run kernel uses this when rows arrived through a
    pipeline queue (no blobs to decode); :func:`sort_run_spill_task` is
    the from-blob variant the eager path fans out.  The sort is stable,
    so output is identical to sorting the same rows anywhere else.
    """
    order, rows, meta_index = payload
    return _sorted_rows(order, list(rows), meta_index)


# ---------------------------------------------------------------------------
# Spill-as-views: local raw-framed spills restored through mmap leases.


def local_scratch_root(store) -> "Path | None":
    """Directory behind a scratch store, if it has one.

    Unwraps the repo's store wrappers (``JournaledStore.store``,
    ``LocalCacheStore``/``CountingStore`` ``.backing``) down to a
    :class:`~repro.storage.base.DirectoryStore` ``root``; None for
    in-memory or otherwise non-mappable stores.  This is the whole
    raw-scratch negotiation: a local directory means phase 2 can
    ``mmap`` spill files instead of copying blobs out of the store.
    """
    seen: set[int] = set()
    while store is not None and id(store) not in seen:
        seen.add(id(store))
        root = getattr(store, "root", None)
        if root is not None:
            return Path(root)
        store = getattr(store, "backing", None) or getattr(store, "store",
                                                          None)
    return None


@dataclass(frozen=True)
class SpillFileRef:
    """A spill sub-chunk by file path instead of blob bytes.

    What crosses the backend boundary on the spill-view path: ~100
    bytes regardless of run size.  ``nbytes`` is the on-disk frame size
    so :func:`~repro.dataflow.backends.payload_nbytes` batches by the
    mapped payload, not the pickled ref.
    """

    path: str
    nbytes: int


class SpillLease:
    """:class:`~repro.dataflow.shm.SegmentLease`-style guard over one
    mmap'ed spill file.

    ``buf`` is a read-only view of the mapped frame; records decoded
    from it alias page-cache memory, so the lease must outlive every
    view derived from it.  Merge kernels decode (materializing records
    in the same pass) and release immediately; :meth:`release` returns
    False while derived buffers still pin the mapping, exactly like the
    segment lease it mirrors.
    """

    __slots__ = ("path", "_mm", "_mv")

    def __init__(self, path: "str | Path"):
        self.path = str(path)
        with open(self.path, "rb") as fh:
            self._mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._mv = memoryview(self._mm).toreadonly()

    @property
    def buf(self) -> memoryview:
        return self._mv

    @property
    def nbytes(self) -> int:
        return self._mv.nbytes

    def view(self, offset: int = 0, length: "int | None" = None) -> memoryview:
        end = self._mv.nbytes if length is None else offset + length
        return self._mv[offset:end]

    def release(self) -> bool:
        """Unmap; False when views derived from ``buf`` still pin the
        mapping (the lease stays held — retry after dropping them)."""
        if self._mv is None:
            return True
        try:
            self._mv.release()
            self._mm.close()
        except BufferError:
            return False
        self._mv = None
        return True

    def __enter__(self) -> "SpillLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __del__(self):  # pragma: no cover - GC ordering dependent
        try:
            self.release()
        except Exception:
            pass


def open_spill_ref(ref: SpillFileRef) -> "tuple[memoryview, SpillLease]":
    """Map one spilled sub-chunk; returns ``(frame_view, lease)``.

    The worker-side half of the spill-view path: kernels decode the
    returned view in place and release the lease before returning."""
    lease = SpillLease(ref.path)
    return lease.buf, lease


class _SpillSource:
    """Resolver from spill chunk files to decodable buffers.

    Caches the scratch store's local root once; :meth:`ref` hands out
    :class:`SpillFileRef` descriptors for backend shipping (None when
    the store is not mappable — the caller falls back to blob bytes),
    :meth:`open` yields ``(buffer, lease-or-None)`` for in-caller
    decode."""

    def __init__(self, scratch: ChunkStore):
        self.scratch = scratch
        self.root = local_scratch_root(scratch)

    def ref(self, chunk_file: str) -> "SpillFileRef | None":
        if self.root is None:
            return None
        path = self.root / chunk_file
        try:
            nbytes = os.path.getsize(path)
        except OSError:
            return None
        return SpillFileRef(str(path), nbytes)

    def open(self, chunk_file: str):
        ref = self.ref(chunk_file)
        if ref is None:
            return self.scratch.get(chunk_file), None
        return open_spill_ref(ref)


def _credit_spill(counters: "dict | None", header) -> None:
    """Account one restored spill blob by what its header says happened.

    ``spill_view_bytes`` — data-block bytes decoded in place (identity
    codec: the frame *is* the uncompressed block); ``decode_copies`` —
    blobs whose restore had to materialize a decompressed copy (the
    gzip fallback).  The acceptance bar for the view path is
    ``decode_copies == 0``.
    """
    if counters is None:
        return
    counters["spill_restores"] = counters.get("spill_restores", 0) + 1
    if header.codec_name == "none":
        counters["spill_view_bytes"] = (
            counters.get("spill_view_bytes", 0) + header.uncompressed_size
        )
    else:
        counters["decode_copies"] = counters.get("decode_copies", 0) + 1
        counters["spill_decoded_bytes"] = (
            counters.get("spill_decoded_bytes", 0) + header.uncompressed_size
        )


def _spill_header(blob):
    """Header of one spill blob without pulling its bytes: 64 bytes read
    straight from the file when ``blob`` is a :class:`SpillFileRef`."""
    if isinstance(blob, SpillFileRef):
        with open(blob.path, "rb") as fh:
            return read_chunk_header(fh.read(64))
    return read_chunk_header(blob)


def _result_stats_snapshot(backend) -> "dict | None":
    """Snapshot a backend's result-path counters (None when the backend
    does not account results — serial/thread, or shm off)."""
    stats = getattr(backend, "result_stats", None)
    return dict(stats) if stats else None


def _credit_result_stats(counters: "dict | None", backend,
                         snapshot: "dict | None") -> None:
    """Fold the backend's result-path counter deltas since ``snapshot``
    into ``counters``.  Copied result segments also count as
    ``decode_copies`` so one counter covers the whole sort memory plane
    (spill restore *and* worker→coordinator results)."""
    if counters is None or snapshot is None:
        return
    stats = getattr(backend, "result_stats", None) or {}
    for key, value in stats.items():
        delta = value - snapshot.get(key, 0)
        if delta:
            counters[key] = counters.get(key, 0) + delta
    copies = stats.get("result_copies", 0) - snapshot.get("result_copies", 0)
    if copies:
        counters["decode_copies"] = counters.get("decode_copies", 0) + copies


# ---------------------------------------------------------------------------
# Spill locality: runs spilled as per-partition sub-chunks at shared key
# boundaries, so each phase-2 merge kernel touches only its key range.


@dataclass
class SpilledRun:
    """One sorted run in the scratch store.

    ``entries`` lists the run's chunk entries in row order (one jumbo
    superchunk, or the non-empty partition sub-chunks — concatenating
    them reproduces the sorted run either way).  ``partitions`` is the
    per-key-range sub-chunk list (None entries for ranges the run has no
    rows in), present only for partition-spilled runs.  ``nbytes`` is
    the total stored frame size (what a restore will map or read), so
    byte-batching over run payloads sees the real weight, not the
    pickled entry list.
    """

    entries: "list[ChunkEntry]"
    partitions: "list[ChunkEntry | None] | None" = None
    nbytes: int = 0

    @property
    def record_count(self) -> int:
        return sum(e.record_count for e in self.entries)


def _as_spilled(run) -> SpilledRun:
    """Normalize the run shapes phase 2 accepts (plain entry lists from
    legacy callers, SortRun work items from the streaming node)."""
    if isinstance(run, SpilledRun):
        return run
    if isinstance(run, (list, tuple)):
        return SpilledRun(entries=list(run))
    partitions = getattr(run, "partitions", None)
    entry = getattr(run, "entry", None)
    nbytes = getattr(run, "nbytes", 0)
    if partitions is not None:
        return SpilledRun(
            entries=[e for e in partitions if e is not None],
            partitions=list(partitions),
            nbytes=nbytes,
        )
    if entry is not None:
        return SpilledRun(entries=[entry], nbytes=nbytes)
    raise TypeError(f"cannot interpret {type(run).__name__} as a sorted run")


def _widen_keys(keys: np.ndarray, other: np.ndarray):
    """Give bytes-keyed arrays a common S-width so searchsorted compares
    content, not truncations (packed uint64 keys pass through)."""
    if keys.dtype.kind != "S" or keys.dtype == other.dtype:
        return keys, other
    width = max(keys.dtype.itemsize, other.dtype.itemsize)
    return keys.astype(f"S{width}"), other.astype(f"S{width}")


def spill_boundaries(keys: np.ndarray, partitions: int) -> np.ndarray:
    """Boundary keys splitting one sorted run into ``<= partitions``
    key ranges of roughly equal row counts (deduplicated, so equal keys
    never produce an empty self-partition)."""
    picks = []
    for k in range(1, partitions):
        if keys.size == 0:
            break
        b = keys[(keys.size * k) // partitions]
        if not picks or b != picks[-1]:
            picks.append(b)
    return np.array(picks, dtype=keys.dtype)


def encode_boundaries(boundaries: "np.ndarray | None") -> "dict | None":
    """JSON-encode shared spill boundaries for the run ledger.

    Boundaries are packed-uint64 or fixed-width-bytes key arrays; the
    dtype string plus raw bytes round-trips either exactly.
    """
    if boundaries is None:
        return None
    return {
        "dtype": boundaries.dtype.str,
        "data": base64.b64encode(boundaries.tobytes()).decode("ascii"),
    }


def decode_boundaries(doc: "dict | None") -> "np.ndarray | None":
    """Inverse of :func:`encode_boundaries`."""
    if not doc:
        return None
    raw = base64.b64decode(doc["data"])
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).copy()


def partition_row_ranges(
    keys: np.ndarray, boundaries: np.ndarray
) -> "list[tuple[int, int]]":
    """Split one sorted run's rows at the shared boundary keys.

    ``searchsorted(side="left")`` everywhere: rows whose key equals a
    boundary always fall in the range *starting* at that boundary, in
    every run, so equal keys never straddle partitions.
    """
    keys, boundaries = _widen_keys(keys, boundaries)
    cuts = np.searchsorted(keys, boundaries, side="left")
    edges = [0, *(int(c) for c in cuts), int(keys.size)]
    return list(zip(edges[:-1], edges[1:]))


def encode_run_spill(
    rows: "list[tuple]",
    order: str,
    ordered_columns: "list[str]",
    scratch_level: int,
    boundaries: "np.ndarray | None",
    partitions: int,
    meta_index: int = 1,
    scratch_codec: str = "gzip",
) -> dict:
    """Encode one *sorted* run for the scratch store.

    With ``partitions >= 2`` and packable keys, the run is encoded as
    per-key-range sub-chunks (``parts``: one ``(count, {column: blob})``
    per range, blobs None when empty).  ``boundaries=None`` derives the
    shared boundary keys from this run's quantiles and returns them —
    the first run of a sort fixes the key ranges every later run spills
    against.  Unpackable keys (or ``partitions <= 1``) fall back to one
    jumbo chunk per column under ``columns``.

    ``scratch_codec`` is the negotiated spill codec name (``"none"``
    writes the raw frame layout phase 2 can mmap and decode in place;
    see :meth:`SortConfig.resolve_scratch_codec`).
    """
    codec = leveled_codec(scratch_codec, scratch_level)

    def encode_rows(some_rows) -> "dict[str, bytes]":
        return {
            column: write_chunk(
                [row[c_index] for row in some_rows],
                record_type_for_column(column),
                codec=codec,
            )
            for c_index, column in enumerate(ordered_columns)
        }

    keys = None
    if partitions >= 2:
        keys = row_sort_keys(order, rows, meta_index)
    if keys is None:
        return {
            "record_count": len(rows),
            "columns": encode_rows(rows),
            "parts": None,
            "boundaries": None,
        }
    if boundaries is None:
        boundaries = spill_boundaries(keys, partitions)
    parts = [
        (hi - lo, encode_rows(rows[lo:hi]) if hi > lo else None)
        for lo, hi in partition_row_ranges(keys, boundaries)
    ]
    return {
        "record_count": len(rows),
        "columns": None,
        "parts": parts,
        "boundaries": boundaries,
    }


def store_run_spill(scratch: ChunkStore, run_index: int,
                    spill: dict) -> SpilledRun:
    """Write one encoded run spill to the scratch store (caller side —
    worker processes never touch stores).

    Blob values may be ``memoryview``s (raw-framed process-backend
    results delivered as segment views) — stores accept any buffer, and
    the views are consumed here, inside the caller's result lease
    window."""
    nbytes = 0
    if spill["parts"] is None:
        entry = ChunkEntry(
            f"superchunk-{run_index}", 0, spill["record_count"]
        )
        for column, blob in spill["columns"].items():
            scratch.put(entry.chunk_file(column), blob)
            nbytes += len(blob)
        return SpilledRun(entries=[entry], nbytes=nbytes)
    partition_entries: "list[ChunkEntry | None]" = []
    for p, (count, blobs) in enumerate(spill["parts"]):
        if blobs is None:
            partition_entries.append(None)
            continue
        entry = ChunkEntry(f"superchunk-{run_index}-part{p}", 0, count)
        for column, blob in blobs.items():
            scratch.put(entry.chunk_file(column), blob)
            nbytes += len(blob)
        partition_entries.append(entry)
    return SpilledRun(
        entries=[e for e in partition_entries if e is not None],
        partitions=partition_entries,
        nbytes=nbytes,
    )


def sort_run_spill_task(shared, payload) -> dict:
    """Backend task: sort one superchunk run and encode its spill.

    Input is the group's compressed column blobs, so phase 1 of the
    external sort can fan out across processes; the encoded result is
    partition-aware (see :func:`encode_run_spill`).  Picklable both
    ways; the caller writes the returned blobs via
    :func:`store_run_spill` (worker processes must not touch caller-side
    stores).
    """
    (order, ordered_columns, chunk_blobs, scratch_level, boundaries,
     partitions, scratch_codec) = payload
    rows: "list[tuple]" = []
    for blobs in chunk_blobs:
        column_data = [read_chunk(blobs[column]).records
                       for column in ordered_columns]
        rows.extend(zip(*column_data))
    meta_index = metadata_row_index(ordered_columns)
    rows = _sorted_rows(order, rows, meta_index)
    return encode_run_spill(
        rows, order, ordered_columns, scratch_level,
        boundaries, partitions, meta_index, scratch_codec,
    )


def merge_partition_task(shared, payload) -> "list[tuple]":
    """Backend task: merge one key-range partition of the sorted runs.

    ``payload`` carries, per run, the slice of rows whose keys fall in
    this partition's key range.  Each slice is already sorted, so a
    stable argsort over the concatenation (ties keep run order — exactly
    ``heapq.merge``'s tie-break) reproduces the k-way merge for this
    range; partitions concatenated in key order equal the full merge.
    """
    order, rows_slices, meta_index = payload
    flat = [row for rows in rows_slices for row in rows]
    perm = row_sort_permutation(order, flat, meta_index)
    if perm is None:
        return list(heapq.merge(*rows_slices,
                                key=sort_key_for(order, meta_index)))
    return [flat[i] for i in perm]


def merge_partition_blobs_task(shared, payload) -> "list[tuple]":
    """Backend task: merge one key-range partition straight from spilled
    sub-chunk blobs (the spill-locality path).

    ``payload`` carries, per run, *this partition's* sub-chunk of each
    run only (None for runs empty in the range), so a worker decodes
    exactly its own key range of each run — never a whole run.  A value
    is either the blob bytes (gzip/remote scratch) or a
    :class:`SpillFileRef` (the spill-view path): the kernel maps the
    file under a :class:`SpillLease`, decodes records straight from the
    mapped raw frame in one pass, and releases the lease before
    returning — rows own their bytes, the run itself is never
    materialized.  Semantics are identical to
    :func:`merge_partition_task` over the decoded slices.
    """
    order, ordered_columns, blob_maps, meta_index = payload
    rows_slices: "list[list[tuple]]" = []
    for blobs in blob_maps:
        if blobs is None:
            continue
        leases: "list[SpillLease]" = []
        column_data = []
        try:
            for column in ordered_columns:
                blob = blobs[column]
                if isinstance(blob, SpillFileRef):
                    blob, lease = open_spill_ref(blob)
                    leases.append(lease)
                column_data.append(read_chunk(blob).records)
        finally:
            for lease in leases:
                lease.release()
        rows_slices.append(list(zip(*column_data)))
    flat = [row for rows in rows_slices for row in rows]
    perm = row_sort_permutation(order, flat, meta_index)
    if perm is None:
        return list(heapq.merge(*rows_slices,
                                key=sort_key_for(order, meta_index)))
    return [flat[i] for i in perm]


def sort_dataset(
    dataset: AGDDataset,
    output_store: ChunkStore,
    config: "SortConfig | None" = None,
    scratch_store: "ChunkStore | None" = None,
    backend=None,
    counters: "dict | None" = None,
) -> AGDDataset:
    """Sort a dataset into ``output_store``; returns the sorted dataset.

    Phase 1 reads ``chunks_per_superchunk`` chunks at a time, sorts their
    rows, and writes each sorted run as a *superchunk* into the scratch
    store.  Phase 2 k-way-merges the runs and emits final chunks.

    ``backend`` (a :class:`~repro.dataflow.backends.Backend`) fans the
    independent phase-1 run sorts out across workers and splits phase 2
    into partitioned merge kernels (see
    :data:`SortConfig.merge_partitions`); ``None`` keeps the sequential
    single-kernel path.  Output bytes are identical either way.

    ``counters`` (optional dict) accumulates the memory-plane
    accounting: ``spill_view_bytes``/``decode_copies`` from spill
    restore (see :func:`_credit_spill`) plus the backend's result-path
    deltas (``result_view_bytes``/``result_copies``).
    """
    config = config or SortConfig()
    if config.chunks_per_superchunk <= 0:
        raise ValueError("chunks_per_superchunk must be positive")
    manifest = dataset.manifest
    columns = list(manifest.columns)
    if config.order == "location" and "results" not in columns:
        raise ValueError("location sort needs a results column; align first")
    scratch = scratch_store if scratch_store is not None else MemoryStore()
    # Row layout: (results, metadata, bases, qual, <extra...>) so the key
    # function can address results/metadata positionally.
    ordered_columns = _key_first_columns(columns)
    key_fn = sort_key_for(config.order, metadata_row_index(ordered_columns))

    # ---------------------------------------------------- phase 1: runs
    groups: list[list[int]] = [
        list(range(start, min(start + config.chunks_per_superchunk,
                              manifest.num_chunks)))
        for start in range(0, manifest.num_chunks,
                           config.chunks_per_superchunk)
    ]
    merge_partitions = config.resolve_merge_partitions(backend)
    scratch_codec = config.resolve_scratch_codec(scratch)
    if backend is None:
        runs: "list" = [
            _write_run(dataset, group, ordered_columns, key_fn,
                       scratch, run_index, config, scratch_codec)
            for run_index, group in enumerate(groups)
        ]
    else:
        from repro.dataflow.backends import run_in_waves

        def group_payload(boundaries, partitions):
            def payload(group: "list[int]"):
                return (
                    config.order,
                    ordered_columns,
                    [
                        {column: dataset.store.get(
                            manifest.chunks[i].chunk_file(column))
                         for column in ordered_columns}
                        for i in group
                    ],
                    config.scratch_codec_level,
                    boundaries,
                    partitions,
                    scratch_codec,
                )
            return payload

        runs = []
        rest = groups
        rest_partitions = merge_partitions
        boundaries = None
        result_snapshot = _result_stats_snapshot(backend)
        if merge_partitions >= 2 and groups:
            # The first run alone fixes the shared key-range boundaries
            # every run spills against (spill locality: each phase-2
            # merge kernel will read only its own range of every run).
            [spill] = backend.run_chunk(
                sort_run_spill_task,
                [group_payload(None, merge_partitions)(groups[0])],
            )
            boundaries = spill["boundaries"]
            runs.append(store_run_spill(scratch, 0, spill))
            rest = groups[1:]
            if boundaries is None:
                # Unpackable keys: no shared ranges exist; later runs
                # must not invent their own.
                rest_partitions = 1
        # Waved dispatch keeps the external sort's bounded memory: only
        # a couple of chunk groups per worker are resident at a time.
        for _group, _payload, spill in run_in_waves(
            backend, sort_run_spill_task, rest,
            group_payload(boundaries, rest_partitions),
        ):
            runs.append(store_run_spill(scratch, len(runs), spill))
        _credit_result_stats(counters, backend, result_snapshot)

    # --------------------------------------------------- phase 2: merge
    out_chunk_size = config.output_chunk_size or (
        manifest.chunks[0].record_count if manifest.chunks else 1
    )
    entries = [
        entry
        for entry, _columns in iter_merged_chunks(
            scratch, runs, ordered_columns, config.order,
            out_chunk_size, manifest.name, output_store,
            backend=backend,
            merge_partitions=merge_partitions,
            out_codec=config.output_codec(),
            counters=counters,
        )
    ]
    sorted_manifest = build_sorted_manifest(
        manifest.name, columns, entries, manifest.reference, config.order
    )
    return AGDDataset(sorted_manifest, output_store)


def _partition_bounds(
    key_arrays: "list[np.ndarray]", partitions: int
) -> "list[list[tuple[int, int]]]":
    """Split the key space into ``<= partitions`` contiguous ranges.

    Boundary keys are drawn from the global sorted key distribution so
    ranges carry roughly equal row counts; for location order the packed
    keys put the contig in the high bits, so ranges are per-contig-range
    splits whenever contigs dominate the distribution.  Equal keys never
    straddle a boundary (``searchsorted`` side="left" on every run), so
    each partition is a self-contained merge.
    """
    if key_arrays and key_arrays[0].dtype.kind == "S":
        width = max(a.dtype.itemsize for a in key_arrays)
        key_arrays = [a.astype(f"S{width}") for a in key_arrays]
    total = sum(a.size for a in key_arrays)
    if total == 0 or partitions <= 1:
        return [[(0, a.size) for a in key_arrays]]
    merged = np.sort(np.concatenate(key_arrays), kind="stable")
    boundaries = []
    for k in range(1, partitions):
        b = merged[(total * k) // partitions]
        if not boundaries or b != boundaries[-1]:
            boundaries.append(b)
    bounds: list[list[tuple[int, int]]] = []
    lows = [0] * len(key_arrays)
    for b in boundaries:
        part = []
        for r, keys in enumerate(key_arrays):
            hi = int(np.searchsorted(keys, b, side="left"))
            part.append((lows[r], hi))
            lows[r] = hi
        bounds.append(part)
    bounds.append([(lows[r], a.size) for r, a in enumerate(key_arrays)])
    return bounds


def _spill_partition_count(runs: "list[SpilledRun]") -> "int | None":
    """Shared partition count when EVERY run was spilled partitioned at
    the same boundaries (partition lists are index-aligned); None when
    any run is a whole-run spill (mixed spills merge via full-run
    iteration instead)."""
    counts = {len(run.partitions) for run in runs
              if run.partitions is not None}
    if len(counts) != 1 or any(run.partitions is None for run in runs):
        return None
    return counts.pop()


def _merged_row_iter(
    scratch: ChunkStore,
    runs: "list",
    ordered_columns: "list[str]",
    order: str,
    backend,
    merge_partitions: int,
    counters: "dict | None" = None,
):
    """Rows of all runs in globally sorted order.

    Spill-locality path (partition-spilled runs + a backend): dispatch
    one :func:`merge_partition_blobs_task` per key range, each decoding
    only its own sub-chunks of every run.  On a local scratch directory
    the payload per sub-chunk is a :class:`SpillFileRef` — the kernel
    mmaps the raw frame and decodes it in place; otherwise the blob
    bytes ship as before.  Legacy partitioned path (whole-run spills):
    decode each run in the caller, slice at shared boundaries, dispatch
    :func:`merge_partition_task` per range.  Either way, chaining the
    ranges in key order reproduces the single-kernel merge exactly;
    ``heapq.merge`` remains the fallback when no backend is given, a
    single partition is requested, or keys are not packable.
    """
    meta_index = metadata_row_index(ordered_columns)
    runs = [_as_spilled(run) for run in runs]
    source = _SpillSource(scratch)
    if backend is None or merge_partitions <= 1 or not runs:
        streams = [
            _RunReader(scratch, run.entries, ordered_columns,
                       source=source, counters=counters)
            for run in runs
        ]
        return heapq.merge(*streams, key=sort_key_for(order, meta_index))
    spill_partitions = _spill_partition_count(runs)
    if spill_partitions is not None:
        payloads = []
        for p in range(spill_partitions):
            blob_maps = []
            for run in runs:
                if run.partitions[p] is None:
                    blob_maps.append(None)
                    continue
                blobs = {}
                for column in ordered_columns:
                    chunk_file = run.partitions[p].chunk_file(column)
                    blob = source.ref(chunk_file)
                    if blob is None:
                        blob = scratch.get(chunk_file)
                    _credit_spill(counters, _spill_header(blob))
                    blobs[column] = blob
                blob_maps.append(blobs)
            payloads.append((order, ordered_columns, blob_maps, meta_index))
        result_snapshot = _result_stats_snapshot(backend)
        results = backend.run_chunk(merge_partition_blobs_task, payloads)
        _credit_result_stats(counters, backend, result_snapshot)
        return itertools.chain.from_iterable(results)
    run_rows: list[list[tuple]] = []
    key_arrays: list[np.ndarray] = []
    packable = True
    for run in runs:
        rows = list(_RunReader(scratch, run.entries, ordered_columns,
                               source=source, counters=counters))
        run_rows.append(rows)
        if packable:
            keys = row_sort_keys(order, rows, meta_index)
            if keys is None:
                packable = False
            else:
                key_arrays.append(keys)
    if not packable:
        return heapq.merge(*run_rows, key=sort_key_for(order, meta_index))
    bounds = _partition_bounds(key_arrays, merge_partitions)
    payloads = [
        (order,
         [rows[lo:hi] for rows, (lo, hi) in zip(run_rows, part)],
         meta_index)
        for part in bounds
    ]
    result_snapshot = _result_stats_snapshot(backend)
    results = backend.run_chunk(merge_partition_task, payloads)
    _credit_result_stats(counters, backend, result_snapshot)
    return itertools.chain.from_iterable(results)


def iter_merged_chunks(
    scratch: ChunkStore,
    runs: "list",  # entry lists, SpilledRun, or SortRun items (normalized)
    ordered_columns: "list[str]",
    order: str,
    out_chunk_size: int,
    dataset_name: str,
    output_store: ChunkStore,
    backend=None,
    merge_partitions: int = 1,
    out_codec: "Codec | str" = DEFAULT_CODEC,
    counters: "dict | None" = None,
):
    """Phase 2 of the external sort: merge sorted runs and write final
    chunks; yields ``(entry, columns)`` per chunk written.

    Shared by the eager :func:`sort_dataset` and the streaming
    :class:`~repro.core.ops.SuperchunkMergeNode` so the two paths'
    chunk naming, ordinals, and bytes cannot drift apart.  With a
    ``backend`` and ``merge_partitions >= 2`` the merge itself runs as
    partitioned kernels (see :func:`_merged_row_iter`); chunk emission
    is unchanged either way.  ``counters`` accumulates the restore-side
    memory-plane accounting (see :func:`_credit_spill`).
    """
    merged = _merged_row_iter(
        scratch, runs, ordered_columns, order, backend, merge_partitions,
        counters=counters,
    )
    sorted_name = f"{dataset_name}-sorted"
    buffer: list[tuple] = []
    total = 0
    index = 0

    def flush() -> "tuple[ChunkEntry, dict[str, list]]":
        nonlocal index
        entry = ChunkEntry(
            f"{sorted_name}-{index}", total - len(buffer), len(buffer)
        )
        out_columns: dict[str, list] = {}
        for c_index, column in enumerate(ordered_columns):
            records = [row[c_index] for row in buffer]
            blob = write_chunk(
                records,
                record_type_for_column(column),
                first_ordinal=entry.first_ordinal,
                codec=out_codec,
            )
            output_store.put(entry.chunk_file(column), blob)
            out_columns[column] = records
        index += 1
        buffer.clear()
        return entry, out_columns

    for row in merged:
        buffer.append(row)
        total += 1
        if len(buffer) == out_chunk_size:
            yield flush()
    if buffer:
        yield flush()


def build_sorted_manifest(
    dataset_name: str,
    columns: "list[str]",
    entries: "list[ChunkEntry]",
    reference: "list[dict] | None",
    order: str,
) -> Manifest:
    """The manifest both sort paths emit for their sorted output."""
    return Manifest(
        name=f"{dataset_name}-sorted",
        columns=sorted(columns),
        chunks=entries,
        reference=reference or [],
        sort_order=order,
    )


def _key_first_columns(columns: list[str]) -> list[str]:
    """Order columns so rows are (results, metadata, rest...)."""
    rest = [c for c in columns if c not in ("results", "metadata")]
    ordered = []
    if "results" in columns:
        ordered.append("results")
    if "metadata" in columns:
        ordered.append("metadata")
    return ordered + sorted(rest)


def _write_run(
    dataset: AGDDataset,
    chunk_indices: list[int],
    ordered_columns: list[str],
    key_fn: Callable,
    scratch: ChunkStore,
    run_index: int,
    config: "SortConfig | None" = None,
    scratch_codec: "str | None" = None,
) -> list[ChunkEntry]:
    """Sort a group of chunks into one superchunk (a sorted run)."""
    config = config or SortConfig()
    if scratch_codec is None:
        scratch_codec = config.resolve_scratch_codec(scratch)
    rows: list[tuple] = []
    for chunk_index in chunk_indices:
        column_data = [
            dataset.read_chunk(column, chunk_index).records
            for column in ordered_columns
        ]
        rows.extend(zip(*column_data))
    rows = _sorted_rows(config.order, rows,
                        metadata_row_index(ordered_columns))
    # A superchunk is stored as one jumbo chunk per column.
    entry = ChunkEntry(f"superchunk-{run_index}", 0, len(rows))
    codec = config.scratch_codec(scratch_codec)
    for c_index, column in enumerate(ordered_columns):
        records = [row[c_index] for row in rows]
        blob = write_chunk(records, record_type_for_column(column),
                           codec=codec)
        scratch.put(entry.chunk_file(column), blob)
    return [entry]


class _RunReader:
    """Streams rows of one sorted run for the merge heap.

    On a local scratch directory each entry's columns are mmap'ed under
    :class:`SpillLease` guards and decoded straight from the mapped
    frames (records own their bytes after the one decode pass, so the
    leases release before the rows are yielded); otherwise blobs are
    read through ``scratch.get`` as before.
    """

    def __init__(
        self,
        scratch: ChunkStore,
        entries: list[ChunkEntry],
        ordered_columns: list[str],
        source: "_SpillSource | None" = None,
        counters: "dict | None" = None,
    ):
        self._scratch = scratch
        self._entries = entries
        self._columns = ordered_columns
        self._source = source if source is not None else _SpillSource(scratch)
        self._counters = counters

    def __iter__(self):
        for entry in self._entries:
            leases: "list[SpillLease]" = []
            column_data = []
            try:
                for column in self._columns:
                    buf, lease = self._source.open(entry.chunk_file(column))
                    if lease is not None:
                        leases.append(lease)
                    _credit_spill(self._counters, read_chunk_header(buf))
                    column_data.append(read_chunk(buf).records)
            finally:
                for lease in leases:
                    lease.release()
            yield from zip(*column_data)


def verify_sorted(dataset: AGDDataset, order: str = "location") -> bool:
    """Check a dataset's rows are in the claimed order (test helper)."""
    ordered_columns = _key_first_columns(list(dataset.manifest.columns))
    key_fn = sort_key_for(order, metadata_row_index(ordered_columns))
    previous = None
    for chunk_index in range(dataset.num_chunks):
        column_data = [
            dataset.read_chunk(column, chunk_index).records
            for column in ordered_columns
        ]
        for row in zip(*column_data):
            key = key_fn(row)
            if previous is not None and key < previous:
                return False
            previous = key
    return True
