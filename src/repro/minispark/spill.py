"""Out-of-core shuffle: memory budgets and checksummed spill segments.

minispark historically kept every materialized shuffle bucket in driver
memory, which caps dataset size long before the join algorithms become
the bottleneck.  This module adds the missing memory/disk failure domain:

:class:`SpillManager`
    Owns a configurable shuffle memory budget
    (``Context(memory_budget_bytes=...)``).  While merging a map stage's
    buckets the scheduler *charges* each in-memory bucket's estimated
    pickled size against the budget; a bucket that no longer fits is
    written to disk instead of being charged, so the tracked shuffle
    footprint never exceeds the budget (``peak_tracked_bytes`` proves
    it).  Workers whose task output is large spill *before* returning,
    so on the processes backend only lightweight :class:`SpilledBucket`
    refs cross the result pipe.

Segment files
    One spilled bucket is one or more *segment files*: length-prefixed
    pickle frames followed by a record count and a full-file CRC32
    (format below).  Unlike the in-memory shuffle checksum — which
    stride-samples records and can therefore miss a corrupt unsampled
    record — spilled data is fingerprinted byte-exactly on write and
    re-verified on every read-back and every revalidation, so deletion,
    truncation, and single-byte corruption are all detected.

Recovery contract
    A spilled segment that fails validation makes the whole shuffle
    invalid, which funnels into the exact lineage-recomputation path
    that in-memory shuffle loss already takes (PR 3): the scheduler
    invalidates the dependency, recomputes the map stage, and records a
    ``stages_recomputed`` event.  Disk faults are therefore *always*
    recoverable — no retry budget needed — because they are detected
    before any task consumes the data.

Degradation ladder
    An injected write fault (:class:`~repro.minispark.chaos
    .ChaosDiskError`, seeded by ``FaultPlan.spill_write_error_rate``) is
    retried up to the plan's ``max_faults_per_task`` cap, so chaos plans
    stay completable.  A *genuine* ``OSError`` (ENOSPC and friends)
    permanently disables spilling: the manager falls back to
    in-memory-only buckets — possibly exceeding the budget, but never
    crashing — and records a ``spill -> memory`` fallback in the
    :class:`~repro.minispark.metrics.MetricsCollector`.

Segment file format (all integers little-endian)::

    magic   b"RSPL1\\0"
    frames  repeated: <u32 payload length> <pickled list of records>
    end     <u32 0>                 (zero-length frame terminates)
    count   <u64 total record count>
    crc     <u32 CRC32 of every preceding byte>
"""

from __future__ import annotations

import errno
import os
import pickle
import shutil
import struct
import tempfile
import threading
import zlib
from dataclasses import dataclass, field

from .broadcast import handles_only
from .chaos import ChaosDiskError

#: Segment file header; the trailing byte versions the layout.
SEGMENT_MAGIC = b"RSPL1\x00"

#: Records pickled per length-prefixed frame: bounds both the write-side
#: buffer and the read-side working set of a streamed segment.
FRAME_RECORDS = 512

#: Chaos damage kinds a :class:`~repro.minispark.chaos.FaultPlan` can
#: inflict on a spilled segment (``spill_fault_rate``).
SPILL_FAULT_KINDS = ("delete", "corrupt", "truncate")

#: Re-opens of a segment after a transient ``OSError`` before giving up.
READ_RETRIES = 2

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Errors meaning "this record cannot be pickled" (mirrors the
#: scheduler's byte estimator) — everything else must surface.
_UNPICKLABLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


class SpillError(RuntimeError):
    """Base class of spill-subsystem failures."""


class SpillCorruptionError(SpillError):
    """A segment file is missing, truncated, or fails its CRC32."""


@dataclass
class Segment:
    """One checksummed segment file of a spilled bucket.

    Pure picklable data — workers on the processes backend send these
    through the result pipe instead of bucket payloads.  ``key`` is the
    stable logical identity chaos decisions are seeded on (the manager
    tracks per-key fault epochs, so a recomputed stage's rewritten
    segments are never damaged twice and plans stay completable).
    """

    path: str
    key: str
    records: int
    nbytes: int
    crc: int


class SpilledBucket:
    """A shuffle bucket whose records live in segment files on disk.

    Drop-in for the in-memory ``list`` bucket wherever the engine only
    needs ``len()`` and iteration — ``ShuffledRDD``/``CoGroupedRDD``
    stream records straight from disk, re-verifying each segment's
    full-file CRC32 as they go.
    """

    __slots__ = ("segments", "records")

    def __init__(self, segments: list, records: int):
        self.segments = segments
        self.records = records

    def __len__(self) -> int:
        return self.records

    def __iter__(self):
        for segment in self.segments:
            yield from read_segment(segment)

    def __repr__(self) -> str:
        return (
            f"SpilledBucket(records={self.records}, "
            f"segments={len(self.segments)}, nbytes={self.nbytes})"
        )

    @property
    def nbytes(self) -> int:
        """Exact on-disk size — no sampling blind spot for spilled data."""
        return sum(segment.nbytes for segment in self.segments)

    def fingerprint(self) -> list:
        """Per-segment ``(records, nbytes, crc)`` triples for checksums."""
        return [(s.records, s.nbytes, s.crc) for s in self.segments]

    def validate(self) -> bool:
        """Re-read every segment from disk and verify its full CRC32."""
        return all(validate_segment(segment) for segment in self.segments)

    def delete(self) -> None:
        """Best-effort removal of the underlying segment files."""
        for segment in self.segments:
            try:
                os.remove(segment.path)
            except OSError:
                pass


# --------------------------------------------------------- segment files


def write_segment(path: str, key: str, parts: list) -> Segment:
    """Write one segment file from re-iterable record containers.

    ``parts`` is a sequence of lists (or other re-iterable containers)
    whose records are concatenated in order — the caller retries with
    the same parts after an injected write fault.  Frames are flushed
    every :data:`FRAME_RECORDS` records so peak write-side memory is one
    frame, not one bucket.  Raises ``OSError`` on I/O failure (caller
    handles degradation); the partial file is removed first on *any*
    exception, including unpicklable records.
    """
    crc = 0
    nbytes = 0
    records = 0
    try:
        with open(path, "wb") as handle:

            def put(data: bytes):
                nonlocal crc, nbytes
                handle.write(data)
                crc = zlib.crc32(data, crc)
                nbytes += len(data)

            put(SEGMENT_MAGIC)
            # handles_only: broadcast payloads are never spilled — a
            # broadcast handle inside a record frames as a registry
            # reference, resolved from the live registry on read-back,
            # so the spill budget sees each broadcast exactly 0 times.
            with handles_only():
                frame: list = []
                for part in parts:
                    for record in part:
                        frame.append(record)
                        if len(frame) >= FRAME_RECORDS:
                            payload = pickle.dumps(
                                frame, pickle.HIGHEST_PROTOCOL
                            )
                            put(_U32.pack(len(payload)))
                            put(payload)
                            records += len(frame)
                            frame = []
                if frame:
                    payload = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                    put(_U32.pack(len(payload)))
                    put(payload)
                    records += len(frame)
            put(_U32.pack(0))
            put(_U64.pack(records))
            handle.write(_U32.pack(crc))
            nbytes += _U32.size
    except BaseException:
        try:
            os.remove(path)
        except OSError:
            pass
        raise
    return Segment(path=path, key=key, records=records, nbytes=nbytes,
                   crc=crc)


def read_segment(segment: Segment):
    """Stream a segment's records, re-verifying the full-file CRC32.

    Yields records frame by frame (bounded working set) while folding
    every byte into a running CRC; the stored footer *and* the driver's
    copy of the metadata must both match, so corruption between
    revalidation and read still surfaces before the consuming task can
    succeed.  Transient ``OSError`` on open/read is retried
    :data:`READ_RETRIES` times (counted in the module-wide
    ``spill_read_retries``); missing files and checksum mismatches raise
    :class:`SpillCorruptionError`.
    """
    attempt = 0
    while True:
        try:
            yield from _read_segment_once(segment)
            return
        except OSError as exc:
            if isinstance(exc, FileNotFoundError):
                raise SpillCorruptionError(
                    f"spill segment {segment.key} vanished: {segment.path}"
                ) from exc
            if attempt >= READ_RETRIES:
                raise
            attempt += 1
            _count_read_retry()


def _read_segment_once(segment: Segment):
    crc = 0
    nbytes = 0
    with open(segment.path, "rb") as handle:

        def pull(size: int, what: str) -> bytes:
            nonlocal crc, nbytes
            data = handle.read(size)
            if len(data) != size:
                raise SpillCorruptionError(
                    f"spill segment {segment.key} truncated "
                    f"({what} at byte {nbytes}): {segment.path}"
                )
            crc = zlib.crc32(data, crc)
            nbytes += size
            return data

        if pull(len(SEGMENT_MAGIC), "magic") != SEGMENT_MAGIC:
            raise SpillCorruptionError(
                f"spill segment {segment.key} has a bad header: "
                f"{segment.path}"
            )
        records = 0
        while True:
            (length,) = _U32.unpack(pull(_U32.size, "frame length"))
            if length == 0:
                break
            frame = pickle.loads(pull(length, "frame"))
            records += len(frame)
            yield from frame
        (count,) = _U64.unpack(pull(_U64.size, "record count"))
        footer = handle.read(_U32.size)
        if len(footer) != _U32.size:
            raise SpillCorruptionError(
                f"spill segment {segment.key} truncated (missing CRC): "
                f"{segment.path}"
            )
        (stored_crc,) = _U32.unpack(footer)
        if (
            count != records
            or stored_crc != crc
            or crc != segment.crc
            or records != segment.records
        ):
            raise SpillCorruptionError(
                f"spill segment {segment.key} failed CRC32 validation: "
                f"{segment.path}"
            )


def validate_segment(segment: Segment) -> bool:
    """Byte-stream a segment (no unpickling) and check its full CRC32."""
    try:
        with open(segment.path, "rb") as handle:
            crc = 0
            nbytes = 0
            while True:
                chunk = handle.read(1 << 16)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                nbytes += len(chunk)
    except OSError:
        return False
    if nbytes != segment.nbytes or nbytes < _U32.size:
        return False
    # The file-level CRC covers everything before the 4-byte footer; the
    # footer itself must echo it.  Recompute by folding out the tail.
    body_crc = 0
    try:
        with open(segment.path, "rb") as handle:
            remaining = nbytes - _U32.size
            while remaining:
                chunk = handle.read(min(1 << 16, remaining))
                if not chunk:
                    return False
                body_crc = zlib.crc32(chunk, body_crc)
                remaining -= len(chunk)
            (stored_crc,) = _U32.unpack(handle.read(_U32.size))
    except OSError:
        return False
    return body_crc == segment.crc == stored_crc


def damage_segment(path: str, kind: str) -> None:
    """Inflict one chaos disk fault on a segment file (test/chaos hook)."""
    if kind == "delete":
        try:
            os.remove(path)
        except OSError:
            pass
        return
    try:
        size = os.path.getsize(path)
        if kind == "truncate":
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
            return
        if kind == "corrupt":
            with open(path, "r+b") as handle:
                handle.seek(size // 2)
                byte = handle.read(1) or b"\x00"
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]))
            return
    except OSError:
        return
    raise ValueError(
        f"unknown spill fault kind {kind!r}; choose from {SPILL_FAULT_KINDS}"
    )


def discard_spill_refs(value) -> None:
    """Delete segment files referenced by a discarded task result.

    Speculation losers and superseded worker results may carry
    :class:`SpilledBucket` refs that will never be adopted into a
    shuffle's outputs; executors call this so their files do not linger
    until the end-of-join cleanup.  Walks one container level — task
    values are ``(count, buckets)`` tuples — and ignores everything
    else.
    """
    if isinstance(value, SpilledBucket):
        value.delete()
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            if isinstance(item, SpilledBucket):
                item.delete()
            elif isinstance(item, (tuple, list)):
                for nested in item:
                    if isinstance(nested, SpilledBucket):
                        nested.delete()


def sampled_records_bytes(buckets: list, sample: int) -> int:
    """Stride-sampled pickled size of in-memory buckets (global mean).

    The exact math of the scheduler's historical estimator, factored out
    so spill decisions and ``StageMetrics.shuffle_bytes`` agree: up to
    ``sample`` records per bucket are pickled at a fixed stride and the
    mean record size is extrapolated to the full record count.
    """
    if sample <= 0:
        return 0
    total_records = sum(len(bucket) for bucket in buckets)
    if total_records == 0:
        return 0
    measured_bytes = 0
    measured = 0
    # handles_only: a broadcast handle inside a sampled record measures
    # as its reference size, so broadcast payloads inflate neither
    # ``shuffle_bytes`` nor spill decisions (they are accounted in
    # ``broadcast_bytes``).
    with handles_only():
        for bucket in buckets:
            size = len(bucket)
            if size == 0:
                continue
            stride = max(1, -(-size // sample))  # ceil: <= `sample` probes
            for index in range(0, size, stride):
                try:
                    measured_bytes += len(
                        pickle.dumps(bucket[index], pickle.HIGHEST_PROTOCOL)
                    )
                except _UNPICKLABLE_ERRORS:
                    continue
                measured += 1
    if measured == 0:
        return 0
    return round(total_records * (measured_bytes / measured))


# ------------------------------------------------------------- manager


@dataclass
class SpillCounters:
    """Lifetime spill accounting (survives :meth:`SpillManager.cleanup`)."""

    spilled_bytes: int = 0  # bytes of segments adopted into shuffle outputs
    spill_files: int = 0  # segment files adopted into shuffle outputs
    write_errors: int = 0  # injected ChaosDiskError write faults absorbed
    memory_fallbacks: int = 0  # buckets kept in memory after write failure
    faults_injected: int = 0  # chaos disk faults inflicted on segments
    peak_tracked_bytes: int = 0  # high-water mark of the charged budget


# Read retries are counted module-wide: segment reads happen inside task
# bodies (any backend) where no manager reference is in scope.  Forked
# workers increment their own copy, so the processes backend reports
# driver-side retries only — documented best-effort.
_read_retry_lock = threading.Lock()
_read_retries_total = 0


def _count_read_retry() -> None:
    global _read_retries_total
    with _read_retry_lock:
        _read_retries_total += 1


def read_retries_total() -> int:
    """Module-wide transient-read-retry count (driver process)."""
    with _read_retry_lock:
        return _read_retries_total


class SpillManager:
    """Tracks the shuffle memory budget and owns the spill directory.

    Created by :class:`~repro.minispark.context.Context` when
    ``memory_budget_bytes`` is set; ``None`` budget means unbounded (the
    manager then never auto-spills, but explicit writes still work for
    tests).  All state mutation is lock-guarded — the threads backend
    spills from concurrent task threads.  The manager itself never
    crosses a process boundary: forked workers inherit it and write to
    the shared directory; only :class:`SpilledBucket` refs come back.
    """

    def __init__(
        self,
        budget_bytes: int | None,
        directory: str | os.PathLike | None = None,
        *,
        chaos=None,
        metrics=None,
        tracer=None,
    ):
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(
                f"memory_budget_bytes must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self.chaos = chaos
        self.metrics = metrics
        self.tracer = tracer
        self.counters = SpillCounters()
        self.disabled = False  # genuine disk failure: in-memory-only mode
        self._base_dir = os.fspath(directory) if directory is not None else None
        self._dir: str | None = None
        self._lock = threading.Lock()
        self._seq = 0
        self._tracked = 0
        #: (id(outputs list), bucket index) -> charged bytes, plus a
        #: strong ref per outputs list so ``id`` stays unambiguous.
        self._charges: dict = {}
        self._pinned: dict = {}
        self._write_faults: dict = {}
        #: segment key -> chaos fault epoch.  Keyed on the *logical* key
        #: (not the Segment object) so a recomputed stage's rewritten
        #: segments count as epoch >= 1 and are never damaged again.
        self._fault_epochs: dict = {}

    # ------------------------------------------------------------ state

    @property
    def active(self) -> bool:
        """Whether a budget is configured (auto-spill decisions apply)."""
        return self.budget_bytes is not None

    @property
    def tracked_bytes(self) -> int:
        """Charged in-memory shuffle bytes right now (never over budget
        unless a genuine disk failure forced in-memory fallback)."""
        with self._lock:
            return self._tracked

    def directory(self) -> str:
        """The manager's private spill directory, created on first use."""
        with self._lock:
            if self._dir is None or not os.path.isdir(self._dir):
                if self._base_dir is not None:
                    os.makedirs(self._base_dir, exist_ok=True)
                    self._dir = tempfile.mkdtemp(
                        prefix="spill-", dir=self._base_dir
                    )
                else:
                    self._dir = tempfile.mkdtemp(prefix="repro-spill-")
            return self._dir

    def _next_path(self, key: str) -> str:
        with self._lock:
            self._seq += 1
            seq = self._seq
        safe = key.replace("/", "-")
        # The pid disambiguates forked workers and driver-side
        # speculative duplicates, whose counters diverged at fork time.
        return os.path.join(
            self.directory(), f"{safe}-{os.getpid()}-{seq}.seg"
        )

    # ----------------------------------------------------------- writes

    def _write_with_chaos(self, key: str, parts: list) -> Segment | None:
        """One segment write, absorbing injected faults up to the cap.

        Returns ``None`` after a *genuine* ``OSError`` — the caller
        keeps the bucket in memory (degradation, recorded once).
        """
        while True:
            if self.chaos is not None:
                with self._lock:
                    attempt = self._write_faults.get(key, 0)
                if self.chaos.spill_write_error(key, attempt):
                    with self._lock:
                        self._write_faults[key] = attempt + 1
                        self.counters.write_errors += 1
                    continue  # seeded cap guarantees a clean attempt
            try:
                return write_segment(self._next_path(key), key, parts)
            except ChaosDiskError:
                # Defensive: injected errors normally short-circuit above.
                with self._lock:
                    self.counters.write_errors += 1
                continue
            except OSError as exc:
                self._disable(exc)
                return None
            except _UNPICKLABLE_ERRORS:
                # A record that refuses to pickle cannot spill at all;
                # keep the bucket in memory (best-effort budget).
                with self._lock:
                    self.counters.memory_fallbacks += 1
                return None

    def _disable(self, exc: OSError) -> None:
        reason = (
            "disk full" if exc.errno == errno.ENOSPC else f"{exc!r}"
        )
        with self._lock:
            first = not self.disabled
            self.disabled = True
            self.counters.memory_fallbacks += 1
        if first:
            if self.metrics is not None:
                self.metrics.record_fallback(
                    "spill", "memory",
                    f"spill write failed ({reason}); shuffle buckets stay "
                    "in memory and the budget is best-effort",
                )
            if self.tracer is not None:
                self.tracer.instant(
                    "spill_fallback", "fallback", reason=reason
                )

    def spill_bucket(self, key: str, parts: list) -> SpilledBucket | None:
        """Write one bucket's parts to a fresh segment (driver side)."""
        segment = self._write_with_chaos(key, parts)
        if segment is None:
            return None
        return SpilledBucket([segment], segment.records)

    # ----------------------------------------------------- worker spill

    def task_spill_threshold(self) -> int:
        """Task outputs above this estimated size return spill refs."""
        if self.budget_bytes is None:
            return 1 << 62
        return max(1, self.budget_bytes // 8)

    def spill_task_outputs(self, prefix: str, index: int,
                           attempt_outputs: list) -> list:
        """Replace a map task's non-empty buckets with segment refs.

        Runs inside the task (any backend; in the forked child on
        processes), so a failed attempt cleans up its own partial
        segments before the retry loop sees the error.  Segments written
        here are *not* counted into the adopted totals — the driver
        counts every segment exactly once when it merges the stage.
        """
        spilled: list = []
        written: list = []
        try:
            for bucket_index, bucket in enumerate(attempt_outputs):
                if not bucket:
                    spilled.append([])
                    continue
                key = f"{prefix}/p{bucket_index}/t{index}"
                segment = self._write_with_chaos(key, [bucket])
                if segment is None:  # genuine disk failure: keep payload
                    spilled.append(bucket)
                    continue
                written.append(segment)
                spilled.append(SpilledBucket([segment], segment.records))
        except BaseException:
            for segment in written:
                try:
                    os.remove(segment.path)
                except OSError:
                    pass
            raise
        return spilled

    # ------------------------------------------------------ stage merge

    def merge_bucket(self, key: str, outputs: list, index: int,
                     parts: list, sample: int):
        """Merge one output bucket's per-task parts under the budget.

        ``parts`` holds each task's contribution in partition order —
        plain lists, or :class:`SpilledBucket` refs from tasks that
        already spilled.  The merged bucket is appended to ``outputs``
        (so charges can be keyed on the final list identity):

        * any spilled part forces the disk representation — refs are
          adopted as-is and in-memory parts are written as additional
          segments, preserving task order;
        * an all-in-memory bucket is charged against the budget if it
          fits, else written to a single streaming segment (parts are
          never concatenated first).

        The tracked footprint can only grow by buckets that fit, so
        ``peak_tracked_bytes`` stays under the budget — except after a
        genuine disk failure, where buckets fall back to memory and the
        overshoot is recorded as a fallback.
        """
        has_refs = any(isinstance(part, SpilledBucket) for part in parts)
        if has_refs:
            outputs.append(self._merge_spilled(key, index, parts))
            return
        est = sampled_records_bytes(parts, sample)
        over = (
            self.active
            and self._tracked + est > self.budget_bytes
        )
        if over and not self.disabled and any(len(p) for p in parts):
            bucket = self.spill_bucket(f"{key}/b{index}", parts)
            if bucket is not None:
                self._adopt(bucket)
                outputs.append(bucket)
                return
        merged: list = []
        for part in parts:
            merged.extend(part)
        outputs.append(merged)
        if merged:
            self._charge(outputs, index, est)

    def _merge_spilled(self, key: str, index: int, parts: list):
        segments: list = []
        records = 0
        pending: list = []  # consecutive in-memory parts between refs
        memory_tail: list = []  # fallback payloads after a disk failure

        def flush_pending():
            nonlocal records
            if not any(len(p) for p in pending):
                pending.clear()
                return
            segment = self._write_with_chaos(
                f"{key}/b{index}/m{len(segments)}", list(pending)
            )
            if segment is None:
                for part in pending:
                    memory_tail.extend(part)
            else:
                segments.append(segment)
                records += segment.records
            pending.clear()

        for part in parts:
            if isinstance(part, SpilledBucket):
                flush_pending()
                if memory_tail:
                    # A genuine disk failure interleaved with refs: give
                    # up on ordering-preserving segments and rehydrate
                    # everything into memory (correctness over budget).
                    memory_tail.extend(part)
                else:
                    segments.extend(part.segments)
                    records += part.records
            else:
                if memory_tail:
                    memory_tail.extend(part)
                else:
                    pending.append(part)
        flush_pending()
        if memory_tail:
            merged = []
            for segment in segments:
                merged.extend(read_segment(segment))
                try:
                    os.remove(segment.path)
                except OSError:
                    pass
            merged.extend(memory_tail)
            return merged
        bucket = SpilledBucket(segments, records)
        self._adopt(bucket)
        return bucket

    def _adopt(self, bucket: SpilledBucket) -> None:
        """Count segments that became part of a shuffle's outputs."""
        with self._lock:
            self.counters.spill_files += len(bucket.segments)
            self.counters.spilled_bytes += bucket.nbytes
        if self.tracer is not None:
            self.tracer.instant(
                "spill_write", "spill",
                segments=len(bucket.segments), bytes=bucket.nbytes,
                records=bucket.records,
            )

    # ------------------------------------------------------- accounting

    def _charge(self, outputs: list, index: int, nbytes: int) -> None:
        with self._lock:
            self._charges[(id(outputs), index)] = nbytes
            self._pinned[id(outputs)] = outputs
            self._tracked += nbytes
            if self._tracked > self.counters.peak_tracked_bytes:
                self.counters.peak_tracked_bytes = self._tracked

    def release(self, outputs: list | None) -> None:
        """Uncharge an invalidated shuffle's buckets, deleting spills."""
        if outputs is None:
            return
        with self._lock:
            for index in range(len(outputs)):
                self._tracked -= self._charges.pop(
                    (id(outputs), index), 0
                )
            self._pinned.pop(id(outputs), None)
        for bucket in outputs:
            if isinstance(bucket, SpilledBucket):
                bucket.delete()

    # -------------------------------------------------- chaos injection

    def inject_faults(self, outputs: list) -> int:
        """Damage spilled segments per the chaos plan; returns the count.

        Called by the scheduler right before revalidating a materialized
        shuffle — the same point shuffle loss is injected — so every
        fault is caught by validation and recovered through lineage
        before any task reads the data.  Each logical segment key is
        faulted at most once — *across recomputations* (the recomputed
        stage rewrites the same keys) — keeping plans completable.
        """
        if self.chaos is None:
            return 0
        injected = 0
        for bucket in outputs:
            if not isinstance(bucket, SpilledBucket):
                continue
            for segment in bucket.segments:
                with self._lock:
                    epoch = self._fault_epochs.get(segment.key, 0)
                kind = self.chaos.spill_fault(segment.key, epoch)
                if kind is None:
                    continue
                with self._lock:
                    self._fault_epochs[segment.key] = epoch + 1
                damage_segment(segment.path, kind)
                injected += 1
                with self._lock:
                    self.counters.faults_injected += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "spill_fault", "chaos",
                        key=segment.key, fault=kind,
                    )
        return injected

    # ---------------------------------------------------------- hygiene

    def snapshot(self) -> dict:
        """Per-stage delta baseline for the scheduler's metrics."""
        with self._lock:
            return {
                "spilled_bytes": self.counters.spilled_bytes,
                "spill_files": self.counters.spill_files,
                "spill_read_retries": read_retries_total(),
            }

    def summary(self) -> dict:
        """Lifetime spill accounting as plain data (CLI, bench JSON)."""
        with self._lock:
            return {
                "budget_bytes": self.budget_bytes,
                "spilled_bytes": self.counters.spilled_bytes,
                "spill_files": self.counters.spill_files,
                "spill_read_retries": read_retries_total(),
                "peak_tracked_bytes": self.counters.peak_tracked_bytes,
                "write_errors": self.counters.write_errors,
                "faults_injected": self.counters.faults_injected,
                "memory_fallbacks": self.counters.memory_fallbacks,
                "disabled": self.disabled,
            }

    def leaked_files(self) -> int:
        """Segment files still on disk — zero after :meth:`cleanup`."""
        with self._lock:
            directory = self._dir
        if directory is None or not os.path.isdir(directory):
            return 0
        return sum(len(files) for _, _, files in os.walk(directory))

    def cleanup(self) -> None:
        """Remove the spill directory and reset the budget accounting.

        Lifetime counters survive so post-join summaries stay truthful.
        Shuffle dependencies that still reference deleted segments are
        harmless: revalidation fails and lineage recomputes them, the
        same path any lost shuffle takes.
        """
        with self._lock:
            directory = self._dir
            self._dir = None
            self._tracked = 0
            self._charges.clear()
            self._pinned.clear()
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)

    def __del__(self):  # pragma: no cover - GC-timing dependent
        try:
            self.cleanup()
        except Exception:
            pass
