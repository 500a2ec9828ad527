"""Broadcast variables for minispark (``sc.broadcast``).

The joins broadcast three read-only values per run (ranking store, item
frequencies, CL role flags).  ``Context.broadcast`` files each one in a
process-local registry and hands out a :class:`Broadcast` handle:

1. **One registry, resolved by id.**  A managed handle carries a
   ``broadcast_id``.  The only multi-process backend forks, so workers
   inherit the registry (values included) copy-on-write and resolve every
   handle without copying or unpickling anything.  Broadcasting the same
   object twice returns the same handle (identity dedup).

2. **Handles, not payloads.**  Within :func:`handles_only` scopes (byte
   estimators, shuffle checksums, spill frames) a managed handle pickles
   to its id alone, so broadcast payloads never pollute shuffle
   accounting or spill budgets; the scheduler charges each stage the
   handle bytes of the broadcasts its closures reference
   (``StageMetrics.broadcast_bytes``).  Anywhere else a pickled handle
   embeds its payload, so it stays usable in a process that does not
   share the registry; ``payload_pickles`` counts those and no join is
   expected to cause one.  A handle that arrives with neither a registry
   entry nor a payload raises :class:`BroadcastLostError`.

3. **Join-scoped lifetime.**  Joins bracket their broadcasts in
   ``push_scope``/``pop_scope``; leaving a scope drops every entry made
   inside it, whether the join returned or raised.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import threading
import types
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "Broadcast",
    "BroadcastLostError",
    "BroadcastManager",
    "find_broadcasts",
    "handles_only",
]

_CONTAINER_CAP = 64  # don't walk containers larger than this during scans
_MAX_SCAN_DEPTH = 24

_SEQ = itertools.count()

#: broadcast_id -> (handle, owning manager's counters).  Forked workers
#: inherit this copy-on-write, which is what makes handle resolution free
#: on the processes backend.
_REGISTRY: dict = {}

_tls = threading.local()


class BroadcastLostError(RuntimeError):
    """A bare broadcast handle did not resolve: its id is not in this
    process's registry (released, or pickled in another process) and it
    carries no payload."""


@contextmanager
def handles_only():
    """Within this scope, managed broadcasts pickle as bare handles.

    Used by byte *estimators* (stride-sampled shuffle bytes, shuffle
    checksums) and by spill frame writers: broadcast payloads must never
    be charged to shuffle traffic nor written into spill segments — the
    per-stage ``broadcast_bytes`` account for them.
    """
    prev = getattr(_tls, "handles_only", False)
    _tls.handles_only = True
    try:
        yield
    finally:
        _tls.handles_only = prev


class Broadcast:
    """Handle for a read-only value shipped to every task.

    The analog of Spark's ``sc.broadcast``.  A bare ``Broadcast(value)``
    (no id) pickles by value; handles minted by ``Context.broadcast``
    carry a ``broadcast_id`` and resolve through the registry.
    """

    __slots__ = ("broadcast_id", "_value")

    def __init__(self, value, broadcast_id=None):
        self.broadcast_id = broadcast_id
        self._value = value

    @property
    def value(self):
        return self._value

    def __reduce__(self):
        bid = self.broadcast_id
        if bid is None:
            return (Broadcast, (self._value,))
        entry = _REGISTRY.get(bid)
        if entry is not None:
            if getattr(_tls, "handles_only", False):
                return (_resolve, (bid,))
            entry[1].payload_pickles += 1
        # Outside handles_only, or a released (or foreign) handle: ship
        # the value so the receiver is self-contained.
        return (_resolve, (bid, (self._value,)))

    def __repr__(self):  # pragma: no cover - debugging aid
        bid = self.broadcast_id or "plain"
        return f"Broadcast({bid}, {type(self._value).__name__})"


def _resolve(broadcast_id, payload=None):
    """Unpickle-side resolution: the registry, then an embedded payload."""
    entry = _REGISTRY.get(broadcast_id)
    if entry is not None:
        return entry[0]
    if payload is not None:
        return Broadcast(payload[0], broadcast_id=broadcast_id)
    raise BroadcastLostError(
        f"broadcast {broadcast_id} is not in this process's registry and "
        "the handle carries no payload"
    )


# ---------------------------------------------------------------------------
# Closure scanning


def find_broadcasts(roots) -> dict:
    """Collect Broadcast handles reachable from task closures.

    ``roots`` may contain RDDs (their narrow lineage is walked —
    ``MapPartitionsRDD`` functions plus shuffle aggregators, stopping at
    shuffle boundaries, which belong to earlier stages), callables,
    and containers.  The function-object walk follows closures,
    defaults, ``functools.partial`` fields, and small containers; it
    deliberately does not descend into arbitrary instance attributes
    (same trade-off as Spark's closure cleaner).

    Returns ``{broadcast_id_or_synthetic_key: handle}``.
    """
    found: dict = {}
    objs: list = []
    seen_rdds: set = set()

    def add_rdd(rdd):
        if rdd is None or id(rdd) in seen_rdds:
            return
        seen_rdds.add(id(rdd))
        fn = getattr(rdd, "_f", None)
        if fn is not None:
            objs.append(fn)
        for dep in getattr(rdd, "dependencies", ()):
            aggregator = getattr(dep, "aggregator", None)
            if aggregator is not None:
                objs.extend(a for a in aggregator if a is not None)
            if getattr(dep, "partitioner", None) is not None:
                continue  # shuffle boundary: upstream is another stage
            add_rdd(getattr(dep, "parent", None))

    for root in roots:
        if root is None:
            continue
        if hasattr(root, "dependencies") and hasattr(root, "iterator"):
            add_rdd(root)
        elif isinstance(root, (tuple, list)):
            objs.extend(item for item in root if item is not None)
        else:
            objs.append(root)

    seen: set = set()
    stack = [(obj, 0) for obj in objs]
    while stack:
        obj, depth = stack.pop()
        if obj is None or depth > _MAX_SCAN_DEPTH:
            continue
        oid = id(obj)
        if oid in seen:
            continue
        seen.add(oid)
        if isinstance(obj, Broadcast):
            key = obj.broadcast_id or f"plain-{oid}"
            found[key] = obj
            continue
        if isinstance(obj, functools.partial):
            stack.append((obj.func, depth + 1))
            stack.extend((a, depth + 1) for a in obj.args)
            stack.extend((v, depth + 1) for v in obj.keywords.values())
            continue
        if isinstance(obj, types.MethodType):
            stack.append((obj.__func__, depth + 1))
            continue
        if isinstance(obj, types.FunctionType):
            if obj.__closure__:
                for cell in obj.__closure__:
                    try:
                        stack.append((cell.cell_contents, depth + 1))
                    except ValueError:
                        pass
            if obj.__defaults__:
                stack.extend((d, depth + 1) for d in obj.__defaults__)
            continue
        if isinstance(obj, (tuple, list, set, frozenset)):
            if len(obj) <= _CONTAINER_CAP:
                stack.extend((item, depth + 1) for item in obj)
            continue
        if isinstance(obj, dict):
            if len(obj) <= _CONTAINER_CAP:
                stack.extend((v, depth + 1) for v in obj.values())
            continue
    return found


# ---------------------------------------------------------------------------
# Manager


@dataclass
class BroadcastCounters:
    """Lifetime counters for one manager (driver process)."""

    broadcasts: int = 0
    dedup_hits: int = 0
    payload_pickles: int = 0


class BroadcastManager:
    """The managed broadcasts of one Context: identity dedup, scoped
    lifetime, and the per-stage ``broadcast_bytes`` the scheduler charges."""

    def __init__(self):
        self.counters = BroadcastCounters()
        self._lock = threading.Lock()
        self._handles: dict = {}  # broadcast_id -> handle
        self._by_value: dict = {}  # id(value) -> handle
        self._scopes: list = []

    def broadcast(self, value) -> Broadcast:
        with self._lock:
            handle = self._by_value.get(id(value))
            if handle is not None and handle.value is value:
                self.counters.dedup_hits += 1
                return handle
            bid = f"mspark_{os.getpid()}_{next(_SEQ)}"
            handle = Broadcast(value, broadcast_id=bid)
            self._handles[bid] = handle
            self._by_value[id(value)] = handle
            _REGISTRY[bid] = (handle, self.counters)
            if self._scopes:
                self._scopes[-1].append(bid)
            self.counters.broadcasts += 1
            return handle

    def charge_stage(self, roots):
        """``(broadcast_bytes, handles)`` of one stage's task closures.

        Each handle the closure scan reaches is charged what it pickles
        to under :func:`handles_only` — its id for a managed broadcast,
        its value for a bare or already released one, which really would
        ship by value.
        """
        found = find_broadcasts(roots)
        nbytes = 0
        with handles_only():
            for handle in found.values():
                try:
                    nbytes += len(
                        pickle.dumps(handle, pickle.HIGHEST_PROTOCOL)
                    )
                except (pickle.PicklingError, TypeError, AttributeError):
                    pass  # an unpicklable bare value ships nowhere
        return nbytes, len(found)

    # -- lifecycle ---------------------------------------------------------

    def push_scope(self):
        """Open a broadcast scope (a join's working set)."""
        with self._lock:
            self._scopes.append([])

    def pop_scope(self):
        """Close the innermost scope, releasing every broadcast made in it."""
        with self._lock:
            bids = self._scopes.pop() if self._scopes else []
        for bid in bids:
            self.release(bid)

    def release(self, broadcast_id):
        with self._lock:
            handle = self._handles.pop(broadcast_id, None)
            if handle is None:
                return
            if self._by_value.get(id(handle.value)) is handle:
                del self._by_value[id(handle.value)]
            _REGISTRY.pop(broadcast_id, None)

    def release_all(self):
        with self._lock:
            bids = list(self._handles)
        for bid in bids:
            self.release(bid)

    def summary(self) -> dict:
        c = self.counters
        return {
            "broadcasts": c.broadcasts,
            "dedup_hits": c.dedup_hits,
            "payload_pickles": c.payload_pickles,
            "live": len(self._handles),  # zero after every join
            # benchmarks/ladder reads these four; there is no segment
            # plane, so their true value is 0.
            "segments": 0,
            "shm_bytes": 0,
            "fallbacks": 0,
            "live_segments": 0,
        }

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.release_all()
        except Exception:
            pass
