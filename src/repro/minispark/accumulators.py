"""Exact worker-side counters: per-attempt delta channels.

The problem this module solves: join kernels historically mutated a
driver-side stats object captured in their closures.  That is correct
only on a fault-free serial run — on the ``processes`` backend the
forked copy is mutated and discarded, while on threads/serial any chaos
retry, speculative duplicate, or lineage recompute re-runs the kernel
against the *shared* object and double-counts.

The fix mirrors Spark's accumulator design, adapted to this engine's
lazy generator pipelines:

* A :class:`StatsChannel` is created driver-side per logical counter
  object (one per join).  Kernels never mutate the channel's merged
  value directly; they call :func:`local_stats` which hands back a
  **task-local delta** — a fresh counter object private to the current
  task attempt.

* The executors' retry loop brackets every attempt with
  :func:`begin_attempt` / :func:`end_attempt`, which install and
  collect a thread-local delta registry.  The collected registry rides
  back to the driver in ``TaskOutcome.attempt_stats``, next to the
  per-attempt timing windows.

* The scheduler merges deltas **only from winning attempts** (the final
  attempt of a successful task); failed tries and speculation losers
  are folded into the channel's ``discarded`` counter instead, so they
  stay visible without polluting the exact value.

* Deltas are keyed by the **logical computation scope** — the
  ``(rdd_id, partition)`` of the ``MapPartitionsRDD`` whose closure made
  the increments (established by :func:`scoped_iterator` around every
  narrow-transform pull).  The channel remembers which scopes it has
  already merged and drops repeats.  Kernels are deterministic, so a
  recomputed partition produces a byte-identical delta and deduplication
  reproduces the fault-free serial value exactly: a lineage recompute
  after shuffle loss, a cached partition that could not be shipped back
  from a forked worker and is recomputed by a later stage, and two
  threads racing to fill the same cache slot all collapse to a single
  merge.  A fault-free run dedups nothing: every backend computes a
  cached partition once.

The channel's ``value`` object is whatever the caller supplies (joins
pass their ``JoinStats``); the only requirement is a ``merge(other)``
method that adds counters field-wise.  This module deliberately knows
nothing about join-layer types.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Iterator

#: Thread-local holder for the current attempt's delta registry and the
#: current logical scope.  ``registry`` maps ``(channel_id, scope)`` to a
#: delta object; ``scope`` is the ``(rdd_id, partition)`` currently being
#: computed, maintained as a stack by :func:`scoped_iterator`.
_TASK_LOCAL = threading.local()


def begin_attempt():
    """Install a fresh delta registry for one task attempt.

    Returns an opaque token (the previous registry, usually ``None``)
    that must be passed back to :func:`end_attempt`.  Re-entrancy-safe:
    a nested attempt on the same thread restores the outer registry.
    """
    previous = getattr(_TASK_LOCAL, "registry", None)
    _TASK_LOCAL.registry = {}
    return previous


def end_attempt(token) -> dict:
    """Collect the attempt's deltas and restore the previous registry.

    Returns the registry dict, mapping ``(channel_id, scope)`` to the
    delta object accumulated under that scope during the attempt.
    """
    deltas = getattr(_TASK_LOCAL, "registry", None)
    _TASK_LOCAL.registry = token
    return deltas if deltas is not None else {}


def scoped_iterator(iterable: Iterable, scope) -> Iterator:
    """Yield from ``iterable`` with ``scope`` set around every pull.

    ``MapPartitionsRDD.compute`` wraps its output with this so that any
    counter increment made by user code is attributed to the
    ``(rdd_id, partition)`` whose closure made it — nested transforms
    each re-establish their own scope for the duration of their pull and
    restore the enclosing one afterwards, even when the pull raises.
    """
    it = iter(iterable)
    local = _TASK_LOCAL
    while True:
        previous = getattr(local, "scope", None)
        local.scope = scope
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            local.scope = previous
        yield item


class StatsChannel:
    """A driver-side counter with exactly-once worker-side increments.

    ``value`` is the merged, exact counter object; ``discarded``
    accumulates deltas from failed attempts and speculation losers
    (informational — never part of ``value``).  ``local()`` returns the
    delta object worker code should mutate: the task-local, scope-keyed
    delta while an attempt is running, or ``value`` itself on the driver
    (where there is no attempt and direct mutation is single-threaded
    and exact by construction).
    """

    _ids = itertools.count()

    def __init__(self, create: Callable, value=None):
        self.channel_id = next(StatsChannel._ids)
        self.create = create
        self.value = create() if value is None else value
        self.discarded = create()
        self._seen: set = set()
        self._lock = threading.Lock()

    def local(self):
        registry = getattr(_TASK_LOCAL, "registry", None)
        if registry is None:
            return self.value
        key = (self.channel_id, getattr(_TASK_LOCAL, "scope", None))
        delta = registry.get(key)
        if delta is None:
            delta = registry[key] = self.create()
        return delta

    def merge_winner(self, delta, scope) -> bool:
        """Fold one winning-attempt delta into ``value``, once per scope.

        Returns ``True`` when the delta was merged, ``False`` when the
        scope was already seen (a deterministic recomputation of the
        same logical partition) and the delta was dropped.
        """
        with self._lock:
            if scope in self._seen:
                return False
            self._seen.add(scope)
            self.value.merge(delta)
            return True

    def merge_discarded(self, delta) -> None:
        """Fold a failed-attempt or speculation-loser delta aside."""
        with self._lock:
            self.discarded.merge(delta)

    def __repr__(self) -> str:
        return (
            f"StatsChannel(id={self.channel_id}, "
            f"scopes_merged={len(self._seen)})"
        )


def local_stats(stats):
    """Resolve a stats argument to the object worker code should mutate.

    Kernels accept either a plain counter object (driver-side callers,
    unit tests) or a :class:`StatsChannel`; calling this at the top of
    the kernel makes both work: plain objects pass through, channels
    hand out the current attempt's scoped delta.
    """
    local = getattr(stats, "local", None)
    return stats if local is None else local()
