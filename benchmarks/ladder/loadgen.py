"""Serving traffic: seeded operation streams, closed and open loops.

Single-threaded: the generator, the logical clients and the service all
share one asyncio loop in one process (no threads, no sockets except the
two-connection TCP probe).  Stdlib + numpy; the service is whatever
object the adapter hands over.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

READ, INSERT, DELETE = 0, 1, 2


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Traffic:
    """A seeded, pre-drawn operation stream over one corpus.

    Reads draw half from a hot set of probes and half uniformly over the
    initial corpus.  Every ``1 / write_ratio``-th draw on average is a
    write; writes alternate ``insert`` of a spare ranking and ``delete``
    of a pre-drawn rid of the initial corpus, each used at most once, so
    no operation depends on another one's completion.  When the spare
    pool is used up the stream continues with reads only.
    """

    CHUNK = 1 << 15

    def __init__(self, corpus, spares, *, seed: int, hot_set: int,
                 write_ratio: float):
        self._rng = np.random.default_rng(seed)
        self.corpus = corpus
        self.spares = spares
        self.write_ratio = write_ratio
        self._hot = self._rng.integers(0, len(corpus), min(hot_set, len(corpus)))
        self._victims = self._rng.permutation(len(corpus))[:len(spares)].tolist()
        self._writes = 0
        self._kinds: list = []
        self._targets: list = []
        self._cursor = 0
        #: completed writes, until the oracle's mirror takes them over
        self.inserted: list = []
        self.deleted: list = []

    def _refill(self) -> None:
        rng, n, size = self._rng, len(self.corpus), self.CHUNK
        targets = np.where(rng.random(size) < 0.5,
                           self._hot[rng.integers(0, len(self._hot), size)],
                           rng.integers(0, n, size))
        kinds = np.zeros(size, dtype=np.int64)
        if self.write_ratio > 0:
            room = 2 * min(len(self.spares), len(self._victims)) - self._writes
            writes = np.flatnonzero(rng.random(size) < self.write_ratio)[:max(0, room)]
            order = self._writes + np.arange(len(writes))
            kinds[writes] = np.where(order % 2 == 0, INSERT, DELETE)
            targets[writes] = order // 2
            self._writes += len(writes)
        self._kinds = kinds.tolist()
        self._targets = targets.tolist()
        self._cursor = 0

    def next(self):
        """``(kind, payload)``: a query ranking, a ranking to insert, or a
        rid to delete."""
        if self._cursor >= len(self._kinds):
            self._refill()
        i = self._cursor
        self._cursor = i + 1
        kind, target = self._kinds[i], self._targets[i]
        if kind == READ:
            return READ, self.corpus[target]
        if kind == INSERT:
            return INSERT, self.spares[target]
        return DELETE, self.corpus[self._victims[target]].rid


class Phase:
    """What one traffic phase observed."""

    def __init__(self):
        self.query_ms: list = []
        self.update_ms: list = []
        self.late_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.over_limit = 0
        self.backlog_end = 0
        self.wall_s = 0.0

    @property
    def completed(self) -> int:
        return len(self.query_ms) + len(self.update_ms)


async def _perform(service, traffic, kind, payload, theta):
    if kind == READ:
        await service.query(payload, theta)
    elif kind == INSERT:
        await service.insert(payload)
        traffic.inserted.append(payload)
    else:
        await service.delete(payload)
        traffic.deleted.append(payload)


async def closed_loop(service, traffic, *, clients: int, seconds: float,
                      theta: float, recorder=None, parent=None) -> Phase:
    """``clients`` logical clients, each sending its next operation when
    the previous one completes, for ``seconds``."""
    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + seconds

    async def client():
        while True:
            begin = clock()
            if begin >= deadline:
                return
            kind, payload = traffic.next()
            phase.attempted += 1
            try:
                await _perform(service, traffic, kind, payload, theta)
            except Exception:
                phase.failed += 1
                continue
            end = clock()
            (phase.query_ms if kind == READ else phase.update_ms).append(
                (end - begin) * 1e3)
            if recorder is not None:
                recorder.add("request", begin, end, parent, op=phase.attempted, kind=kind)

    begin = clock()
    await asyncio.gather(*(client() for _ in range(clients)))
    phase.wall_s = clock() - begin
    return phase


async def open_loop(service, traffic, *, rate: float, seconds: float,
                    theta: float, seed: int, limit_ms: float,
                    recorder=None, parent=None) -> Phase:
    """Seeded Poisson arrivals at ``rate`` per second for ``seconds``.

    Each request is timed from the moment it was due, so a stalled loop
    charges its stall to every request it delayed.  A request that
    errors or is still pending one second after the schedule ends counts
    as failed and as over the latency limit.
    """
    phase = Phase()
    clock = time.perf_counter
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, int(rate * seconds * 1.2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds].tolist()

    async def one(kind, payload, due, op):
        try:
            await _perform(service, traffic, kind, payload, theta)
        except Exception:
            phase.failed += 1
            phase.over_limit += 1
            return
        end = clock()
        elapsed = (end - due) * 1e3
        (phase.query_ms if kind == READ else phase.update_ms).append(elapsed)
        if elapsed > limit_ms:
            phase.over_limit += 1
        if recorder is not None:
            recorder.add("request", due, end, parent, op=op, kind=kind)

    tasks = []
    begin = clock() + 0.005
    for op, offset in enumerate(offsets):
        due = begin + offset
        await asyncio.sleep(max(0.0, due - clock()))
        phase.late_ms.append((clock() - due) * 1e3)
        kind, payload = traffic.next()
        phase.attempted += 1
        tasks.append(asyncio.ensure_future(one(kind, payload, due, op)))
    phase.wall_s = clock() - begin
    phase.backlog_end = sum(1 for task in tasks if not task.done())
    if tasks:
        _done, pending = await asyncio.wait(tasks, timeout=1.0)
        for task in pending:
            task.cancel()
            phase.failed += 1
            phase.over_limit += 1
        if pending:
            await asyncio.wait(pending)
    return phase


async def tcp_round_trips(service, lines, *, connections: int = 2) -> list:
    """Closed-loop queries over ``connections`` localhost TCP connections
    (the lines are split evenly); returns round-trip milliseconds."""
    server, port = await service.start_tcp()
    rtts: list = []

    async def connection(share):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            for line in share:
                begin = time.perf_counter()
                writer.write(line)
                await writer.drain()
                reply = await reader.readline()
                if not reply.startswith(b'{"results"'):
                    raise RuntimeError(f"TCP query failed: {reply[:120]!r}")
                rtts.append((time.perf_counter() - begin) * 1e3)
        finally:
            writer.close()
            await writer.wait_closed()

    try:
        await asyncio.gather(*(connection(lines[c::connections])
                               for c in range(connections)))
    finally:
        server.close()
        await server.wait_closed()
    return rtts


class IdleMeter:
    """Seconds the event loop spent blocked in ``select`` with nothing
    ready: the loop's idle time, measured where it idles."""

    def __init__(self, loop):
        self.idle_s = 0.0
        self._selector = getattr(loop, "_selector", None)
        if self._selector is None:
            return
        inner = self._selector.select

        def select(timeout=None):
            if timeout == 0:
                return inner(timeout)
            begin = time.perf_counter()
            try:
                return inner(timeout)
            finally:
                self.idle_s += time.perf_counter() - begin

        self._selector.select = select

    def close(self):
        if self._selector is not None:
            del self._selector.select


class TimedIndex:
    """Benchmark-side proxy around the index a service (or a delta join)
    drives: times every call that crosses into the index layer."""

    def __init__(self, inner, recorder):
        self.inner = inner
        self.recorder = recorder
        self.parent = None
        self.seconds = {"query_batch": [], "query": [], "insert": [], "delete": []}

    def busy_s(self) -> float:
        return sum(sum(samples) for samples in self.seconds.values())

    def _timed(self, name, call, *args):
        begin = time.perf_counter()
        try:
            return call(*args)
        finally:
            end = time.perf_counter()
            self.seconds[name].append(end - begin)
            self.recorder.add(f"index.{name}", begin, end, self.parent)

    def query_batch(self, queries, theta, include_self=False):
        return self._timed("query_batch", self.inner.query_batch, queries, theta, include_self)

    def query(self, query, theta, include_self=False):
        return self._timed("query", self.inner.query, query, theta, include_self)

    def insert(self, ranking):
        return self._timed("insert", self.inner.insert, ranking)

    def delete(self, rid):
        return self._timed("delete", self.inner.delete, rid)

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)
