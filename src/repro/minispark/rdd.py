"""Resilient Distributed Dataset: a lazy, partitioned collection.

This is a faithful, single-process re-implementation of the Spark
programming model the paper's algorithms are written against:

* an :class:`RDD` is a lineage graph node — nothing computes until an
  *action* (collect/count/reduce/...) runs;
* *narrow* transformations (map, filter, mapPartitions, union, ...) fuse
  into the consuming task, exactly like Spark stage pipelining;
* *wide* transformations (groupByKey, reduceByKey, join, distinct,
  partitionBy, ...) introduce a :class:`ShuffleDependency`; the scheduler
  materializes the shuffle, records per-task durations, and counts the
  shuffled records — the numbers the cluster cost model replays;
* ``cache()`` pins computed partitions in memory, which is what makes the
  CL algorithm's iterative multi-phase structure profitable on Spark.
  On the ``processes`` backend a partition first computed inside a
  forked worker is shipped back with the task's outcome
  (:func:`begin_cache_capture` / :func:`end_cache_capture`) and pinned
  in the driver (:func:`install_cache_fills`), so the next stage's fork
  inherits it exactly as threads share it.

Tasks run sequentially in-process (deterministic and measurable); cluster
parallelism is answered by :class:`repro.minispark.cluster.ClusterModel`.
"""

from __future__ import annotations

import heapq
import itertools
import os
import pickle
import random
import threading
from typing import Callable, Iterable, Iterator

from .accumulators import scoped_iterator
from .partitioner import HashPartitioner, Partitioner, RangePartitioner


#: Per-thread record of the cached partitions the running task computed
#: first.  Only a forked worker installs one: its ``_cache_store`` writes
#: die with the process, so the partitions must travel back to the driver.
_CAPTURE = threading.local()


def begin_cache_capture() -> None:
    """Start recording the cached partitions this thread computes."""
    _CAPTURE.fills = {}


def end_cache_capture() -> dict:
    """Stop recording; return ``{(rdd_id, index): pickled partition}``.

    Every recorded partition is complete (``RDD.iterator`` stores a
    partition only once its iterator is exhausted), whether the attempt
    that computed it went on to succeed or not.  A partition that does
    not pickle stays worker-local and later stages recompute it.
    """
    fills, _CAPTURE.fills = _CAPTURE.fills, None
    shipped = {}
    for key, records in fills.items():
        try:
            shipped[key] = pickle.dumps(records, pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            continue
    return shipped


def install_cache_fills(cached_rdds: Iterable["RDD"], fills: dict) -> None:
    """Pin partitions shipped by :func:`end_cache_capture` in the driver.

    They stay pickled until first read: the driver of a processes run
    only ever forks, and an unpickled copy shares no object with the
    dataset or the shuffle buckets it was derived from, so holding lists
    here would cost the driver (and, copy-on-write, every later worker)
    the whole partition a second time.
    """
    by_id = {rdd.rdd_id: rdd for rdd in cached_rdds}
    for (rdd_id, index), data in fills.items():
        rdd = by_id.get(rdd_id)
        if rdd is not None and rdd._cached:
            rdd._cache_store.setdefault(index, data)


class Dependency:
    """Edge in the lineage graph."""

    def __init__(self, parent: "RDD"):
        self.parent = parent


class NarrowDependency(Dependency):
    """Child partitions depend on a bounded set of parent partitions."""


class ShuffleDependency(Dependency):
    """All-to-all exchange of (key, value) pairs.

    ``aggregator`` optionally enables map-side combining:
    ``(create, merge_value, merge_combiners)``.  ``outputs[i]`` holds the
    records routed to child partition ``i`` once the scheduler has run the
    map stage; ``records`` counts what crossed the (simulated) wire and
    ``bytes`` estimates its serialized size (sampled pickling, see
    :func:`repro.minispark.scheduler.estimate_shuffle_bytes`).

    Materialized outputs are the analog of Spark's shuffle files, and
    like shuffle files they can go missing (a chaos plan marks them
    ``lost``) or rot (``checksum``, stamped by the scheduler at
    materialization, no longer matches).  The scheduler revalidates
    before reuse and recomputes the map stage from lineage when the check
    fails — that recomputation is exactly what "resilient" means in RDD.

    Under a memory budget a bucket in ``outputs`` may be a
    :class:`~repro.minispark.spill.SpilledBucket` instead of a list —
    same ``len()``, same iteration order, but the records stream from a
    CRC32-checksummed segment file.  Consumers that only iterate (the
    shuffle-read RDDs below) never notice the difference; a spill file
    that fails its checksum makes revalidation fail and lands in the
    same lineage-recomputation path as a lost in-memory shuffle.
    """

    def __init__(self, parent: "RDD", partitioner: Partitioner, aggregator=None):
        super().__init__(parent)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.outputs: list | None = None
        self.records = 0
        self.bytes = 0
        self.checksum: int | None = None
        self.lost = False
        self.loss_epoch = 0  # chaos shuffle-loss injections so far

    @property
    def materialized(self) -> bool:
        return self.outputs is not None

    def mark_lost(self) -> None:
        """Flag the materialized outputs as gone (executor loss analog)."""
        self.lost = True

    def invalidate(self) -> None:
        """Drop the materialized state so the scheduler recomputes it."""
        self.outputs = None
        self.checksum = None
        self.lost = False
        self.records = 0
        self.bytes = 0


class RDD:
    """Base class; subclasses define ``compute`` and partition count."""

    _next_id = itertools.count()

    def __init__(self, context, num_partitions: int, dependencies: list):
        self.context = context
        self.num_partitions = num_partitions
        self.dependencies = dependencies
        self.rdd_id = next(RDD._next_id)
        self.partitioner: Partitioner | None = None
        self._cached = False
        self._cache_store: dict = {}

    # ------------------------------------------------------------ plumbing

    def compute(self, index: int) -> Iterator:
        raise NotImplementedError

    def iterator(self, index: int) -> Iterator:
        """Compute one partition, honouring the cache."""
        if not self._cached:
            return self.compute(index)
        records = self._cache_store.get(index)
        if records is None:
            records = self._cache_store[index] = list(self.compute(index))
            fills = getattr(_CAPTURE, "fills", None)
            if fills is not None:
                fills[self.rdd_id, index] = records
        elif isinstance(records, bytes):  # shipped by a forked worker
            records = self._cache_store[index] = pickle.loads(records)
        return iter(records)

    def cache(self) -> "RDD":
        """Keep computed partitions in memory for reuse across jobs."""
        self._cached = True
        register = getattr(self.context, "register_cached_rdd", None)
        if register is not None:
            register(self)
        return self

    def unpersist(self) -> "RDD":
        self._cached = False
        self._cache_store.clear()
        return self

    def _default_partitions(self, num_partitions: int | None) -> int:
        if num_partitions is not None:
            if num_partitions <= 0:
                raise ValueError(
                    f"num_partitions must be positive, got {num_partitions}"
                )
            return num_partitions
        return self.context.default_parallelism

    # ----------------------------------------------------- transformations

    def map(self, f: Callable) -> "RDD":
        return MapPartitionsRDD(
            self, lambda _, part: map(f, part), preserves_partitioning=False
        )

    def filter(self, f: Callable) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: (x for x in part if f(x)),
            preserves_partitioning=True,
        )

    def flat_map(self, f: Callable) -> "RDD":
        def apply(_, part):
            for x in part:
                yield from f(x)

        return MapPartitionsRDD(self, apply, preserves_partitioning=False)

    def map_partitions(
        self, f: Callable, preserves_partitioning: bool = False
    ) -> "RDD":
        """Apply ``f(iterator) -> iterator`` once per partition.

        This is the paper's preferred idiom (Section 4.1): iterator-based
        per-partition processing instead of materialized indexes.
        """
        return MapPartitionsRDD(
            self, lambda _, part: f(part), preserves_partitioning
        )

    def map_partitions_with_index(
        self, f: Callable, preserves_partitioning: bool = False
    ) -> "RDD":
        return MapPartitionsRDD(self, f, preserves_partitioning)

    def key_by(self, f: Callable) -> "RDD":
        return self.map(lambda x: (f(x), x))

    def map_values(self, f: Callable) -> "RDD":
        return MapPartitionsRDD(
            self,
            lambda _, part: ((k, f(v)) for k, v in part),
            preserves_partitioning=True,
        )

    def flat_map_values(self, f: Callable) -> "RDD":
        def apply(_, part):
            for k, v in part:
                for value in f(v):
                    yield (k, value)

        return MapPartitionsRDD(self, apply, preserves_partitioning=True)

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.context, [self, other])

    def glom(self) -> "RDD":
        return MapPartitionsRDD(
            self, lambda _, part: iter([list(part)]), preserves_partitioning=True
        )

    def sample(self, fraction: float, seed: int = 0) -> "RDD":
        """Bernoulli sample of each partition (deterministic per seed)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def apply(index, part):
            rng = random.Random(f"{seed}:{index}")
            return (x for x in part if rng.random() < fraction)

        return MapPartitionsRDD(self, apply, preserves_partitioning=True)

    def zip_with_index(self) -> "RDD":
        """Pair every element with its global index (runs a size job)."""
        sizes = self.map_partitions(lambda part: iter([sum(1 for _ in part)]))
        counts = [c[0] for c in sizes._run_job("zipWithIndex-sizes")]
        offsets = [0]
        for count in counts[:-1]:
            offsets.append(offsets[-1] + count)

        def apply(index, part):
            return ((x, offsets[index] + i) for i, x in enumerate(part))

        return MapPartitionsRDD(self, apply, preserves_partitioning=True)

    # ------------------------------------------------- wide transformations

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Redistribute (key, value) pairs without aggregation."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def repartition(self, num_partitions: int) -> "RDD":
        """Rebalance elements round-robin across ``num_partitions``."""

        def add_keys(index, part):
            return ((index + i, x) for i, x in enumerate(part))

        keyed = MapPartitionsRDD(self, add_keys, preserves_partitioning=False)
        shuffled = ShuffledRDD(keyed, HashPartitioner(num_partitions))
        return shuffled.values()

    def coalesce(self, num_partitions: int) -> "RDD":
        """Merge partitions without a shuffle."""
        return CoalescedRDD(self, num_partitions)

    def group_by_key(
        self,
        num_partitions: int | None = None,
        partitioner: Partitioner | None = None,
    ) -> "RDD":
        partitioner = partitioner or HashPartitioner(
            self._default_partitions(num_partitions)
        )
        aggregator = (
            lambda v: [v],
            lambda acc, v: _appended(acc, v),
            lambda a, b: _extended(a, b),
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def reduce_by_key(
        self, f: Callable, num_partitions: int | None = None
    ) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        aggregator = (lambda v: v, f, f)
        return ShuffledRDD(self, partitioner, aggregator)

    def aggregate_by_key(
        self,
        zero,
        seq_func: Callable,
        comb_func: Callable,
        num_partitions: int | None = None,
    ) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        aggregator = (
            lambda v: seq_func(_copy_zero(zero), v),
            seq_func,
            comb_func,
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def combine_by_key(
        self,
        create: Callable,
        merge_value: Callable,
        merge_combiners: Callable,
        num_partitions: int | None = None,
    ) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        return ShuffledRDD(self, partitioner, (create, merge_value, merge_combiners))

    def distinct(self, num_partitions: int | None = None) -> "RDD":
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .keys()
        )

    def cogroup(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        partitioner = HashPartitioner(self._default_partitions(num_partitions))
        return CoGroupedRDD(self.context, [self, other], partitioner)

    def join(self, other: "RDD", num_partitions: int | None = None) -> "RDD":
        """Inner join on keys: yields ``(k, (v, w))``."""

        def cross(groups):
            left, right = groups
            return ((v, w) for v in left for w in right)

        return self.cogroup(other, num_partitions).flat_map_values(cross)

    def left_outer_join(
        self, other: "RDD", num_partitions: int | None = None
    ) -> "RDD":
        def cross(groups):
            left, right = groups
            if not right:
                return ((v, None) for v in left)
            return ((v, w) for v in left for w in right)

        return self.cogroup(other, num_partitions).flat_map_values(cross)

    def subtract_by_key(
        self, other: "RDD", num_partitions: int | None = None
    ) -> "RDD":
        """Pairs of ``self`` whose key does not occur in ``other``."""

        def keep(groups):
            left, right = groups
            return iter(left) if not right else iter(())

        return self.cogroup(other, num_partitions).flat_map_values(keep)

    def sort_by(
        self,
        key_func: Callable,
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD":
        """Globally sort: sample range bounds, range-partition, local sort.

        Mirrors Spark's eager RangePartitioner sampling (runs a job now).
        """
        num_partitions = self._default_partitions(num_partitions)
        keyed = self.map(lambda x: (key_func(x), x))
        if num_partitions == 1:
            bounds: list = []
        else:
            sample = [k for k, _ in keyed._run_job_flat("sortBy-sample")]
            sample.sort()
            if not sample:
                bounds = []
            else:
                step = len(sample) / num_partitions
                bounds = [
                    sample[min(int(step * i), len(sample) - 1)]
                    for i in range(1, num_partitions)
                ]
        partitioner = RangePartitioner(bounds, ascending)
        shuffled = ShuffledRDD(keyed, partitioner)

        def sort_part(part):
            data = sorted(part, key=lambda kv: kv[0], reverse=not ascending)
            return (v for _, v in data)

        return shuffled.map_partitions(sort_part, preserves_partitioning=True)

    # --------------------------------------------------------------- actions

    def _run_job(self, name: str) -> list:
        return self.context.scheduler.run_job(self, name)

    def _run_job_flat(self, name: str) -> list:
        return [x for part in self._run_job(name) for x in part]

    def collect(self) -> list:
        return self._run_job_flat("collect")

    def count(self) -> int:
        counted = self.map_partitions(lambda part: iter([sum(1 for _ in part)]))
        return sum(counted._run_job_flat("count"))

    def take(self, n: int) -> list:
        if n <= 0:
            return []
        return self._run_job_flat("take")[:n]

    def first(self):
        taken = self.take(1)
        if not taken:
            raise ValueError("RDD is empty")
        return taken[0]

    def reduce(self, f: Callable):
        def reduce_part(part):
            iterator = iter(part)
            try:
                acc = next(iterator)
            except StopIteration:
                return iter(())
            for x in iterator:
                acc = f(acc, x)
            return iter([acc])

        partials = self.map_partitions(reduce_part)._run_job_flat("reduce")
        if not partials:
            raise ValueError("reduce of empty RDD")
        acc = partials[0]
        for x in partials[1:]:
            acc = f(acc, x)
        return acc

    def fold(self, zero, f: Callable):
        def fold_part(part):
            acc = _copy_zero(zero)
            for x in part:
                acc = f(acc, x)
            return iter([acc])

        partials = self.map_partitions(fold_part)._run_job_flat("fold")
        acc = _copy_zero(zero)
        for x in partials:
            acc = f(acc, x)
        return acc

    def sum(self):
        return self.fold(0, lambda a, b: a + b)

    def max(self):
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self):
        return self.reduce(lambda a, b: a if a <= b else b)

    def top(self, n: int, key: Callable | None = None) -> list:
        def top_part(part):
            return iter(heapq.nlargest(n, part, key=key))

        partials = self.map_partitions(top_part)._run_job_flat("top")
        return heapq.nlargest(n, partials, key=key)

    def count_by_key(self) -> dict:
        counted = self.map(lambda kv: (kv[0], 1)).reduce_by_key(lambda a, b: a + b)
        return dict(counted._run_job_flat("countByKey"))

    def count_by_value(self) -> dict:
        counted = self.map(lambda x: (x, 1)).reduce_by_key(lambda a, b: a + b)
        return dict(counted._run_job_flat("countByValue"))

    def foreach(self, f: Callable) -> None:
        def consume(part):
            for x in part:
                f(x)
            return iter(())

        self.map_partitions(consume)._run_job("foreach")

    def save_as_text_file(self, path: str | os.PathLike) -> None:
        """Write one ``part-NNNNN`` file per partition."""
        os.makedirs(path, exist_ok=True)
        parts = self._run_job("saveAsTextFile")
        for index, records in enumerate(parts):
            part_path = os.path.join(path, f"part-{index:05d}")
            with open(part_path, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(f"{record}\n")


def _appended(acc: list, value) -> list:
    acc.append(value)
    return acc


def _extended(a: list, b: list) -> list:
    a.extend(b)
    return a


def _copy_zero(zero):
    """Shallow-copy mutable zero values so folds do not share state."""
    if isinstance(zero, list):
        return list(zero)
    if isinstance(zero, set):
        return set(zero)
    if isinstance(zero, dict):
        return dict(zero)
    return zero


class ParallelCollectionRDD(RDD):
    """An RDD over an in-memory sequence, sliced into partitions."""

    def __init__(self, context, data: Iterable, num_partitions: int):
        data = list(data)
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        num_partitions = min(num_partitions, max(1, len(data)))
        super().__init__(context, num_partitions, [])
        self._slices: list = []
        n = len(data)
        for i in range(num_partitions):
            start = (i * n) // num_partitions
            end = ((i + 1) * n) // num_partitions
            self._slices.append(data[start:end])

    def compute(self, index: int) -> Iterator:
        return iter(self._slices[index])


class MapPartitionsRDD(RDD):
    """Narrow transformation: ``f(partition_index, iterator) -> iterator``.

    The only RDD kind that runs user closures, so its output iterator is
    wrapped in an accumulator scope: counter increments made while this
    partition is pulled are attributed to ``(rdd_id, index)``, the
    logical-computation key the scheduler deduplicates winning deltas
    by (see :mod:`~repro.minispark.accumulators`).
    """

    def __init__(self, parent: RDD, f: Callable, preserves_partitioning: bool):
        super().__init__(
            parent.context, parent.num_partitions, [NarrowDependency(parent)]
        )
        self._f = f
        if preserves_partitioning:
            self.partitioner = parent.partitioner

    def compute(self, index: int) -> Iterator:
        parent = self.dependencies[0].parent
        return scoped_iterator(
            self._f(index, parent.iterator(index)), (self.rdd_id, index)
        )


class UnionRDD(RDD):
    """Concatenation of several RDDs' partitions."""

    def __init__(self, context, rdds: list):
        super().__init__(
            context,
            sum(r.num_partitions for r in rdds),
            [NarrowDependency(r) for r in rdds],
        )
        self._offsets: list = []
        offset = 0
        for rdd in rdds:
            self._offsets.append((offset, rdd))
            offset += rdd.num_partitions

    def compute(self, index: int) -> Iterator:
        for offset, rdd in reversed(self._offsets):
            if index >= offset:
                return rdd.iterator(index - offset)
        raise IndexError(index)


class CoalescedRDD(RDD):
    """Narrow merge of parent partitions into fewer partitions."""

    def __init__(self, parent: RDD, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError(
                f"num_partitions must be positive, got {num_partitions}"
            )
        num_partitions = min(num_partitions, parent.num_partitions)
        super().__init__(
            parent.context, num_partitions, [NarrowDependency(parent)]
        )
        self._groups: list = [[] for _ in range(num_partitions)]
        for i in range(parent.num_partitions):
            self._groups[i % num_partitions].append(i)

    def compute(self, index: int) -> Iterator:
        parent = self.dependencies[0].parent
        for parent_index in self._groups[index]:
            yield from parent.iterator(parent_index)


class ShuffledRDD(RDD):
    """Wide transformation over (key, value) pairs.

    Without an aggregator the shuffled pairs pass through unchanged
    (``partitionBy`` semantics); with one, map-side partial combining runs
    in the map tasks and final merging here, yielding ``(key, combined)``.

    Reads are streaming: the bucket is only ever iterated, so a spilled
    bucket's records flow frame by frame from its checksummed segment
    files without ever materializing the bucket in memory.
    """

    def __init__(self, parent: RDD, partitioner: Partitioner, aggregator=None):
        dep = ShuffleDependency(parent, partitioner, aggregator)
        super().__init__(parent.context, partitioner.num_partitions, [dep])
        self.partitioner = partitioner

    def compute(self, index: int) -> Iterator:
        dep = self.dependencies[0]
        if not dep.materialized:
            raise RuntimeError(
                "shuffle not materialized; actions must go through the scheduler"
            )
        records = dep.outputs[index]
        if dep.aggregator is None:
            return iter(records)
        _, _, merge_combiners = dep.aggregator
        merged: dict = {}
        for key, combiner in records:
            if key in merged:
                merged[key] = merge_combiners(merged[key], combiner)
            else:
                # Copy container combiners before they become merge
                # accumulators: merge_combiners may mutate its left
                # argument (group_by_key extends lists in place), and the
                # stored record must survive unchanged so recomputing this
                # partition — and validating the shuffle's checksum —
                # stays exact.
                merged[key] = _copy_zero(combiner)
        return iter(merged.items())


class CoGroupedRDD(RDD):
    """Shuffle-based cogroup of two (or more) pair RDDs.

    Yields ``(key, (values_0, values_1, ...))`` with one list per parent.
    """

    def __init__(self, context, parents: list, partitioner: Partitioner):
        deps = [ShuffleDependency(p, partitioner) for p in parents]
        super().__init__(context, partitioner.num_partitions, deps)
        self.partitioner = partitioner

    def compute(self, index: int) -> Iterator:
        groups: dict = {}
        arity = len(self.dependencies)
        for slot, dep in enumerate(self.dependencies):
            if not dep.materialized:
                raise RuntimeError(
                    "shuffle not materialized; actions must go through the scheduler"
                )
            for key, value in dep.outputs[index]:
                if key not in groups:
                    groups[key] = tuple([] for _ in range(arity))
                groups[key][slot].append(value)
        return iter(groups.items())
