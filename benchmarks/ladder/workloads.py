"""The five workloads of the ladder and the three sections they are made of.

Every workload runs the same three sections — ``joins`` (vj, vj-nl, cl,
cl-p once each), ``planes`` (cl-p serial / processes x 2 / 1 MiB spill
budget) and ``serve`` (closed loop, open loop, delta join) — because the
benchmark contract has every workload print every metric.  A workload is
the section it was chosen for at full size (*native*); its other sections
run at the small fixed ``ref`` size, and a native value always overrides a
``ref`` one.  The rows to read for a workload are its native ones
(``NATIVE_METRICS``); the ``ref`` rows are a small-input guard that is the
same on every workload.

Sizes and pinned open-loop rates are constants here; ``--smoke`` divides
every size by ten.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import adapter
import loadgen
import oracle
from spans import Recorder, span

HERE = Path(__file__).resolve().parent

THETA_JOIN, THETA_JOIN_HUNDREDTHS = 0.25, 25
THETA_SERVE, THETA_SERVE_HUNDREDTHS = 0.05, 5
NUM_PARTITIONS = 64
CLP_DELTA_DIVISOR = 200  # delta = n // 200; the harness default (0.02 n) repartitions nothing
SPILL_BUDGET_BYTES = 1 << 20
ORACLE_PROBES = 200
LATENCY_LIMIT_MS = 25.0
WARM_SECONDS = 1.2  # untimed two-core spin before each processes-plane join
SERVE = {"num_shards": 8, "theta_max": 0.1, "cache_size": 4096,
         "clients": 32, "hot_set": 2000}

ALGORITHMS = ("vj", "vjnl", "cl", "clp")
PLANES = {
    "clp": {},
    "procs_clp": {"executor": "processes", "max_workers": 2},
    "spill_clp": {"memory_budget_bytes": SPILL_BUDGET_BYTES},
}

# Section sizes.  A workload missing from a table runs that section at "ref".
JOINS = {
    "dense_top25": {"name": "orku25", "scale": 3, "size_factor": 1.0},
    "sparse_top10": {"name": "dblp", "scale": 1, "size_factor": 8.0},
    "ref": {"name": "dblp", "scale": 1, "size_factor": 2.5},
}
PLANE_DATA = {
    "engine_planes": {"name": "orku", "scale": 4, "size_factor": 1.0},
    "ref": {"name": "orku", "scale": 1, "size_factor": 1.0},
}
# ``rate``: pinned open-loop arrivals per second, ~40 % of the closed-loop
# capacity measured when the ladder was defined (at 60 % the seeded Poisson
# bursts moved query_p95_ms by up to 30 % from seed to seed); never derived
# at run time.
# ``closed``/``open``: phase lengths as shares of --seconds; ``sweep``: the
# length of each of the traced run's three open phases (0.5x, 1x, 1.3x).
SERVES = {
    "serve_read": {"scale": 45, "corpus": 50_000, "write_ratio": 0.0, "rate": 800.0,
                   "tail_rate": 330.0, "tail": 0.3, "tail_write_ratio": 0.2, "arrivals": 1000, "closed": 0.25, "open": 0.7, "sweep": 0.3},
    "serve_mixed": {"scale": 45, "corpus": 50_000, "write_ratio": 0.1, "rate": 330.0,
                    "arrivals": 1000, "closed": 0.25, "open": 0.9, "sweep": 0.3},
    "ref": {"scale": 9, "corpus": 9_600, "write_ratio": 0.1, "rate": 550.0,
            "arrivals": 300, "closed": 0.15, "open": 0.4, "sweep": 0.15},
}
PROBES = {"verify_pairs": 1 << 20, "small_groups": 2000, "shuffle_records": 400_000,
          "index_mutations": 500, "index_queries": 512, "tcp_queries": 2000}

JOIN_WALLS = ("vj_wall_s", "vjnl_wall_s", "cl_wall_s", "clp_wall_s")
SERVE_READ = ("serve_capacity_qps", "query_p50_ms", "query_p95_ms")
#: The end-to-end rows each workload exists for; the rest are ``ref`` rows.
NATIVE_METRICS = {
    "dense_top25": ("setup_s", "peak_rss_mb") + JOIN_WALLS,
    "sparse_top10": ("setup_s", "peak_rss_mb") + JOIN_WALLS,
    "engine_planes": ("setup_s", "peak_rss_mb", "clp_wall_s",
                      "procs_clp_wall_s", "spill_clp_wall_s"),
    "serve_read": ("setup_s", "peak_rss_mb") + SERVE_READ,
    "serve_mixed": ("setup_s", "peak_rss_mb") + SERVE_READ
    + ("update_p50_ms", "delta_rankings_per_s"),
}


def sizes(workload: str, smoke: bool) -> dict:
    """The final sizes of a workload's three sections (part of the output)."""
    shrink = 0.1 if smoke else 1.0

    def pick(table):
        spec = dict(table.get(workload, table["ref"]), native=workload in table)
        if "size_factor" in spec:
            spec["size_factor"] = round(spec["size_factor"] * shrink, 6)
        else:  # serving: corpus, arrivals and the generator's base size shrink
            spec["size_factor"] = shrink
            spec["corpus"] = int(spec["corpus"] * shrink)
            spec["arrivals"] = int(spec["arrivals"] * shrink)
        return spec

    return {"joins": pick(JOINS), "planes": pick(PLANE_DATA), "serve": pick(SERVES),
            "probes": {key: max(64, int(value * shrink)) for key, value in PROBES.items()}}


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)


def _check_pin(tally, key, seed, smoke, fingerprint, result_pairs=None) -> dict:
    """At seed 0 the dataset fingerprint and result count are pinned."""
    observed = {"dataset_sha256": fingerprint}
    if result_pairs is not None:
        observed["result_pairs"] = result_pairs
    if seed == 0:
        with open(HERE / "pinned.json", encoding="utf-8") as handle:
            pinned = json.load(handle)["smoke" if smoke else "full"].get(key)
        tally.check(pinned == observed,
                    f"{key}: seed-0 pin {pinned} != observed {observed}")
    return observed


# ------------------------------------------------------------- join sections

#: What each join-type section calls: metric prefix -> Context arguments.
CALLS = {"joins": {name: {} for name in ALGORITHMS}, "planes": PLANES}


def _make_dataset(spec, seed):
    begin = time.perf_counter()
    dataset = adapter.make_dataset(spec["name"], scale=spec["scale"], seed=seed,
                                   size_factor=spec["size_factor"])
    return dataset, time.perf_counter() - begin


def _join_rounds(kind, dataset, expected, budget_s, warm_s, trace, recorder, tally):
    """Rounds of one join call per entry of ``CALLS[kind]`` until the next
    round would overrun ``budget_s`` (always at least one).  Every result
    is checked against ``expected`` (the oracle's partners of the probe
    rids) and against the other results of its round.  Returns per-name
    wall lists and each name's last run."""
    # The floor of 8 only binds at --smoke sizes.
    delta = max(8, len(dataset) // CLP_DELTA_DIVISOR)
    walls = {name: [] for name in CALLS[kind]}
    runs = {}
    begin = time.perf_counter()
    round_s = 0.0
    while not runs or time.perf_counter() - begin + round_s <= budget_s:
        round_begin = time.perf_counter()
        hashes = set()
        for name, plane in CALLS[kind].items():
            if "executor" in plane:
                adapter.warm_both_cores(warm_s)
            with span(recorder, f"{kind}.{name}", op=f"{kind}.{name}") as record:
                run = adapter.run_join(
                    dataset, THETA_JOIN, "clp" if name.endswith("clp") else name,
                    num_partitions=NUM_PARTITIONS, delta=delta, trace=trace, **plane)
                record["attrs"] = {"phase_seconds": run["phase_seconds"],
                                   "program_trace_digest": run["digest"]}
            walls[name].append(run["wall_s"])
            hashes.add(oracle.pairs_sha256(run["pairs"]))
            problems = oracle.check_join(run["pairs"], expected)
            tally.check(not problems, f"{kind}.{name}: " + "; ".join(problems[:3]))
            runs[name] = run
        tally.check(len(hashes) == 1, f"{kind}: the join results differ from one another")
        round_s = time.perf_counter() - round_begin
    return walls, runs


def _join_layer_metrics(name, run) -> dict:
    phases, stats = run["phase_seconds"], run["stats"]
    out = {f"joins.{name}.{phase}_s": seconds for phase, seconds in phases.items()}
    for field in ("candidates", "position_filtered", "triangle_filtered", "verified", "results"):
        out[f"joins.{name}.{field}"] = stats[field]
    out[f"joins.{name}.verified_per_result"] = stats["verified"] / max(1, stats["results"])
    if name == "clp":
        out["joins.clp.repartitioned_groups"] = stats["repartitioned_groups"]
        scheduler = run["scheduler"]
        for key in ("stages", "tasks", "task_busy_s", "stage_wall_s", "driver_gap_s",
                    "task_skew_max_over_mean"):
            out[f"minispark.scheduler.{key}"] = scheduler[key]
        out["minispark.rdd.shuffle_records"] = scheduler["shuffle_records"]
        out["minispark.rdd.shuffle_bytes"] = scheduler["shuffle_bytes"]
    return out


def _plane_layer_metrics(walls, runs) -> dict:
    procs, spill = runs["procs_clp"], runs["spill_clp"]["spill"]
    serial_wall = statistics.median(walls["clp"])
    return {
        "minispark.executors.procs_over_serial":
            statistics.median(walls["procs_clp"]) / serial_wall,
        "minispark.executors.worker_respawns": procs["recovery"]["worker_respawns"],
        "minispark.executors.retries": procs["recovery"]["retries"],
        "minispark.executors.fallbacks": procs["recovery"]["fallbacks"],
        "minispark.executors.worker_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "minispark.broadcast.segments": procs["broadcast"]["segments"],
        "minispark.broadcast.shm_bytes": procs["broadcast"]["shm_bytes"],
        "minispark.broadcast.stage_bytes": procs["scheduler"]["broadcast_stage_bytes"],
        "minispark.broadcast.fallbacks": procs["broadcast"]["fallbacks"],
        "minispark.broadcast.live_segments_after": procs["broadcast"]["live_segments"],
        "minispark.spill.spilled_bytes": spill["spilled_bytes"],
        "minispark.spill.spill_files": spill["spill_files"],
        "minispark.spill.peak_tracked_bytes": spill["peak_tracked_bytes"],
        "minispark.spill.read_retries": spill["spill_read_retries"],
        "minispark.spill.memory_fallbacks": spill["memory_fallbacks"],
        "minispark.spill.spill_over_memory":
            statistics.median(walls["spill_clp"]) / serial_wall,
        "minispark.spill.leaked_files_after": spill["leaked_files_after"],
    }


def _join_accounting(runs) -> dict:
    """Each join's wall as its phases (the driver gap is the part of the
    phases not spent inside a stage) and what no phase covers."""
    table = {}
    for name, run in runs.items():
        inside = sum(run["phase_seconds"].values())
        table[name] = {
            "wall_s": run["wall_s"],
            **{f"{phase}_s": value for phase, value in run["phase_seconds"].items()},
            "driver_gap_s": run["scheduler"]["driver_gap_s"],
            "accounted_share": min(1.0, inside / run["wall_s"]),
        }
    return table


def join_section(kind, spec, seed, seconds, trace, recorder, tally, out) -> dict:
    """The ``joins`` or the ``planes`` section on one generated dataset."""
    dataset, make_s = _make_dataset(spec, seed)
    out["setup_s"] += make_s
    arrays = adapter.dataset_arrays(dataset)
    rng = np.random.default_rng(seed + 1)
    probe_rows = rng.choice(len(arrays[0]), size=min(ORACLE_PROBES, len(arrays[0])),
                            replace=False).tolist()
    expected = oracle.join_partners(*arrays, probe_rows, THETA_JOIN_HUNDREDTHS)
    values: dict = {}
    # Untraced rounds give the end-to-end walls.  A traced run times one
    # more, traced, round; of a ref section it times only that one.
    walls = None
    warm_s = WARM_SECONDS * (0.25 if out["smoke"] else 1.0)
    if not trace or spec["native"]:
        walls, runs = _join_rounds(kind, dataset, expected,
                                   seconds if spec["native"] else 0.0, warm_s, False, None,
                                   tally)
    if trace:
        traced_walls, runs = _join_rounds(kind, dataset, expected, 0.0, warm_s, True, recorder,
                                          tally)
        out["accounting"][kind] = _join_accounting(runs)
        if walls is not None:
            base = sum(statistics.median(v) for v in walls.values())
            values["trace.overhead_share"] = (
                sum(statistics.median(v) for v in traced_walls.values()) - base) / base
        walls = walls or traced_walls
    values.update({f"{name}_wall_s": statistics.median(walls[name]) for name in walls})
    key = f"{kind}:{spec['name']}:x{spec['scale']}:f{spec['size_factor']}"
    out["pins"][key] = _check_pin(tally, key, seed, out["smoke"],
                                  oracle.dataset_sha256(*arrays), len(runs["clp"]["pairs"]))
    if kind == "planes":
        peak = runs["spill_clp"]["spill"]["peak_tracked_bytes"]
        tally.check(peak <= SPILL_BUDGET_BYTES, f"spill tracked {peak} B, over its budget")
    if not trace:
        return values

    if kind == "planes":
        values.update(_plane_layer_metrics(walls, runs))
        tally.check(runs["procs_clp"]["broadcast"]["live_segments"] == 0,
                    "broadcast segments left live after the join")
        tally.check(runs["spill_clp"]["spill"]["leaked_files_after"] == 0,
                    "spill files left after the join")
        if spec["native"]:  # engine_planes: the serial cl-p run is the native one
            values.update(_join_layer_metrics("clp", runs["clp"]))
            values["rankings.generator.make_dataset_s"] = make_s
        return values

    values["rankings.generator.make_dataset_s"] = make_s
    for name in ALGORITHMS:
        values.update(_join_layer_metrics(name, runs[name]))
    probes = out["sizes"]["probes"]
    with span(recorder, "probe.rankings"):
        metrics, store = adapter.probe_rankings(dataset)
    values.update(metrics)
    with span(recorder, "probe.kernels"):
        values.update(adapter.probe_kernels(store, THETA_JOIN, rng,
                                            verify_pairs=probes["verify_pairs"],
                                            small_groups=probes["small_groups"]))
    with span(recorder, "probe.engine"):
        values.update(adapter.probe_engine(rng, shuffle_records=probes["shuffle_records"],
                                           num_partitions=NUM_PARTITIONS))
    return values


# ------------------------------------------------------------- serve section

def _serve_setup(spec, seed):
    """Corpus, spares and the sharded index; returns the two set-up times."""
    begin = time.perf_counter()
    dataset = adapter.make_dataset("dblp", scale=spec["scale"], seed=42 + seed,
                                   size_factor=spec["size_factor"])
    rankings = adapter.rankings_of(dataset)
    cut = spec["corpus"]
    corpus = adapter.renumbered(rankings[:cut])
    spares = adapter.renumbered(rankings[cut:], start=cut)
    make_s = time.perf_counter() - begin
    begin = time.perf_counter()
    index = adapter.build_sharded(corpus, num_shards=SERVE["num_shards"],
                                  theta_max=SERVE["theta_max"])
    return corpus, spares, index, make_s, time.perf_counter() - begin


class _Mirror:
    """The oracle's copy of the index contents, brought up to date from
    the traffic's completed writes at moments when nothing is in flight."""

    def __init__(self, corpus):
        self.corpus = oracle.Corpus([r.rid for r in corpus], [r.items for r in corpus])

    def catch_up(self, traffic) -> None:
        for ranking in traffic.inserted:
            self.corpus.insert(ranking.rid, ranking.items)
        for rid in traffic.deleted:
            self.corpus.delete(rid)
        traffic.inserted.clear()
        traffic.deleted.clear()


def _median(samples) -> float:
    return statistics.median(samples) if samples else 0.0


def _stats_delta(after, before) -> dict:
    return {key: after[key] - before[key] for key in
            ("cache_hits", "cache_misses", "batches", "batched_requests", "invalidations")}


class _Serving:
    """One serve section: phase A closed loop, phase B open loop (traced:
    at 0.5x, 1x and 1.3x the pinned rate), phase C delta join."""

    def __init__(self, spec, seed, seconds, trace, recorder, tally, out):
        self.spec, self.seed, self.seconds, self.trace = spec, seed, seconds, trace
        self.recorder, self.tally, self.out = recorder, tally, out
        self.corpus, spares, self.index, self.make_s, self.build_s = _serve_setup(spec, seed)
        self.all_rankings = self.corpus + spares
        self.arrivals = spares[len(spares) - spec["arrivals"]:]
        self.spare_pool = spares[:len(spares) - spec["arrivals"]]
        self.traffic = self._traffic(seed + 7, spec["write_ratio"])
        self.mirror = _Mirror(self.corpus)
        self.proxy = loadgen.TimedIndex(self.index, recorder) if trace else None
        self.service = adapter.Service(self.proxy or self.index, SERVE["cache_size"])
        self.accounting = out["accounting"].setdefault("serve", {}) if trace else None
        self.meter = None
        self.values: dict = {}

    def _traffic(self, seed, write_ratio):
        return loadgen.Traffic(self.corpus, self.spare_pool, seed=seed,
                               hot_set=SERVE["hot_set"], write_ratio=write_ratio)

    async def _phase(self, name, loop_function, traffic=None, **kwargs):
        """Run one traffic phase; traced, under a span with the index
        proxy's busy time and the loop's idle time taken around it."""
        traffic = traffic or self.traffic
        if not self.trace:
            phase = await loop_function(self.service, traffic, theta=THETA_SERVE, **kwargs)
            busy = None
        else:
            busy, idle = self.proxy.busy_s(), self.meter.idle_s
            with span(self.recorder, f"serve.{name}") as record:
                self.proxy.parent = record["id"]
                phase = await loop_function(self.service, traffic, theta=THETA_SERVE,
                                            recorder=self.recorder, parent=record["id"],
                                            **kwargs)
            busy, idle = self.proxy.busy_s() - busy, self.meter.idle_s - idle
            self.accounting[name] = {
                "wall_s": phase.wall_s, "index_busy_s": busy, "idle_s": idle,
                "service_overhead_s": phase.wall_s - busy - idle,
                "requests": phase.completed,
            }
        self.tally.ops(phase.attempted, phase.failed)
        self.mirror.catch_up(traffic)
        return phase, busy

    def _open(self, name, rate, seconds, traffic=None):
        return self._phase(name, loadgen.open_loop, traffic, rate=rate, seconds=seconds,
                           seed=self.seed + 7, limit_ms=LATENCY_LIMIT_MS)

    async def _check_answers(self, queries) -> None:
        """Sampled answers against the oracle on the contents right now
        (called with no operation in flight)."""
        for query in queries:
            got = [tuple(pair) for pair in await self.service.query(query, THETA_SERVE)]
            want = self.mirror.corpus.range_query(query.items, THETA_SERVE_HUNDREDTHS,
                                                  exclude_rid=query.rid)
            self.tally.check(got == want,
                             f"query rid {query.rid}: got {got[:4]}, oracle {want[:4]}")

    async def run(self) -> None:
        spec, values, seconds = self.spec, self.values, self.seconds
        rng = np.random.default_rng(self.seed + 7)
        checks = [self.corpus[i] for i in
                  rng.integers(0, len(self.corpus), ORACLE_PROBES).tolist()]
        closed = {"clients": SERVE["clients"], "seconds": spec["closed"] * seconds}
        untraced_capacity = None
        if self.trace:
            self.meter = loadgen.IdleMeter(asyncio.get_running_loop())
            if spec["native"]:
                # The same closed phase on an untraced service: the base of
                # trace.overhead_share.
                baseline = await loadgen.closed_loop(
                    adapter.Service(self.index, SERVE["cache_size"]), self.traffic,
                    theta=THETA_SERVE, **closed)
                self.tally.ops(baseline.attempted, baseline.failed)
                self.mirror.catch_up(self.traffic)
                untraced_capacity = baseline.completed / baseline.wall_s

        before = self.service.stats()
        phase_a, busy_a = await self._phase("closed", loadgen.closed_loop, **closed)
        stats_a = _stats_delta(self.service.stats(), before)
        values["serve_capacity_qps"] = phase_a.completed / phase_a.wall_s
        await self._check_answers(checks[:ORACLE_PROBES // 2])

        before = self.service.stats()
        open_s = spec["sweep" if self.trace else "open"] * seconds
        phase_b, busy_b = await self._open("open", spec["rate"], open_s)
        stats_b = _stats_delta(self.service.stats(), before)
        values["query_p50_ms"] = loadgen.percentile(phase_b.query_ms, 50)
        values["query_p95_ms"] = loadgen.percentile(phase_b.query_ms, 95)
        await self._check_answers(checks[ORACLE_PROBES // 2:])

        updates = phase_b
        if spec["write_ratio"] == 0:
            # A read-only workload still owes update_p50_ms: a short mixed tail.
            updates, _ = await self._open("open_mixed_tail", spec["tail_rate"],
                                          spec["tail"] * seconds,
                                          self._traffic(self.seed + 8, spec["tail_write_ratio"]))
        values["update_p50_ms"] = loadgen.percentile(updates.update_ms, 50)
        if not self.trace:
            return

        sweeps = {1.0: phase_b}
        for factor, label in ((0.5, "0.5x"), (1.3, "1.3x")):
            sweeps[factor], _ = await self._open(f"open_{label}", spec["rate"] * factor, open_s)
            values[f"serving.service.p95_ms_at_{label}"] = loadgen.percentile(
                sweeps[factor].query_ms, 95)
        # A rate is sustained when p95 meets the limit (failed and pending
        # requests count as over it) and fewer requests than one limit's
        # worth of arrivals are outstanding when the schedule ends.
        sustained = [
            spec["rate"] * factor for factor, phase in sweeps.items()
            if phase.over_limit <= 0.05 * phase.attempted
            and phase.backlog_end < spec["rate"] * factor * LATENCY_LIMIT_MS / 1e3
        ]
        timed = self.proxy.seconds
        values.update({
            "serving.sharded.build_s": self.build_s,
            "serving.sharded.query_batch_ms": _median(timed["query_batch"]) * 1e3,
            "serving.sharded.query_batch_calls": len(timed["query_batch"]),
            "serving.sharded.busy_share_closed": busy_a / phase_a.wall_s,
            "serving.sharded.busy_share_open": busy_b / phase_b.wall_s,
            "serving.sharded.insert_us": _median(timed["insert"]) * 1e6,
            "serving.sharded.delete_us": _median(timed["delete"]) * 1e6,
            "serving.service.cache_hit_rate":
                stats_b["cache_hits"] / max(1, stats_b["cache_hits"] + stats_b["cache_misses"]),
            "serving.service.batching_factor":
                stats_a["batched_requests"] / max(1, stats_a["batches"]),
            "serving.service.max_batch": self.service.stats()["max_batch"],
            "serving.service.invalidations":
                stats_a["invalidations"] + stats_b["invalidations"],
            "serving.service.overhead_us_per_request":
                (phase_a.wall_s - busy_a) / max(1, phase_a.completed) * 1e6,
            "serving.service.query_p99_ms": loadgen.percentile(phase_b.query_ms, 99),
            "serving.service.update_p95_ms": loadgen.percentile(updates.update_ms, 95),
            "serving.service.over_limit_share": phase_b.over_limit / max(1, phase_b.attempted),
            "serving.service.backlog_end": phase_b.backlog_end,
            "serving.service.max_rate_ok_qps": max(sustained, default=0.0),
            "serving.loadgen.late_p99_ms": loadgen.percentile(phase_b.late_ms, 99),
        })
        self.tally.check(values["serving.loadgen.late_p99_ms"] < 20.0,
                         "the open-loop generator ran over 20 ms late at p99: run invalid")
        if untraced_capacity is not None:
            values["trace.overhead_share"] = (
                untraced_capacity / values["serve_capacity_qps"] - 1.0)
        await self._tcp_probe()
        self.meter.close()

    async def _tcp_probe(self) -> None:
        """Two closed-loop localhost connections, cache off, against the
        in-process latency of the same probes on the same index."""
        count = self.out["sizes"]["probes"]["tcp_queries"]
        rng = np.random.default_rng(self.seed + 9)
        probes = [self.corpus[i] for i in rng.integers(0, len(self.corpus), count).tolist()]
        uncached = adapter.Service(self.index, 0)
        in_process = []
        for query in probes[:256]:
            begin = time.perf_counter()
            await uncached.query(query, THETA_SERVE)
            in_process.append((time.perf_counter() - begin) * 1e3)
        with span(self.recorder, "probe.tcp"):
            rtts = await loadgen.tcp_round_trips(
                uncached, [adapter.tcp_query_line(q, THETA_SERVE) for q in probes])
        self.tally.ops(len(probes))
        rtt = loadgen.percentile(rtts, 50)
        self.values["serving.tcp.rtt_p50_ms"] = rtt
        self.values["serving.tcp.overhead_ms"] = rtt - loadgen.percentile(in_process, 50)

    def delta_join(self) -> None:
        """Phase C: the arrivals through ``delta_join`` into the live index."""
        values, arrivals = self.values, self.arrivals
        if self.trace:
            timed = self.proxy.seconds
            before = sum(timed["query"]), sum(timed["insert"])
            with span(self.recorder, "serve.delta") as record:
                self.proxy.parent = record["id"]
                delta = adapter.delta_join(arrivals, self.proxy, THETA_SERVE)
            query_s, insert_s = sum(timed["query"]) - before[0], sum(timed["insert"]) - before[1]
            values["serving.delta.query_share"] = query_s / delta["wall_s"]
            values["serving.delta.pairs_per_arrival"] = len(delta["pairs"]) / len(arrivals)
            self.accounting["delta"] = {"wall_s": delta["wall_s"], "index_query_s": query_s,
                                        "index_insert_s": insert_s}
        else:
            delta = adapter.delta_join(arrivals, self.index, THETA_SERVE)
        values["delta_rankings_per_s"] = len(arrivals) / delta["wall_s"]
        want = oracle.delta_pairs(self.mirror.corpus, [(r.rid, r.items) for r in arrivals],
                                  THETA_SERVE_HUNDREDTHS)
        self.tally.ops(len(arrivals) - 1)
        self.tally.check(delta["pairs"] == want,
                         f"delta join: {len(delta['pairs'])} pairs, oracle {len(want)}")

    def search_probe(self) -> None:
        """Both index kinds, built afresh on the residents of shard 0; the
        arrivals serve as the rankings to insert and delete."""
        probes = self.out["sizes"]["probes"]
        shard = [r for r in self.corpus if r.rid % SERVE["num_shards"] == 0]
        rng = np.random.default_rng(self.seed + 10)
        queries = [shard[i] for i in rng.integers(0, len(shard), probes["index_queries"]).tolist()]
        with span(self.recorder, "probe.search"):
            self.values.update(adapter.probe_search(
                shard, self.arrivals[:probes["index_mutations"]], queries,
                THETA_SERVE, SERVE["theta_max"]))


def serve_section(spec, seed, seconds, trace, recorder, tally, out) -> dict:
    serving = _Serving(spec, seed, seconds, trace, recorder, tally, out)
    out["setup_s"] += serving.make_s + serving.build_s
    key = f"serve:x{spec['scale']}:f{spec['size_factor']}:n{spec['corpus']}"
    out["pins"][key] = _check_pin(
        tally, key, seed, out["smoke"],
        oracle.dataset_sha256(*adapter.dataset_arrays(serving.all_rankings)))
    asyncio.run(serving.run())
    serving.delta_join()
    if trace:
        serving.search_probe()
    return serving.values


# ------------------------------------------------------------------ workload

SECTIONS = {
    "joins": lambda *args: join_section("joins", *args),
    "planes": lambda *args: join_section("planes", *args),
    "serve": serve_section,
}


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
        setup_only: bool, startup_s: float) -> dict:
    """One workload in this process.  ``ref`` sections run first, so the
    native section's values win the merge."""
    out = {"workload": workload, "seed": seed, "smoke": smoke,
           "native_metrics": NATIVE_METRICS[workload],
           "sizes": sizes(workload, smoke), "setup_s": startup_s,
           "pins": {}, "accounting": {}}
    if setup_only:
        for section in ("joins", "planes"):
            out["setup_s"] += _make_dataset(out["sizes"][section], seed)[1]
        out["setup_s"] += sum(_serve_setup(out["sizes"]["serve"], seed)[3:])
        return out
    tally = Tally()
    recorder = Recorder() if trace else None
    values: dict = {}
    out["section_seconds"] = {}
    for section in sorted(SECTIONS, key=lambda name: out["sizes"][name]["native"]):
        begin = time.perf_counter()
        with span(recorder, f"section.{section}"):
            values.update(SECTIONS[section](out["sizes"][section], seed, seconds, trace,
                                            recorder, tally, out))
        gc.collect()
        out["section_seconds"][section] = time.perf_counter() - begin
    values["setup_s"] = out.pop("setup_s")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if trace:
        (HERE / "out").mkdir(exist_ok=True)
        recorder.dump(HERE / "out" / f"trace_{workload}.json", workload=workload,
                      seed=seed, smoke=smoke, accounting=out["accounting"])
    out.update(values=values, attempted=tally.attempted, failed=tally.failed,
               problems=tally.problems)
    return out
