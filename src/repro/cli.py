"""Command-line interface: ``python -m repro <command>``.

Five commands cover the operational loop of the library:

* ``generate`` — write a synthetic paper-shaped dataset to a text file;
* ``join`` — run any algorithm on a dataset file and print/save the pairs;
* ``stats`` — dataset, posting-list, and clustering statistics for tuning;
* ``delta-join`` — join an arrival batch against (and into) an indexed
  corpus: the streaming complement of ``join``;
* ``serve`` — run the asyncio search service over a dataset (JSON line
  protocol over TCP; see DESIGN.md §15).

Example session::

    python -m repro generate dblp --scale 5 -o dblp5.txt
    python -m repro stats dblp5.txt --theta 0.3
    python -m repro join dblp5.txt --theta 0.3 --algorithm cl-p \
        --delta 200 -o pairs.txt
    python -m repro delta-join dblp5.txt arrivals.txt --theta 0.3
    python -m repro serve dblp5.txt --port 7878
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .analysis import (
    cluster_statistics,
    dataset_statistics,
    estimate_posting_lists,
    posting_list_statistics,
    suggest_partition_threshold,
)
from .joins.api import ALGORITHMS, similarity_join
from .minispark.chaos import FaultPlan, SpeculationPolicy
from .minispark.context import Context
from .minispark.executors import EXECUTOR_NAMES
from .rankings.dataset import RankingDataset
from .rankings.generator import PROFILES, make_dataset


def parse_bytes(text: str) -> int:
    """Parse a byte count with optional K/M/G suffix (binary multiples)."""
    raw = text.strip()
    multiplier = 1
    suffixes = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    if raw and raw[-1].lower() in suffixes:
        multiplier = suffixes[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = int(raw) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid byte count {text!r} (examples: 1048576, 64M, 2G)"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"byte count must be positive, got {text!r}"
        )
    return value


#: ``--chaos`` key -> FaultPlan field: ``seed`` plus every rate field
#: without its ``_rate``.
CHAOS_KEYS = {"seed": "seed"} | {
    field.name.removesuffix("_rate"): field.name
    for field in dataclasses.fields(FaultPlan)
    if field.name.endswith("_rate")
}


def parse_chaos(text: str) -> FaultPlan:
    """Build the ``--chaos seed=42,transient=0.2,...`` fault plan.

    Raises ``ValueError`` on an unknown key, a malformed value, or a
    rate outside ``[0, 1]`` (the latter from ``FaultPlan`` itself).
    """
    plan: dict = {}
    for part in text.split(","):
        key, _, raw = part.strip().partition("=")
        if key not in CHAOS_KEYS:
            raise ValueError(
                f"--chaos: unknown key {key!r}; choose from "
                + ", ".join(CHAOS_KEYS)
            )
        try:
            plan[CHAOS_KEYS[key]] = int(raw) if key == "seed" else float(raw)
        except ValueError:
            raise ValueError(
                f"--chaos: {key} needs a number, got {raw!r}"
            ) from None
    return FaultPlan(**plan)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed similarity joins over top-k rankings "
        "(EDBT 2020 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset to a file"
    )
    generate.add_argument("profile", choices=sorted(PROFILES))
    generate.add_argument("--scale", type=int, default=1,
                          help="xN dataset increase (default 1)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--size-factor", type=float, default=1.0,
                          help="shrink/grow the base size (default 1.0)")
    generate.add_argument("-o", "--output", required=True)

    join = commands.add_parser("join", help="run a similarity join")
    join.add_argument("dataset", help="dataset file (from `generate` or save())")
    join.add_argument("--theta", type=float, required=True,
                      help="normalized Footrule threshold in [0, 1]")
    join.add_argument("--algorithm", choices=ALGORITHMS, default="cl")
    join.add_argument("--theta-c", type=float, default=0.03,
                      help="clustering threshold for cl/cl-p (default 0.03)")
    join.add_argument("--delta", type=int, default=None,
                      help="partitioning threshold for cl-p")
    join.add_argument("--partitions", type=int, default=16)
    join.add_argument("--executor", choices=EXECUTOR_NAMES, default="serial",
                      help="task backend: serial (default), threads, or "
                      "processes (fork-based, POSIX only)")
    join.add_argument("--max-workers", type=int, default=None,
                      help="worker count for threads/processes "
                      "(default: CPU count)")
    join.add_argument("--kernel", choices=("vectorized", "scalar"),
                      default="vectorized",
                      help="verification kernel for vj/vj-nl/cl/cl-p: "
                      "vectorized columnar batches (default) or the "
                      "per-pair scalar oracle — identical results/stats")
    join.add_argument("--task-retries", type=int, default=0,
                      help="retry budget per task before the job fails "
                      "(default 0: fail fast)")
    join.add_argument("--chaos", default=None, metavar="KEY=VALUE,...",
                      help="seeded fault-injection plan, e.g. "
                      "seed=42,transient=0.2,kill=0.1 — keys: "
                      + ", ".join(CHAOS_KEYS) + " (rates are per-attempt "
                      "probabilities in [0, 1]; kill needs the processes "
                      "executor, the spill faults --memory-budget)")
    join.add_argument("--memory-budget", type=parse_bytes, default=None,
                      metavar="BYTES",
                      help="shuffle memory budget; buckets over budget "
                      "spill to CRC32-checksummed segment files (accepts "
                      "suffixes K/M/G, e.g. 64M) — results are identical "
                      "to an in-memory run")
    join.add_argument("--spill-dir", default=None, metavar="DIR",
                      help="parent directory for spill segment files "
                      "(default: system temp; needs --memory-budget)")
    join.add_argument("--speculation", action="store_true",
                      help="duplicate straggling tasks on parallel "
                      "backends (first finished attempt wins)")
    join.add_argument("--trace-out", default=None, metavar="PATH",
                      help="write a Chrome trace_event JSON profile of "
                      "the run (open in chrome://tracing or "
                      "ui.perfetto.dev)")
    join.add_argument("--trace-summary", action="store_true",
                      help="print a profiling summary to stderr: top "
                      "stages by wall time, skew ratios, shuffle bytes")
    join.add_argument("-o", "--output", default=None,
                      help="write pairs here instead of stdout")
    join.add_argument("--stats-out", default=None, metavar="PATH",
                      help="write the JoinStats counters as sorted JSON; "
                      "byte-comparable across executors and chaos plans "
                      "(the counters are exact on every backend)")

    stats = commands.add_parser("stats", help="dataset statistics for tuning")
    stats.add_argument("dataset")
    stats.add_argument("--theta", type=float, default=0.3)
    stats.add_argument("--theta-c", type=float, default=0.03)

    delta = commands.add_parser(
        "delta-join",
        help="join an arrival batch against (and into) an indexed corpus",
    )
    delta.add_argument("corpus", help="already-indexed dataset file")
    delta.add_argument("arrivals", help="newly arrived rankings file")
    delta.add_argument("--theta", type=float, required=True,
                       help="normalized Footrule threshold in [0, 1]")
    delta.add_argument("--kind", choices=("prefix", "coarse"),
                       default="prefix", help="shard index kind")
    delta.add_argument("--shards", type=int, default=4)
    delta.add_argument("--theta-max", type=float, default=0.4,
                       help="largest theta the index supports")
    delta.add_argument("--theta-c", type=float, default=0.03,
                       help="clustering radius of coarse shards")
    delta.add_argument("--kernel", choices=("vectorized", "scalar"),
                       default="vectorized")
    delta.add_argument("--within-corpus", action="store_true",
                       help="also emit the corpus' own self-join pairs "
                       "(stream the corpus through an empty index first)")
    delta.add_argument("-o", "--output", default=None,
                       help="write pairs here instead of stdout")

    serve = commands.add_parser(
        "serve", help="run the asyncio search service over a dataset"
    )
    serve.add_argument("dataset", help="corpus to index and serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7878,
                       help="TCP port (0 picks a free one; default 7878)")
    serve.add_argument("--kind", choices=("prefix", "coarse"),
                       default="prefix")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--theta-max", type=float, default=0.4)
    serve.add_argument("--theta-c", type=float, default=0.03)
    serve.add_argument("--kernel", choices=("vectorized", "scalar"),
                       default="vectorized")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="LRU result-cache capacity (0 disables)")
    serve.add_argument("--batch-window", type=float, default=0.0,
                       help="seconds to wait for concurrent requests to "
                       "coalesce before hitting the kernels")
    serve.add_argument("--drift-threshold", type=float, default=0.05,
                       help="auto-recanonicalize when the frequency-order "
                       "drift score exceeds this (negative disables)")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       help="stop after this many seconds (default: run "
                       "until interrupted; used by tests and smoke runs)")

    return parser


def _cmd_generate(args) -> int:
    dataset = make_dataset(
        args.profile, scale=args.scale, seed=args.seed,
        size_factor=args.size_factor,
    )
    dataset.save(args.output)
    print(
        f"wrote {len(dataset)} top-{dataset.k} rankings to {args.output}"
    )
    return 0


def _cmd_join(args) -> int:
    dataset = RankingDataset.load(args.dataset)
    options: dict = {}
    if args.algorithm in ("vj", "vj-nl", "cl", "cl-p"):
        options["kernel"] = args.kernel
    if args.algorithm in ("cl", "cl-p"):
        options["theta_c"] = args.theta_c
    if args.algorithm == "cl-p":
        if args.delta is None:
            args.delta = suggest_partition_threshold(dataset, args.theta)
            print(f"delta not given; using Eq. 4 suggestion {args.delta}")
        options["partition_threshold"] = args.delta
    try:
        ctx = Context(
            default_parallelism=args.partitions,
            executor=args.executor, max_workers=args.max_workers,
            task_retries=args.task_retries,
            chaos=parse_chaos(args.chaos) if args.chaos else None,
            speculation=SpeculationPolicy() if args.speculation else None,
            tracer=True if (args.trace_out or args.trace_summary) else None,
            memory_budget_bytes=args.memory_budget,
            spill_dir=args.spill_dir,
        )
        result = similarity_join(
            dataset, args.theta, algorithm=args.algorithm, ctx=ctx,
            num_partitions=args.partitions, **options,
        ).with_distances(dataset)
    except ValueError as error:
        print(f"repro join: error: {error}", file=sys.stderr)
        return 2

    lines = [f"{i} {j} {d}" for i, j, d in sorted(result.pairs)]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    print(
        f"# {len(result)} pairs, wall {result.total_seconds:.2f}s, "
        f"candidates {result.stats.candidates}, "
        f"verified {result.stats.verified}",
        file=sys.stderr,
    )
    recovery = ctx.metrics.recovery_summary()
    if any(recovery[key] for key in ("retries", "chaos_faults",
                                     "speculative_wins", "worker_respawns",
                                     "stages_recomputed")) \
            or recovery["executor_fallbacks"]:
        print(
            f"# recovery: retries {recovery['retries']}, "
            f"chaos faults {recovery['chaos_faults']}, "
            f"speculative wins {recovery['speculative_wins']}, "
            f"worker respawns {recovery['worker_respawns']}, "
            f"stages recomputed {recovery['stages_recomputed']}, "
            f"fallbacks {recovery['executor_fallbacks']}",
            file=sys.stderr,
        )
    if ctx.spill is not None:
        spill = ctx.spill_summary()
        print(
            f"# spill: budget {spill['budget_bytes']} bytes, "
            f"spilled {spill['spilled_bytes']} bytes in "
            f"{spill['spill_files']} files, "
            f"peak tracked {spill['peak_tracked_bytes']} bytes, "
            f"read retries {spill['spill_read_retries']}, "
            f"write errors {spill['write_errors']}, "
            f"faults {spill['faults_injected']}, "
            f"memory fallbacks {spill['memory_fallbacks']}",
            file=sys.stderr,
        )
    broadcast = ctx.broadcast_summary()
    if broadcast["broadcasts"]:
        stage_bytes = ctx.metrics.combined().total_broadcast_bytes
        print(
            f"# broadcast: {broadcast['broadcasts']} broadcasts "
            f"({broadcast['dedup_hits']} deduped), "
            f"{stage_bytes} stage bytes",
            file=sys.stderr,
        )
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle:
            json.dump(vars(result.stats), handle, sort_keys=True, indent=2)
            handle.write("\n")
        print(f"# stats written to {args.stats_out}", file=sys.stderr)
    if ctx.tracer is not None:
        if args.trace_out:
            ctx.tracer.write_chrome_trace(args.trace_out)
            print(f"# trace written to {args.trace_out}", file=sys.stderr)
        if args.trace_summary:
            print(ctx.tracer.summary(), file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    dataset = RankingDataset.load(args.dataset)
    info = dataset_statistics(dataset)
    print(f"n={info.n} k={info.k} domain={info.domain_size} "
          f"zipf-skew={info.zipf_skew:.2f}")
    posting = posting_list_statistics(dataset, args.theta)
    print(
        f"prefix p={posting.prefix_size} lists={posting.num_lists} "
        f"mean={posting.mean_length:.1f} max={posting.max_length}"
    )
    print(f"eq4 estimate: {estimate_posting_lists(dataset, args.theta):.1f}")
    print(f"suggested delta: {suggest_partition_threshold(dataset, args.theta)}")
    clusters = cluster_statistics(dataset, args.theta_c)
    print(
        f"theta_c={args.theta_c}: clusters={clusters.num_clusters} "
        f"singletons={clusters.num_singletons} "
        f"reduction={clusters.reduction:.1%}"
    )
    return 0


def _make_serving_index(args, dataset):
    from .serving import ShardedIndex

    drift = getattr(args, "drift_threshold", None)
    if drift is not None and drift < 0:
        drift = None
    return ShardedIndex(
        dataset,
        kind=args.kind,
        num_shards=args.shards,
        theta_max=args.theta_max,
        theta_c=args.theta_c,
        kernel=args.kernel,
        drift_threshold=drift,
    )


def _cmd_delta_join(args) -> int:
    from .serving import ShardedIndex, delta_join

    corpus = RankingDataset.load(args.corpus)
    arrivals = RankingDataset.load(args.arrivals)
    if args.within_corpus:
        index = ShardedIndex(
            kind=args.kind, num_shards=args.shards,
            theta_max=args.theta_max, theta_c=args.theta_c,
            kernel=args.kernel, k=corpus.k,
        )
        corpus_result = delta_join(corpus, index, args.theta)
        print(
            f"# corpus self-join: {len(corpus_result)} pairs",
            file=sys.stderr,
        )
    else:
        index = _make_serving_index(args, corpus)
    result = delta_join(arrivals, index, args.theta)

    lines = [f"{i} {j} {d}" for i, j, d in result.pairs]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        for line in lines:
            print(line)
    print(
        f"# {len(result)} delta pairs for {len(arrivals)} arrivals "
        f"against {len(index) - len(arrivals)} indexed rankings, "
        f"wall {result.total_seconds:.2f}s, "
        f"candidates {result.stats.candidates}, "
        f"verified {result.stats.verified}",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serving import SearchService, serve_tcp

    dataset = RankingDataset.load(args.dataset)
    index = _make_serving_index(args, dataset)
    service = SearchService(
        index, cache_size=args.cache_size, batch_window=args.batch_window
    )

    async def run_server():
        server = await serve_tcp(service, args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(
            f"serving {len(index)} top-{index.k} rankings on "
            f"{host}:{port} ({args.kind} x{args.shards} shards, "
            f"theta_max {args.theta_max})",
            flush=True,
        )
        try:
            if args.serve_seconds is not None:
                await asyncio.sleep(args.serve_seconds)
            else:
                await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            server.close()
            await server.wait_closed()

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        pass
    snapshot = service.stats_snapshot()
    print(
        f"# served {snapshot['requests']} requests, "
        f"cache hit rate {snapshot['cache_hit_rate']:.1%}, "
        f"{snapshot['inserts']} inserts, {snapshot['deletes']} deletes",
        file=sys.stderr,
    )
    return 0


def main(argv: list | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "join": _cmd_join,
        "stats": _cmd_stats,
        "delta-join": _cmd_delta_join,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
