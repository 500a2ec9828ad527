#!/usr/bin/env python
"""CI guard: tracing must stay cheap enough to leave on by default.

Runs the CL join on a fixed smoke workload (DBLP profile, size_factor
1.0, seed 0, serial executor) alternately with and without a tracer, and
compares the best-of-N wall times.  The workload is sized so per-record
join work dominates, as in any real run — tracing cost is per
stage/task/attempt and must amortize to noise.  The check fails when the traced runs
are slower than the untraced ones by more than the threshold (default
5%, overridable via ``REPRO_TRACE_OVERHEAD_PCT``) — span bookkeeping is
a dict append per stage/task/attempt, so a larger gap means someone put
tracing work on a per-record path.

Best-of-N (not mean) is compared because scheduling noise only ever adds
time; the minimum is the cleanest estimate of the true cost on a shared
CI box.

The last traced run's profile is written to ``--trace-out`` (default
``/tmp/repro_smoke_trace.json``) so CI can upload it as a
Perfetto-loadable artifact.

Usage::

    PYTHONPATH=src python scripts/check_trace_overhead.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from repro.joins import cl_join
from repro.minispark import Context
from repro.rankings import make_dataset

THETA = 0.25
NUM_PARTITIONS = 8
REPEATS = 5


def time_run(dataset, traced: bool) -> tuple[float, Context]:
    ctx = Context(
        default_parallelism=NUM_PARTITIONS, executor="serial",
        tracer=traced,
    )
    start = perf_counter()
    cl_join(ctx, dataset, THETA, num_partitions=NUM_PARTITIONS)
    return perf_counter() - start, ctx


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("REPRO_TRACE_OVERHEAD_PCT", "5.0")),
        help="max allowed traced-over-untraced overhead in percent "
        "(default 5.0, env REPRO_TRACE_OVERHEAD_PCT)",
    )
    parser.add_argument(
        "--repeats", type=int, default=REPEATS,
        help=f"runs per mode; best of N is compared (default {REPEATS})",
    )
    parser.add_argument(
        "--trace-out", default="/tmp/repro_smoke_trace.json",
        help="where the last traced run's Chrome trace is written",
    )
    args = parser.parse_args(argv)

    dataset = make_dataset("dblp", size_factor=1.0, seed=0)
    time_run(dataset, traced=False)  # warm caches outside the measurement

    untraced: list[float] = []
    traced: list[float] = []
    last_ctx: Context | None = None
    for _ in range(args.repeats):
        # Alternate modes so drift (thermal, noisy neighbours) hits both.
        seconds, _ = time_run(dataset, traced=False)
        untraced.append(seconds)
        seconds, last_ctx = time_run(dataset, traced=True)
        traced.append(seconds)

    best_untraced = min(untraced)
    best_traced = min(traced)
    overhead_pct = (best_traced / best_untraced - 1.0) * 100.0

    if last_ctx is not None and last_ctx.tracer is not None:
        last_ctx.tracer.write_chrome_trace(args.trace_out)
        digest = last_ctx.tracer.digest()
        print(
            f"trace written to {args.trace_out} "
            f"({digest['num_stages']} stages, {digest['num_tasks']} tasks, "
            f"{len(json.dumps(digest))} B digest)"
        )

    print(
        f"untraced best of {args.repeats}: {best_untraced:.4f}s  "
        f"traced best of {args.repeats}: {best_traced:.4f}s  "
        f"overhead {overhead_pct:+.2f}%  (allowed <= {args.threshold:.1f}%)"
    )
    if overhead_pct > args.threshold:
        print(
            f"tracing overhead {overhead_pct:.2f}% exceeds the "
            f"{args.threshold:.1f}% budget — tracing work has leaked onto "
            "a hot path (it must stay per-stage/per-attempt, never "
            "per-record)",
            file=sys.stderr,
        )
        return 1
    print("tracing overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
