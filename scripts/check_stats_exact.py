#!/usr/bin/env python
"""CI guard: ``JoinStats`` must be byte-identical on every executor.

Runs one small join per algorithm (VJ, VJ-NL, CL, CL-P) on the serial
backend, then repeats each on the threads and processes backends — plus
one chaos-injected run with retries and speculation per algorithm — and
fails on the first counter that differs from the serial reference.  This is the accumulator channel's exactness
contract distilled into a fast gate: a lost fork-side delta, a
double-counted retry, or a speculation loser leaking its counts all show
up as a mismatched field here.

Fault-free threads/processes runs must additionally compute every
logical partition once: their summed ``stats_deltas_deduped`` has to be
0.  A non-zero value means ``cache()``d partitions were recomputed —
silently lost across forks, say — with the scope dedup hiding it from
the counters; only chaos runs (lineage recovery) may dedup.

Usage::

    PYTHONPATH=src python scripts/check_stats_exact.py
"""

from __future__ import annotations

import sys

from repro.joins import cl_join, vj_join
from repro.minispark import (
    Context,
    FaultPlan,
    RetryPolicy,
    SpeculationPolicy,
)
from repro.rankings import make_dataset

ALGORITHMS = ("vj", "vj-nl", "cl", "cl-p")
THETA = 0.2

_fast_retry = RetryPolicy(backoff_base_seconds=0.0)


def run_join(ctx: Context, dataset, algorithm: str):
    if algorithm in ("vj", "vj-nl"):
        return vj_join(
            ctx, dataset, THETA,
            variant="nl" if algorithm == "vj-nl" else "index",
        )
    kwargs = {"partition_threshold": 6} if algorithm == "cl-p" else {}
    return cl_join(ctx, dataset, THETA, theta_c=0.03, **kwargs)


def check(label: str, reference: dict, observed: dict) -> list:
    errors = []
    for field in sorted(reference):
        if observed.get(field) != reference[field]:
            errors.append(
                f"{label}: stats.{field} = {observed.get(field)} "
                f"(serial reference: {reference[field]})"
            )
    return errors


def main() -> int:
    dataset = make_dataset("dblp", size_factor=0.1, seed=7)
    chaos = FaultPlan(seed=9, transient_rate=0.3, shuffle_loss_rate=0.5,
                      max_faults_per_task=2)
    failures: list = []
    checked = 0
    for algorithm in ALGORITHMS:
        reference = vars(
            run_join(Context(4), dataset, algorithm).stats
        ).copy()
        contexts = {
            "threads": Context(4, executor="threads"),
            "processes": Context(4, executor="processes", max_workers=2),
            "serial+chaos": Context(
                4, chaos=chaos, task_retries=2, retry_policy=_fast_retry,
            ),
            "threads+chaos+speculation": Context(
                4, executor="threads", chaos=chaos, task_retries=2,
                retry_policy=_fast_retry,
                speculation=SpeculationPolicy(min_seconds=0.05,
                                              poll_seconds=0.01),
            ),
        }
        for name, ctx in contexts.items():
            label = f"{algorithm}/{name}"
            result = run_join(ctx, dataset, algorithm)
            failures.extend(check(label, reference, vars(result.stats)))
            if ctx.cached_partition_count() != 0:
                failures.append(
                    f"{label}: {ctx.cached_partition_count()} cached "
                    "partitions left behind"
                )
            deduped = sum(
                job.total_stats_deltas_deduped for job in ctx.metrics.jobs
            )
            if ctx.chaos is None and deduped:
                failures.append(
                    f"{label}: {deduped} stats deltas deduped on a "
                    "fault-free run (cached partitions recomputed)"
                )
            checked += 1
    if failures:
        print(f"FAIL: {len(failures)} stats mismatches across "
              f"{checked} runs:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"OK: JoinStats byte-identical across {checked} "
          f"executor/chaos runs ({len(ALGORITHMS)} algorithms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
