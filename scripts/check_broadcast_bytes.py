#!/usr/bin/env python
"""CI guard: broadcasts must ship handles, not payloads, on the shm plane.

Runs VJ and CL on a fixed deterministic workload (DBLP profile,
size_factor 0.3, seed 0, processes executor, 8 partitions) on both
broadcast planes and asserts the zero-copy contract:

* on the shared-memory plane every stage that references a broadcast is
  charged only handle-sized closure bytes (segment name + metadata, a
  few hundred bytes) — never the payload;
* the pickle plane charges the payload per referencing stage, so its
  per-stage maximum must dwarf the shm plane's (the regression this
  guards: a broadcast payload sneaking back into stage closures);
* no payload is ever re-pickled on the fork backend (the registry is
  inherited copy-on-write) and both planes return byte-identical pairs
  and ``JoinStats``;
* no shared-memory segment is live or leaked once a join returns.

Usage::

    PYTHONPATH=src python scripts/check_broadcast_bytes.py
"""

from __future__ import annotations

import sys

from repro.joins import cl_join, vj_join
from repro.minispark import Context
from repro.minispark.broadcast import shm_available
from repro.rankings import make_dataset

THETA = 0.25
NUM_PARTITIONS = 8
#: A charged stage on the shm plane ships segment names and array
#: shapes; a handful of handles stays far below this.
HANDLE_BYTES_CAP = 4096


def run_plane(join, dataset, shm: bool):
    ctx = Context(
        default_parallelism=NUM_PARTITIONS, executor="processes",
        shm_broadcast=shm,
    )
    result = join(ctx, dataset, THETA, num_partitions=NUM_PARTITIONS)
    charged = [
        (stage.name, stage.broadcast_bytes)
        for job in ctx.metrics.jobs
        for stage in job.stages
        if stage.broadcast_handles
    ]
    return ctx, result, charged


def main() -> int:
    if not shm_available():
        print("multiprocessing.shared_memory unavailable; nothing to check")
        return 0
    dataset = make_dataset("dblp", size_factor=0.3, seed=0)
    failures = []
    for name, join in (("vj", vj_join), ("cl", cl_join)):
        shm_ctx, shm_result, shm_charged = run_plane(join, dataset, True)
        pkl_ctx, pkl_result, pkl_charged = run_plane(join, dataset, False)

        if not shm_charged:
            failures.append(f"{name}: no stage charged a broadcast handle")
            continue
        worst = max(nbytes for _stage, nbytes in shm_charged)
        pkl_worst = max(nbytes for _stage, nbytes in pkl_charged)
        summary = shm_ctx.broadcasts.summary()
        print(
            f"{name:3s} shm: {len(shm_charged)} charged stages, "
            f"worst {worst} B/stage, {summary['segments']} segments / "
            f"{summary['shm_bytes']} B published | pickle: worst "
            f"{pkl_worst} B/stage"
        )
        for stage, nbytes in shm_charged:
            if nbytes > HANDLE_BYTES_CAP:
                failures.append(
                    f"{name}: stage {stage!r} charged {nbytes} broadcast "
                    f"bytes on the shm plane (cap {HANDLE_BYTES_CAP}) — "
                    "a payload is riding in the closure"
                )
        if pkl_worst <= worst:
            failures.append(
                f"{name}: pickle plane per-stage max ({pkl_worst} B) does "
                f"not exceed the shm plane's ({worst} B) — the payload "
                "accounting is broken"
            )
        if summary["payload_pickles"] != 0:
            failures.append(
                f"{name}: {summary['payload_pickles']} payload pickles on "
                "the fork backend — the registry was not inherited"
            )
        for ctx, plane in ((shm_ctx, "shm"), (pkl_ctx, "pickle")):
            if ctx.broadcasts.live_segments():
                failures.append(f"{name}/{plane}: live segments leaked")
            if ctx.broadcasts.leaked_segments():
                failures.append(f"{name}/{plane}: leaked segments")
        if sorted(shm_result.pairs) != sorted(pkl_result.pairs):
            failures.append(f"{name}: planes returned different pairs")
        if vars(shm_result.stats) != vars(pkl_result.stats):
            failures.append(f"{name}: planes returned different stats")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("broadcast bytes within handle-sized bounds on the shm plane")
    return 0


if __name__ == "__main__":
    sys.exit(main())
