#!/usr/bin/env python
"""CI guard: shuffle records/bytes must not regress past the baseline.

Runs VJ and CL on a fixed deterministic workload (DBLP profile,
size_factor 0.3, seed 0, serial executor, 8 partitions) and compares the
total shuffled records and sampled shuffled bytes against the committed
baseline
``benchmarks/results/SHUFFLE_BASELINE.json``.  The check fails when
either total exceeds its baseline by more than 10% — the margin absorbs
pickle-size drift between Python versions while still catching a
reintroduced deduplication shuffle or token-payload bloat.

Each run is traced, and the per-algorithm stage count from the trace
digest is compared *exactly*: a changed stage count means the execution
plan itself changed (an extra shuffle, a dropped phase), which must be a
deliberate, baseline-updating decision rather than drift.

Usage::

    PYTHONPATH=src python scripts/check_shuffle_regression.py           # compare
    PYTHONPATH=src python scripts/check_shuffle_regression.py --update  # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.joins import cl_join, vj_join
from repro.minispark import Context
from repro.rankings import make_dataset

BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "results"
    / "SHUFFLE_BASELINE.json"
)

THETA = 0.25
NUM_PARTITIONS = 8
TOLERANCE = 0.10


def measure() -> dict:
    """Current shuffle totals for the guarded configurations."""
    dataset = make_dataset("dblp", size_factor=0.3, seed=0)
    totals: dict = {}
    for name, join in (("vj", vj_join), ("cl", cl_join)):
        ctx = Context(
            default_parallelism=NUM_PARTITIONS, executor="serial",
            tracer=True,
        )
        join(
            ctx,
            dataset,
            THETA,
            num_partitions=NUM_PARTITIONS,
        )
        combined = ctx.metrics.combined()
        digest = ctx.tracer.digest()
        totals[name] = {
            "shuffle_records": combined.total_shuffle_records,
            "shuffle_bytes": combined.total_shuffle_bytes,
            "num_stages": digest["num_stages"],
        }
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the committed baseline from the current measurement",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE,
        help=f"baseline JSON path (default: {BASELINE})",
    )
    args = parser.parse_args(argv)

    current = measure()
    if args.update:
        payload = {
            "workload": "dblp",
            "size_factor": 0.3,
            "seed": 0,
            "theta": THETA,
            "num_partitions": NUM_PARTITIONS,
            "totals": current,
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    baseline = json.loads(args.baseline.read_text())["totals"]
    failures = []
    for name, totals in current.items():
        for metric, value in totals.items():
            expected = baseline[name].get(metric)
            if expected is None:
                continue  # pre-tracing baseline without stage counts
            if metric == "num_stages":
                # Stage counts come from the trace digest and must match
                # exactly: a different count is a changed execution plan.
                status = "ok" if value == expected else "FAIL"
                print(
                    f"{name:3s} {metric:15s} baseline={expected:>9} "
                    f"current={value:>9} exact match    {status}"
                )
                if value != expected:
                    failures.append(f"{name}.{metric}")
                continue
            allowed = expected * (1 + TOLERANCE)
            status = "ok" if value <= allowed else "FAIL"
            print(
                f"{name:3s} {metric:15s} baseline={expected:>9} "
                f"current={value:>9} allowed<={allowed:>11.0f} {status}"
            )
            if value > allowed:
                failures.append(f"{name}.{metric}")
    if failures:
        print(
            f"shuffle regression: {', '.join(failures)} exceed the baseline "
            f"by more than {TOLERANCE:.0%}; if intentional, rerun with "
            "--update and commit the new baseline",
            file=sys.stderr,
        )
        return 1
    print("shuffle totals within baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
