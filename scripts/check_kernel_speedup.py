#!/usr/bin/env python
"""CI guard: the vectorized verification kernel must stay fast and exact.

Two checks, mirroring ``check_shuffle_regression.py``:

1. **Speedup floor.**  Runs VJ (index variant, serial executor, 64
   partitions) on a fixed deterministic workload large
   enough to saturate the kernels (orku25 profile at scale 34 —
   n=51000 rankings of length k=25 — theta 0.15, seed 0) with both
   verification kernels and compares the *verification-phase wall time*
   read from the trace digest's ``phase_seconds["verify"]`` span.  The
   check fails when ``scalar / vectorized`` drops below the pinned floor
   in the committed baseline
   ``benchmarks/results/KERNEL_SPEEDUP_BASELINE.json``.  The vectorized
   side is measured three times and the minimum taken (short runs are
   the noise-sensitive ones; the scalar run's ~3 minutes is stable to a
   few percent), and the vectorized runs happen first so the scalar
   run's memory pressure cannot inflate them.

2. **Counter divergence.**  The kernels must be byte-identical in
   results *and* statistics: ``vars(result.stats)`` and the sorted
   result pairs are compared between kernels for the speedup workload,
   and additionally for all four algorithms (VJ, VJ-NL, CL, CL-P) on a
   small workload where the scalar oracle is cheap.  Any mismatch fails
   the gate regardless of speed.

Usage::

    PYTHONPATH=src python scripts/check_kernel_speedup.py           # compare
    PYTHONPATH=src python scripts/check_kernel_speedup.py --update  # rewrite baseline
    PYTHONPATH=src python scripts/check_kernel_speedup.py --skip-speedup
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from repro.joins import cl_join, clp_join, vj_join, vj_nl_join
from repro.minispark import Context
from repro.rankings import make_dataset

BASELINE = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "results"
    / "KERNEL_SPEEDUP_BASELINE.json"
)

WORKLOAD = "orku25"
SCALE = 34
SEED = 0
THETA = 0.15
NUM_PARTITIONS = 64
VECTORIZED_RUNS = 3
DEFAULT_FLOOR = 10.0


def _run(dataset, kernel: str):
    """One traced VJ run; returns (verify-phase seconds, result)."""
    ctx = Context(
        default_parallelism=NUM_PARTITIONS, executor="serial", tracer=True
    )
    result = vj_join(
        ctx,
        dataset,
        THETA,
        num_partitions=NUM_PARTITIONS,
        kernel=kernel,
    )
    verify = ctx.tracer.digest()["phase_seconds"]["verify"]
    return verify, result


def _signature(result):
    return (
        sorted(result.pairs),
        {k: v for k, v in vars(result.stats).items()},
    )


def measure_speedup() -> tuple[dict, list[str]]:
    """Verification-phase walls for both kernels plus divergence list."""
    dataset = make_dataset(WORKLOAD, scale=SCALE, seed=SEED)
    failures: list[str] = []

    vectorized_walls = []
    vectorized_result = None
    for attempt in range(VECTORIZED_RUNS):
        gc.collect()
        wall, result = _run(dataset, "vectorized")
        vectorized_walls.append(wall)
        print(f"vectorized run {attempt + 1}: verify {wall:8.2f}s")
        if vectorized_result is None:
            vectorized_result = result
        elif _signature(result) != _signature(vectorized_result):
            failures.append("vectorized runs disagree with each other")

    gc.collect()
    scalar_wall, scalar_result = _run(dataset, "scalar")
    print(f"scalar run   1: verify {scalar_wall:8.2f}s")

    if _signature(scalar_result) != _signature(vectorized_result):
        failures.append(
            "speedup workload: scalar and vectorized results/stats diverge"
        )

    vectorized_wall = min(vectorized_walls)
    measurement = {
        "scalar_verify_seconds": round(scalar_wall, 3),
        "vectorized_verify_seconds": round(vectorized_wall, 3),
        "vectorized_verify_runs": [round(w, 3) for w in vectorized_walls],
        "speedup": round(scalar_wall / vectorized_wall, 3),
        "results": len(vectorized_result.pairs),
        "stats": _signature(vectorized_result)[1],
    }
    return measurement, failures


def check_counters() -> list[str]:
    """Kernel equivalence for all four algorithms on a small workload."""
    dataset = make_dataset("dblp", size_factor=0.3, seed=0)
    algorithms = (
        ("vj", lambda ctx, kernel: vj_join(
            ctx, dataset, 0.2, num_partitions=8, kernel=kernel
        )),
        ("vj-nl", lambda ctx, kernel: vj_nl_join(
            ctx, dataset, 0.2, num_partitions=8, kernel=kernel
        )),
        ("cl", lambda ctx, kernel: cl_join(
            ctx, dataset, 0.2, num_partitions=8, kernel=kernel
        )),
        ("cl-p", lambda ctx, kernel: clp_join(
            ctx, dataset, 0.2, partition_threshold=6, num_partitions=8,
            kernel=kernel,
        )),
    )
    failures = []
    for name, run in algorithms:
        signatures = {}
        for kernel in ("scalar", "vectorized"):
            ctx = Context(
                default_parallelism=8, executor="serial", tracer=False
            )
            signatures[kernel] = _signature(run(ctx, kernel))
        pairs_match = signatures["scalar"][0] == signatures["vectorized"][0]
        stats_match = signatures["scalar"][1] == signatures["vectorized"][1]
        status = "ok" if pairs_match and stats_match else "FAIL"
        print(
            f"{name:5s} pairs={len(signatures['scalar'][0]):>6} "
            f"pairs_match={pairs_match} stats_match={stats_match} {status}"
        )
        if not pairs_match:
            failures.append(f"{name}.pairs")
        if not stats_match:
            failures.append(
                f"{name}.stats scalar={signatures['scalar'][1]} "
                f"vectorized={signatures['vectorized'][1]}"
            )
    return failures


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
    parser.add_argument(
        "--skip-speedup",
        action="store_true",
        help="run only the cheap counter-equivalence check (no large run)",
    )
    args = parser.parse_args(argv)

    failures = check_counters()

    if args.skip_speedup:
        if failures:
            print(
                f"kernel divergence: {', '.join(failures)}", file=sys.stderr
            )
            return 1
        print("kernel counters identical (speedup check skipped)")
        return 0

    measurement, speedup_failures = measure_speedup()
    failures.extend(speedup_failures)

    if args.update:
        payload = {
            "workload": WORKLOAD,
            "scale": SCALE,
            "seed": SEED,
            "theta": THETA,
            "num_partitions": NUM_PARTITIONS,
            "algorithm": "vj",
            "speedup_floor": DEFAULT_FLOOR,
            "measured": measurement,
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 1 if failures else 0

    baseline = json.loads(args.baseline.read_text())
    floor = baseline.get("speedup_floor", DEFAULT_FLOOR)
    speedup = measurement["speedup"]
    status = "ok" if speedup >= floor else "FAIL"
    print(
        f"verify-phase speedup: scalar "
        f"{measurement['scalar_verify_seconds']:.2f}s / vectorized "
        f"{measurement['vectorized_verify_seconds']:.2f}s = {speedup:.2f}x "
        f"(floor {floor:.1f}x) {status}"
    )
    if speedup < floor:
        failures.append(
            f"speedup {speedup:.2f}x below the {floor:.1f}x floor"
        )
    expected_results = baseline.get("measured", {}).get("results")
    if expected_results is not None:
        match = measurement["results"] == expected_results
        print(
            f"result count: baseline={expected_results} "
            f"current={measurement['results']} "
            f"{'ok' if match else 'FAIL'}"
        )
        if not match:
            failures.append(
                f"result count {measurement['results']} != baseline "
                f"{expected_results}"
            )

    if failures:
        print(
            "kernel speedup gate failed: " + "; ".join(failures)
            + " — if the workload or kernels changed intentionally, rerun "
            "with --update and commit the new baseline",
            file=sys.stderr,
        )
        return 1
    print("vectorized kernel within baseline: fast and exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
