"""Vectorized vs scalar verification kernels across algorithms.

Two sweeps share one JSON (``results/BENCH_vectorized_kernels.json``):

* **Large** — VJ on ORKU25x34 (51k top-25 rankings, theta 0.15), the
  verification-dominated workload the kernel work targets.  The
  verification-phase wall time comes from the trace digest's
  ``phase_seconds["verify"]`` sub-phase span; the vectorized kernel is
  run twice and the faster run compared (short runs carry most of the
  timing noise).  The acceptance bar asserted here — and pinned in CI by
  ``scripts/check_kernel_speedup.py`` — is a >=10x verification speedup
  with byte-identical results and counters.
* **Small** — all four algorithms x both kernels on DBLP, checking the
  kernel switch is a pure implementation swap everywhere: identical
  result counts and filter-funnel counters, with a per-phase wall
  breakdown for the record.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import (
    RunConfig,
    format_series_table,
    run,
    speedup,
    write_bench_json,
)
from repro.bench.reporting import record_payload

RESULTS_DIR = Path(__file__).parent / "results"

LARGE_WORKLOAD = "orku25x34"
LARGE_THETA = 0.15
SMALL_WORKLOAD = "dblp"
SMALL_THETA = 0.25
KERNELS = ["scalar", "vectorized"]
ALGORITHMS = ["vj", "vj-nl", "cl", "cl-p"]
SPEEDUP_FLOOR = 10.0


def _verify_seconds(record) -> float:
    return record.trace_digest["phase_seconds"]["verify"]


def _payload(record, kernel: str, verify_seconds: float | None = None) -> dict:
    payload = record_payload(record)
    payload["kernel"] = kernel
    payload["phase_seconds"] = dict(record.phase_seconds)
    if verify_seconds is not None:
        payload["verify_seconds"] = verify_seconds
    return payload


@pytest.mark.benchmark(group="kernels")
def test_vectorized_kernels(benchmark, report):
    def sweep():
        large = {"vectorized": [], "scalar": []}
        # Vectorized twice, first, so the scalar run's memory pressure
        # cannot inflate the short measurements; scalar once (its ~3
        # minutes is stable to a few percent).
        for kernel, repeats in (("vectorized", 2), ("scalar", 1)):
            for _ in range(repeats):
                large[kernel].append(
                    run(
                        RunConfig(
                            algorithm="vj",
                            workload=LARGE_WORKLOAD,
                            theta=LARGE_THETA,
                            num_partitions=64,
                            kernel=kernel,
                        )
                    )
                )
        small = {
            kernel: [
                run(
                    RunConfig(
                        algorithm=algorithm,
                        workload=SMALL_WORKLOAD,
                        theta=SMALL_THETA,
                        num_partitions=64,
                        kernel=kernel,
                    )
                )
                for algorithm in ALGORITHMS
            ]
            for kernel in KERNELS
        }
        return large, small

    large, small = benchmark.pedantic(sweep, rounds=1, iterations=1)

    scalar = large["scalar"][0]
    vectorized = min(large["vectorized"], key=_verify_seconds)
    verify_speedup = speedup(
        _verify_seconds(scalar), _verify_seconds(vectorized)
    )
    wall_speedup = speedup(scalar.wall_seconds, vectorized.wall_seconds)

    tables = [
        format_series_table(
            f"VJ on ORKU25x34, theta={LARGE_THETA} — verification phase",
            "kernel", KERNELS,
            {
                "verify_seconds": [
                    _verify_seconds(scalar), _verify_seconds(vectorized)
                ],
                "total_wall": [scalar.wall_seconds, vectorized.wall_seconds],
            },
        ),
    ]
    tables.append(
        format_series_table(
            f"DBLP, theta={SMALL_THETA} — wall time",
            "algorithm", ALGORITHMS,
            {
                kernel: [r.wall_seconds for r in small[kernel]]
                for kernel in KERNELS
            },
        )
    )
    # One breakdown table per algorithm family — VJ and CL run through
    # different phase pipelines, so a shared matrix would be mostly holes.
    by_algorithm = {
        record.config.algorithm: record
        for record in small["vectorized"]
    }
    for family in (["vj", "vj-nl"], ["cl", "cl-p"]):
        phase_names = list(by_algorithm[family[0]].phase_seconds)
        tables.append(
            format_series_table(
                f"DBLP, theta={SMALL_THETA}, vectorized — "
                f"{'/'.join(family)} phase breakdown",
                "phase", phase_names,
                {
                    algorithm: [
                        by_algorithm[algorithm].phase_seconds.get(phase, 0.0)
                        for phase in phase_names
                    ]
                    for algorithm in family
                },
            )
        )

    summary = {
        "large_workload": LARGE_WORKLOAD,
        "large_theta": LARGE_THETA,
        "verify_speedup": verify_speedup,
        "wall_speedup": wall_speedup,
        "scalar_verify_seconds": _verify_seconds(scalar),
        "vectorized_verify_seconds": _verify_seconds(vectorized),
        "results": vectorized.result_count,
    }
    lines = [
        f"verification phase: x{verify_speedup:.1f} vectorized speedup "
        f"({_verify_seconds(scalar):.1f}s -> "
        f"{_verify_seconds(vectorized):.1f}s), "
        f"x{wall_speedup:.2f} end-to-end",
    ]
    report("vectorized_kernels", "\n\n".join(tables) + "\n\n" + "\n".join(lines))

    flat = [
        _payload(r, kernel, _verify_seconds(r))
        for kernel in KERNELS
        for r in large[kernel]
    ]
    flat += [
        _payload(r, kernel)
        for kernel in KERNELS
        for r in small[kernel]
    ]
    write_bench_json(RESULTS_DIR, "vectorized_kernels", flat, extra=summary)

    # Byte-identical outcomes on the large run...
    assert vectorized.result_count == scalar.result_count
    assert vectorized.stats == scalar.stats
    # ...and across every algorithm at small scale.
    for index, algorithm in enumerate(ALGORITHMS):
        a = small["scalar"][index]
        b = small["vectorized"][index]
        assert a.result_count == b.result_count, algorithm
        assert a.stats == b.stats, algorithm
    # The acceptance bar: >=10x on the verification phase at n>=50k.
    assert verify_speedup >= SPEEDUP_FLOOR, verify_speedup
