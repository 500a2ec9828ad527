"""Out-of-core overhead: a 4 MiB budget on an over-budget workload.

The robustness acceptance bar for the spill subsystem: every algorithm
completes on a workload whose in-memory shuffle footprint *exceeds* the
4 MiB budget (ORKU top-25 x34 shuffles 10 MB for VJ and 140-150 MB for
CL/CL-P even at ``REPRO_BENCH_SCALE=0.3``), returns exactly the in-memory results and ``JoinStats``,
keeps the tracked shuffle memory under budget, and pays only bounded
wall-clock overhead for streaming checksummed segments through disk.

Raw numbers go to ``results/BENCH_spill.json``; the ``spill-soak`` CI
job replays the same contract under disk-fault chaos via the CLI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import RunConfig, format_series_table, run, write_bench_json

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's large top-25 cut: the standard workload with the largest
#: shuffle footprint.  The budget sits below what the slimmest shuffle
#: (VJ's) needs at the CI scale of 0.3, so all four algorithms spill.
WORKLOAD = "orku25x34"
THETA = 0.25
BUDGET = 4 * 1024 * 1024
ALGORITHMS = ["vj", "vj-nl", "cl", "cl-p"]


def _config(algorithm: str, budget: int | None) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        workload=WORKLOAD,
        theta=THETA,
        num_partitions=16,
        memory_budget_bytes=budget,
    )


@pytest.mark.benchmark(group="spill")
def test_spill_overhead(benchmark, report):
    def sweep():
        records = {"memory": [], "spill": []}
        for algorithm in ALGORITHMS:
            records["memory"].append(run(_config(algorithm, None)))
            records["spill"].append(run(_config(algorithm, BUDGET)))
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_series_table(
        f"Out-of-core overhead: {WORKLOAD}, theta={THETA}, "
        f"budget {BUDGET >> 20} MiB — wall time",
        "algorithm", ALGORITHMS,
        {
            mode: [r.wall_seconds for r in records[mode]]
            for mode in ("memory", "spill")
        },
    )

    summary: dict = {
        "workload": WORKLOAD, "theta": THETA, "budget_bytes": BUDGET,
    }
    lines = []
    for index, algorithm in enumerate(ALGORITHMS):
        memory = records["memory"][index]
        spilled = records["spill"][index]
        overhead = spilled.wall_seconds / memory.wall_seconds
        summary[algorithm] = {
            "wall_overhead": overhead,
            "spilled_bytes": spilled.spill["spilled_bytes"],
            "spill_files": spilled.spill["spill_files"],
            "peak_tracked_bytes": spilled.spill["peak_tracked_bytes"],
        }
        lines.append(
            f"{algorithm}: x{overhead:.2f} wall overhead, "
            f"{spilled.spill['spilled_bytes']} bytes spilled in "
            f"{spilled.spill['spill_files']} files, peak tracked "
            f"{spilled.spill['peak_tracked_bytes']} bytes"
        )
    report("spill_overhead", table + "\n\n" + "\n".join(lines))

    flat = [r for mode in ("memory", "spill") for r in records[mode]]
    write_bench_json(RESULTS_DIR, "spill", flat, extra=summary)

    for index, algorithm in enumerate(ALGORITHMS):
        memory = records["memory"][index]
        spilled = records["spill"][index]
        # Byte-identical joins: same pairs, same exact filter counters.
        assert spilled.result_count == memory.result_count, algorithm
        assert spilled.stats == memory.stats, algorithm
        # The budget really was exceeded in memory and honoured on disk.
        assert memory.shuffle_bytes > BUDGET, algorithm
        assert spilled.spill["spill_files"] > 0, algorithm
        assert spilled.spill["peak_tracked_bytes"] <= BUDGET, algorithm
        assert spilled.spill["memory_fallbacks"] == 0, algorithm
        # Streaming through checksummed segments costs bounded overhead.
        assert spilled.wall_seconds <= memory.wall_seconds * 3 + 5, algorithm
