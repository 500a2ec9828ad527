"""Zero-copy broadcast: the shm plane vs the pickle plane at ORKU scale.

The acceptance bar for the shared-memory broadcast plane: on the
fork-based processes backend over the paper's large top-25 workload,
every prefix-filter algorithm returns exactly the pickle-plane pairs and
``JoinStats``, publishes each broadcast payload into exactly one
shared-memory segment, charges every referencing stage only
handle-sized closure bytes (the pickle plane charges the payload per
stage), never re-pickles a payload, pays no wall-clock penalty, and
leaves zero live segments behind.

Raw numbers go to ``results/BENCH_shm_broadcast.json``; the
``shm-soak`` CI job replays the same contract under unlink chaos via
the CLI.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import RunConfig, format_series_table, run, write_bench_json
from repro.minispark.broadcast import shm_available

RESULTS_DIR = Path(__file__).parent / "results"

#: The paper's large top-25 cut: every join broadcasts its whole
#: code matrix + rid index, so this is where plane cost is visible.
WORKLOAD = "orku25x34"
THETA = 0.25
ALGORITHMS = ["vj", "vj-nl", "cl", "cl-p"]

#: A stage's broadcast charge on the shm plane is segment names plus
#: array shapes — a handful of handles stays far below this.
HANDLE_BYTES_CAP = 4096

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)


def _config(algorithm: str, shm: bool) -> RunConfig:
    return RunConfig(
        algorithm=algorithm,
        workload=WORKLOAD,
        theta=THETA,
        num_partitions=16,
        executor="processes",
        max_workers=4,
        shm_broadcast=shm,
    )


def _worst_stage_broadcast(record) -> int:
    """Largest single-stage broadcast charge, from the trace digest."""
    digest = record.trace_digest.get("broadcast", {})
    return digest.get("stage_broadcast_bytes_max", 0)


@pytest.mark.benchmark(group="shm-broadcast")
def test_shm_broadcast_overhead(benchmark, report):
    def sweep():
        records = {"shm": [], "pickle": []}
        for algorithm in ALGORITHMS:
            records["shm"].append(run(_config(algorithm, True)))
            records["pickle"].append(run(_config(algorithm, False)))
        return records

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_series_table(
        f"Broadcast plane: {WORKLOAD}, theta={THETA}, processes x4 "
        f"— wall time",
        "algorithm", ALGORITHMS,
        {
            mode: [r.wall_seconds for r in records[mode]]
            for mode in ("shm", "pickle")
        },
    )

    summary: dict = {"workload": WORKLOAD, "theta": THETA}
    lines = []
    for index, algorithm in enumerate(ALGORITHMS):
        shm = records["shm"][index]
        pickled = records["pickle"][index]
        worst = _worst_stage_broadcast(shm)
        summary[algorithm] = {
            "wall_ratio": shm.wall_seconds / pickled.wall_seconds,
            "segments": shm.broadcast["segments"],
            "shm_bytes": shm.broadcast["shm_bytes"],
            "per_stage_broadcast_bytes_max": worst,
            "pickle_plane_per_stage_max": _worst_stage_broadcast(pickled),
        }
        lines.append(
            f"{algorithm}: x{summary[algorithm]['wall_ratio']:.2f} wall vs "
            f"pickle, {shm.broadcast['segments']} segments / "
            f"{shm.broadcast['shm_bytes']} bytes published once, "
            f"worst stage charge {worst} B (pickle plane "
            f"{summary[algorithm]['pickle_plane_per_stage_max']} B)"
        )
    report("shm_broadcast_overhead", table + "\n\n" + "\n".join(lines))

    flat = [r for mode in ("shm", "pickle") for r in records[mode]]
    write_bench_json(RESULTS_DIR, "shm_broadcast", flat, extra=summary)

    for index, algorithm in enumerate(ALGORITHMS):
        shm = records["shm"][index]
        pickled = records["pickle"][index]
        # Byte-identical joins: same pairs, same exact filter counters.
        assert shm.result_count == pickled.result_count, algorithm
        assert shm.stats == pickled.stats, algorithm
        # Each payload went into exactly one segment, nobody re-pickled
        # it, and every segment was unlinked when the join returned.
        assert shm.broadcast["segments"] == shm.broadcast["broadcasts"]
        assert shm.broadcast["payload_pickles"] == 0, algorithm
        assert shm.broadcast["live_segments"] == 0, algorithm
        assert pickled.broadcast["segments"] == 0, algorithm
        # Per-stage broadcast traffic is O(1) handle bytes on the shm
        # plane, independent of the payload size the pickle plane pays.
        worst = _worst_stage_broadcast(shm)
        assert worst > 0, algorithm
        assert worst < HANDLE_BYTES_CAP, (algorithm, worst)
        assert _worst_stage_broadcast(pickled) > worst, algorithm
        # The zero-copy plane must never cost wall time.
        assert shm.wall_seconds <= pickled.wall_seconds * 1.5 + 5, algorithm
