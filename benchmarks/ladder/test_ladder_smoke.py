"""Smoke test of the benchmark ladder; run it by path:

    python -m pytest benchmarks/ladder/test_ladder_smoke.py

(``pyproject.toml`` has ``testpaths = ["tests"]``, so tier-1 does not
collect it.)  Runs the whole ladder twice at ``--smoke`` sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# Per-layer counts that depend only on the seed, never on timing.
EXACT_PREFIXES = ("joins.", "minispark.scheduler.stages", "minispark.scheduler.tasks",
                  "minispark.rdd.shuffle_records", "minispark.executors.worker_respawns",
                  "minispark.executors.retries", "minispark.executors.fallbacks",
                  "minispark.broadcast.segments", "minispark.broadcast.fallbacks",
                  "minispark.broadcast.live_segments_after", "minispark.spill.read_retries",
                  "minispark.spill.memory_fallbacks", "minispark.spill.leaked_files_after",
                  "rankings.encoding.store_bytes")


def _ladder(name: str) -> dict:
    path = HERE / "out" / name
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_ladder_smoke():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    (first, printed), (second, _) = _ladder("smoke_a.json"), _ladder("smoke_b.json")
    workloads = [w["name"] for w in contract["workloads"]]
    assert list(first["workloads"]) == workloads
    for workload in workloads:
        entry, again = first["workloads"][workload], second["workloads"][workload]
        assert entry["failed"] == 0 and again["failed"] == 0, entry["problems"]
        for metric in contract["end_to_end"]:
            reported = entry["end_to_end"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert all(value > 0 for value in reported["values"]), metric["name"]
        for metric in contract["per_layer"]:
            name = metric["name"]
            assert entry["per_layer"][name]["unit"] == metric["unit"]
            assert f"{name} " in printed
            if metric["unit"] in ("count", "bytes") and name.startswith(EXACT_PREFIXES):
                assert entry["per_layer"][name]["value"] == again["per_layer"][name]["value"], name
        assert entry["per_layer"]["joins.clp.repartitioned_groups"]["value"] > 0
