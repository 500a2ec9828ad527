"""The benchmark ladder's one command.

Contract form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/ladder/run.py --workload dense_top25 --seed 3 \
        --seconds 10 --trace 0

runs one workload in a fresh subprocess and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.

Ladder form (no ``--workload``)::

    python3 benchmarks/ladder/run.py [--smoke] [--runs N] [--out FILE]

runs every workload untraced ``N`` times (seeds ``seed .. seed+N-1``) and
traced once, prints every metric by name with its unit, and writes a
fingerprinted JSON file that ``compare.py`` reads.

The driver is single-threaded and starts one subprocess at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SETUP_SAMPLES = 3
SHM_DIR = Path("/dev/shm")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------- hygiene

def _shm_names() -> set:
    return set(os.listdir(SHM_DIR)) if SHM_DIR.is_dir() else set()


def _group_members(pgid: int) -> list:
    """Pids still alive in process group ``pgid``."""
    alive = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            alive.append(int(entry))
    return alive


def spawn_worker(workload, seed, seconds, trace, smoke, setup_only) -> tuple:
    """Run one worker to completion.  Returns ``(result, leaks)``; a leak
    is a new /dev/shm segment, a leftover temp (spill) entry, or a process
    of the worker's group that outlived it."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_names()
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0")
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
               "--smoke", str(int(smoke)), "--setup-only", str(int(setup_only)),
               "--spawned-at", repr(time.time())]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                               start_new_session=True, text=True)
    try:
        stdout, _ = process.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"worker for {workload} exceeded its time limit")
    leaks = []
    # multiprocessing's resource tracker exits on its own once it sees the
    # worker gone; anything still alive after the grace period is an orphan.
    grace_ends = time.monotonic() + 2.0
    orphans = _group_members(process.pid)
    while orphans and time.monotonic() < grace_ends:
        time.sleep(0.02)
        orphans = _group_members(process.pid)
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    if orphans:
        leaks.append(f"orphan worker pids {orphans}")
    new_shm = sorted(_shm_names() - shm_before)
    if new_shm:
        leaks.append(f"/dev/shm segments left behind: {new_shm[:5]}")
    leftovers = sorted(os.listdir(tmp))
    if leftovers:
        leaks.append(f"temp entries left behind: {leftovers[:5]}")
    if process.returncode != 0:
        raise SystemExit(f"worker for {workload} exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), leaks


# -------------------------------------------------------------- one workload

def run_workload(contract, workload, seed, seconds, trace, smoke) -> dict:
    """One contract-form run: set-up samples, the measured worker, hygiene."""
    leaks = []
    setup_samples = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            result, more = spawn_worker(workload, seed, seconds, False, smoke, True)
            setup_samples.append(result["setup_s"])
            leaks += more
    result, more = spawn_worker(workload, seed, seconds, trace, smoke, False)
    leaks += more
    values = result["values"]
    setup_samples.append(values["setup_s"])
    values["setup_s"] = statistics.median(setup_samples)
    wanted = contract["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"{workload}: metrics not measured: {missing}")
    problems = result["problems"] + leaks
    return {
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"] + 1,  # + the hygiene check
        "failed": result["failed"] + (1 if leaks else 0),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
        "problems": problems,
        "sizes": result["sizes"],
        "native_metrics": result["native_metrics"],
        "pins": result["pins"],
        "accounting": result["accounting"],
    }


def contract_main(args) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
    report = run_workload(contract, args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    for problem in report["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


# -------------------------------------------------------------------- ladder

def fingerprint(seed, smoke, seconds) -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "seed": seed, "smoke": smoke, "seconds": seconds}


def ladder_main(args) -> int:
    from tables import print_accounting, print_metrics

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else (
        1 if args.smoke else contract["run_seconds"])
    report = {"fingerprint": fingerprint(args.seed, args.smoke, seconds),
              "bounds": {m["name"]: m["bound"] for m in contract["end_to_end"]},
              "better": {m["name"]: m["better"] for m in contract["end_to_end"]},
              "workloads": {}}
    failed = 0
    for workload in (w["name"] for w in contract["workloads"]):
        runs = [run_workload(contract, workload, args.seed + i, seconds, False, args.smoke)
                for i in range(args.runs)]
        traced = run_workload(contract, workload, args.seed, seconds, True, args.smoke)
        entry = {
            "sizes": traced["sizes"], "pins": traced["pins"],
            "native_metrics": traced["native_metrics"],
            "end_to_end": {name: {"unit": runs[0]["metrics"][name]["unit"],
                                  "values": [r["metrics"][name]["value"] for r in runs]}
                           for name in runs[0]["metrics"]},
            "per_layer": traced["metrics"],
            "accounting": traced["accounting"],
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "problems": [p for r in runs + [traced] for p in r["problems"]],
        }
        report["workloads"][workload] = entry
        failed += entry["failed"]
        print_metrics(workload, entry)
        print_accounting(workload, entry["accounting"])
        for problem in entry["problems"]:
            print(f"FAILED {workload}: {problem}")
    OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT / (
        "ladder_smoke.json" if args.smoke else "ladder.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {path}; failed operations: {failed}")
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="all sizes / 10")
    parser.add_argument("--runs", type=int, default=1, help="ladder: untraced runs per workload")
    parser.add_argument("--out", help="ladder: where to write the JSON report")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT}/src/repro is missing")
    if args.workload is None:
        return ladder_main(args)
    if args.seconds is None:
        args.seconds = 1 if args.smoke else load_contract()["run_seconds"]
    return contract_main(args)


if __name__ == "__main__":
    sys.exit(main())
