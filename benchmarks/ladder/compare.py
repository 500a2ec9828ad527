"""Compare two ladder reports: ``compare.py a.json b.json``.

One row per (workload, end-to-end metric): each side's median and
quartiles, the metric's bound, and a verdict for ``b`` against ``a``:

``regressed``   b's median is worse than a's by more than the bound
``improved``    b wins at least nine tenths of the seed-paired runs and the
                medians differ by more than a's own quartile distance
``unresolved``  either side's quartile distance is wider than the bound
                (unless every run of one side beats every run of the other)
``unchanged``   none of the above

Refuses to compare reports taken on different machines, interpreters,
run lengths or sizes.  Exit code 1 when any row regressed or is
unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys

SAME_MACHINE = ("cpu_count", "cpu_model", "python", "numpy", "smoke", "seconds", "seed")


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a, b, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # positive change = worse
    a_low, a_med, a_high = quartiles(a)
    b_low, b_med, b_high = quartiles(b)
    worse_by = sign * (b_med - a_med) / a_med
    every_b_better = max(sign * x for x in b) < min(sign * x for x in a)
    every_b_worse = min(sign * x for x in b) > max(sign * x for x in a)
    wide = max((a_high - a_low) / a_med, (b_high - b_low) / b_med) > bound
    if wide and not (every_b_better or every_b_worse):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if pairs and wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_high - a_low:
        return "improved"
    return "unchanged"


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    with open(argv[1], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[2], encoding="utf-8") as handle:
        b = json.load(handle)
    for key in SAME_MACHINE:
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['fingerprint'][key]!r} vs {b['fingerprint'][key]!r})")
            return 2
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None or other["sizes"] != entry["sizes"]:
            print(f"refusing to compare: sizes of {workload} differ")
            return 2
    print(f"a = {a['fingerprint']['commit'][:12]}   b = {b['fingerprint']['commit'][:12]}")
    print(f"{'workload':<14} {'metric':<22} {'a q1/median/q3':>30} {'b q1/median/q3':>30} "
          f"{'bound':>6}  verdict")
    bad = 0
    for workload, entry in a["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            a_values = metric["values"]
            b_values = b["workloads"][workload]["end_to_end"][name]["values"]
            result = verdict(a_values, b_values, a["better"][name], a["bounds"][name])
            bad += result in ("regressed", "unresolved")
            cells = ["/".join(f"{x:.4g}" for x in quartiles(v)) for v in (a_values, b_values)]
            print(f"{workload:<14} {name:<22} {cells[0]:>30} {cells[1]:>30} "
                  f"{a['bounds'][name]:>6.0%}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
