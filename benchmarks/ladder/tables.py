"""Plain-text tables of the ladder command."""

from __future__ import annotations

import statistics


def _number(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.0f}"


def print_metrics(workload: str, entry: dict) -> None:
    """Every metric of one workload by name, with its unit.  End-to-end
    rows the workload was not chosen for are marked ``ref``."""
    print(f"\n== {workload} == attempted {entry['attempted']}, failed {entry['failed']}")
    for name, metric in entry["end_to_end"].items():
        values = metric["values"]
        note = "" if name in entry["native_metrics"] else "  (ref size)"
        spread = f"  [{min(values):.4g} .. {max(values):.4g}]" if len(values) > 1 else ""
        print(f"  {name:<44} {_number(statistics.median(values)):>12} {metric['unit']}"
              f"{spread}{note}")
    for name, metric in entry["per_layer"].items():
        print(f"  {name:<44} {_number(metric['value']):>12} {metric['unit']}")


def print_accounting(workload: str, accounting: dict) -> None:
    """Where each join's and each serving phase's wall went."""
    for section in ("joins", "planes"):
        for name, row in accounting.get(section, {}).items():
            parts = ", ".join(f"{key[:-2]} {value:.3f}" for key, value in row.items()
                              if key.endswith("_s") and key not in ("wall_s", "stage_wall_s"))
            print(f"  account {section}.{name}: wall {row['wall_s']:.3f} s = {parts}"
                  f"  -> {row['accounted_share']:.1%} in phases")
    for name, row in accounting.get("serve", {}).items():
        if name == "delta":
            print(f"  account serve.delta: wall {row['wall_s']:.3f} s = index query "
                  f"{row['index_query_s']:.3f}, index insert {row['index_insert_s']:.3f}, "
                  f"delta_join itself {row['wall_s'] - row['index_query_s'] - row['index_insert_s']:.3f}")
            continue
        print(f"  account serve.{name}: wall {row['wall_s']:.3f} s = index busy "
              f"{row['index_busy_s']:.3f}, service overhead {row['service_overhead_s']:.3f}, "
              f"idle {row['idle_s']:.3f}  ({row['requests']} requests)")
