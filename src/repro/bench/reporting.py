"""Paper-style text tables and machine-readable output for the harness.

Every figure benchmark prints the series it measured in the shape the
paper plots them — x-axis values across the top, one row per algorithm —
so a run's stdout is directly comparable against the paper's charts.

Alongside the human-readable tables, :func:`write_bench_json` persists a
``BENCH_<name>.json`` with the raw numbers of every run (threshold,
algorithm, executor, wall seconds, simulated seconds, candidate /
verified / result counts), so the performance trajectory of the repo is
tracked as data across PRs, not just as text diffs.
"""

from __future__ import annotations

import json
import os
from typing import Mapping, Sequence


def format_cell(value) -> str:
    """Seconds to a compact cell; ``None`` renders as the paper's DNF."""
    if value is None:
        return "DNF"
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.3f}"


def format_series_table(
    title: str,
    x_label: str,
    xs: Sequence,
    series: Mapping,
    unit: str = "s",
) -> str:
    """Render ``{row_label: [values...]}`` as an aligned text table."""
    header = [f"{x_label}"] + [str(x) for x in xs]
    rows = [header]
    for label, values in series.items():
        if len(values) != len(xs):
            raise ValueError(
                f"series {label!r} has {len(values)} values for {len(xs)} xs"
            )
        rows.append([label] + [format_cell(v) for v in values])
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(header))
    ]
    lines = [f"== {title} (in {unit}) =="]
    for index, row in enumerate(rows):
        cells = [cell.rjust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(cells))
        if index == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def speedup(baseline, candidate) -> float | None:
    """How many times faster ``candidate`` is than ``baseline``."""
    if baseline is None or candidate is None or candidate == 0:
        return None
    return baseline / candidate


def growth_factor(values: Sequence) -> float | None:
    """Last over first value of a series — the paper's theta-growth metric."""
    usable = [v for v in values if v is not None]
    if len(usable) < 2 or usable[0] == 0:
        return None
    return usable[-1] / usable[0]


def record_payload(record) -> dict:
    """Flatten one :class:`~repro.bench.harness.RunRecord` for JSON.

    Keeps the fields the trajectory tracking needs: identity (algorithm,
    workload, threshold, executor), the two time series, and the filter
    funnel counters.
    """
    config = record.config
    return {
        "algorithm": config.algorithm,
        "workload": config.workload,
        "theta": config.theta,
        "num_partitions": config.num_partitions,
        "executor": config.executor,
        "max_workers": config.max_workers,
        "wall_seconds": record.wall_seconds,
        "simulated_seconds": dict(record.simulated),
        "result_count": record.result_count,
        "candidates": record.stats.get("candidates", 0),
        "verified": record.stats.get("verified", 0),
        "position_filtered": record.stats.get("position_filtered", 0),
        "shuffle_records": getattr(record, "shuffle_records", 0),
        "shuffle_bytes": getattr(record, "shuffle_bytes", 0),
        "task_retries": getattr(config, "task_retries", 0),
        "chaos_seed": config.chaos.seed if getattr(config, "chaos", None)
        else None,
        "memory_budget_bytes": getattr(config, "memory_budget_bytes", None),
        "recovery": dict(getattr(record, "recovery", {}) or {}),
        "spill": dict(getattr(record, "spill", {}) or {}),
        "trace_digest": dict(getattr(record, "trace_digest", {}) or {}),
        "phase_seconds": dict(record.phase_seconds),
        "dnf": record.dnf,
    }


def write_bench_json(
    directory: str | os.PathLike,
    name: str,
    records: Sequence,
    extra: Mapping | None = None,
) -> str:
    """Write ``BENCH_<name>.json`` into ``directory``; returns the path.

    ``records`` are :class:`~repro.bench.harness.RunRecord` objects (or
    already-flattened dicts); ``extra`` lands under a top-level
    ``"summary"`` key for derived numbers such as speedups.
    """
    runs = [
        record if isinstance(record, dict) else record_payload(record)
        for record in records
    ]
    payload: dict = {"name": name, "runs": runs}
    if extra:
        payload["summary"] = dict(extra)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def format_markdown_table(
    x_label: str, xs: Sequence, series: Mapping
) -> str:
    """The same table as GitHub-flavoured markdown (for EXPERIMENTS.md)."""
    header = "| " + " | ".join([x_label] + [str(x) for x in xs]) + " |"
    divider = "|" + "---|" * (len(xs) + 1)
    lines = [header, divider]
    for label, values in series.items():
        cells = [label] + [format_cell(v) for v in values]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)
