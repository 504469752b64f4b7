"""Traced-run export and the per-layer metrics derived from it.

The traced run executes one pass of a workload inside
``repro.observability.session()``.  The program's own spans
(``simulate.*``, ``analysis.grid_sweep``, ``analytic.*``) nest under
the benchmark's spans (``bench.*``), which wrap each public call from
outside.  :func:`export` writes the span tree -- name, start, end,
parent and self time -- plus the pass's exact counts to one JSON file,
and :func:`layer_metrics` derives every per-layer metric from that file
alone.

A span's self time is its duration minus the part of its interval that
its children cover.  Metrics of a layer a workload never calls read 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: The mobility presets, in the order ``approximation_report`` runs them.
PRESETS = (
    "uniform", "ctrw-exp", "ctrw-fixed", "ctrw-hyper", "ctrw-pareto", "ctrw-drift",
)
CTRW_PRESETS = PRESETS[1:]

#: Every per-layer metric as ``(name, unit, better)``; ``BENCHMARK.json``
#: lists the same metrics in the same order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workload.sample_arrays_s", "s", "lower"),
    ("core.profile_threshold_s", "s", "lower"),
    ("core.compute_cost_surface_self_s", "s", "lower"),
    ("core.batched_steady_states_self_s", "s", "lower"),
    ("core.solves", "count", "lower"),
    ("core.baseline_legs_s", "s", "lower"),
    ("core.banded_surface_s", "s", "lower"),
    ("core.evaluator_s", "s", "lower"),
    ("paging.cells_per_call", "cells", "lower"),
    ("paging.empirical_dp_ms", "ms", "lower"),
    ("paging.dp_cells_saved_ratio", "ratio", "higher"),
    ("strategies.joint_leg_s", "s", "lower"),
    ("strategies.joint_solve_ms.p50", "ms", "lower"),
    ("strategies.joint_solve_ms.p97", "ms", "lower"),
    ("strategies.joint_rounds_mean", "count", "lower"),
    ("analysis.grid_sweep_self_s", "s", "lower"),
    ("analysis.tables_s", "s", "lower"),
    ("analysis.sweep_points_per_s", "1/s", "higher"),
    ("analysis.tournament_points_per_s", "1/s", "higher"),
    ("persist.cache_read_s", "s", "lower"),
    ("persist.cache_hits", "count", "higher"),
    ("persist.cache_bytes", "B", "lower"),
    ("persist.checkpoint_writes", "count", "lower"),
    ("persist.atomic_write_ms", "ms", "lower"),
    ("simulation.fleet_shard_self_s", "s", "lower"),
    ("simulation.fleet_run_self_s", "s", "lower"),
    ("simulation.ns_per_terminal_slot", "ns", "lower"),
    ("simulation.ns_per_event", "ns", "lower"),
    ("simulation.events_per_terminal_slot", "ratio", "lower"),
    ("simulation.calls_per_terminal_slot", "ratio", "lower"),
    *(
        (f"simulation.vectorized_run_self_s.{preset}", "s", "lower")
        for preset in PRESETS
    ),
    ("simulation.rss_bytes_per_terminal", "B", "lower"),
    ("kernels.counter_uniforms_ns", "ns", "lower"),
    *((f"mobility.residence_draw_ns.{preset}", "ns", "lower") for preset in CTRW_PRESETS),
    ("mobility.ctrw_overhead_ratio", "ratio", "lower"),
    ("observability.overhead_ratio", "ratio", "lower"),
)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_rows(records: Iterable) -> List[Dict[str, object]]:
    """Flatten tracer records into export rows with self times."""
    records = [r for r in records if r.duration is not None]
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for record in records:
        if record.parent_id is not None:
            children[record.parent_id].append(
                (record.start, record.start + record.duration)
            )
    rows = []
    for record in records:
        end = record.start + record.duration
        rows.append({
            "id": record.span_id,
            "parent": record.parent_id,
            "name": record.name,
            "start": record.start,
            "end": end,
            "self_s": record.duration
            - _covered(children.get(record.span_id, []), record.start, end),
            "metadata": {k: _plain(v) for k, v in record.metadata.items()},
        })
    return rows


def _plain(value):
    return value if isinstance(value, (bool, int, float, str)) or value is None else repr(value)


def export(path: Path, records: Iterable, counts: Dict[str, float],
           context: Dict[str, float]) -> Path:
    """Write the traced run's span tree, counts and context to ``path``."""
    payload = {"spans": span_rows(records), "counts": counts, "context": context}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return path


class _Trace:
    """Queries over one exported span tree."""

    def __init__(self, payload: dict) -> None:
        self.spans = payload["spans"]
        self.counts = payload["counts"]
        self.context = payload["context"]
        self._by_id = {row["id"]: row for row in self.spans}

    def ancestor(self, row: dict, name: str) -> Optional[dict]:
        parent = self._by_id.get(row["parent"])
        while parent is not None:
            if parent["name"] == name:
                return parent
            parent = self._by_id.get(parent["parent"])
        return None

    def named(self, name: str, in_pass: bool = False) -> List[dict]:
        return [
            row for row in self.spans
            if row["name"] == name
            and (not in_pass or self.ancestor(row, "bench.pass") is not None)
        ]

    def total(self, name: str, in_pass: bool = False) -> float:
        return sum(row["end"] - row["start"] for row in self.named(name, in_pass))

    def self_total(self, name: str, in_pass: bool = True) -> float:
        return sum(row["self_s"] for row in self.named(name, in_pass))

    def median_per_item(self, name: str, scale: float, **match) -> float:
        """Median of ``duration / metadata['n'] * scale`` over matching spans."""
        values = [
            (row["end"] - row["start"]) / row["metadata"].get("n", 1) * scale
            for row in self.named(name)
            if all(row["metadata"].get(k) == v for k, v in match.items())
        ]
        return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(path: Path) -> Dict[str, float]:
    """Every per-layer metric, derived from one exported trace file."""
    trace = _Trace(json.loads(Path(path).read_text()))
    counts, context = trace.counts, trace.context
    terminal_slots = counts.get("terminal_slots", 0)
    events = counts.get("moves", 0) + counts.get("calls", 0)
    sim_time = trace.total("simulate.fleet_shard", True) + trace.total(
        "simulate.vectorized_run", True
    )

    per_preset_self: Dict[str, float] = {}
    per_preset_ns: Dict[str, float] = {}
    for preset in PRESETS:
        rows = [
            row for row in trace.named("simulate.vectorized_run", True)
            if (trace.ancestor(row, "bench.analysis.approximation_report") or {})
            .get("metadata", {}).get("preset") == preset
        ]
        per_preset_self[preset] = sum(row["self_s"] for row in rows)
        slots = sum(
            row["metadata"]["slots"] * row["metadata"]["terminals"] for row in rows
        )
        per_preset_ns[preset] = _ratio(per_preset_self[preset], slots) * 1e9
    ctrw_ns = [per_preset_ns[p] for p in CTRW_PRESETS if per_preset_ns[p]]
    overhead = (
        _ratio(statistics.mean(ctrw_ns), per_preset_ns["uniform"]) if ctrw_ns else 0.0
    )

    joint = trace.named("bench.strategies.optimize_joint_policy")
    joint_ms = sorted((row["end"] - row["start"]) * 1e3 for row in joint)
    if len(joint_ms) >= 2:
        percentiles = statistics.quantiles(joint_ms, n=100, method="inclusive")
        joint_p50, joint_p97 = percentiles[49], percentiles[96]
    else:
        joint_p50 = joint_p97 = joint_ms[0] if joint_ms else 0.0
    points = counts.get("grid_points", 0)
    terminals = counts.get("terminals", 0)
    traced_wall = trace.total("bench.pass")

    metrics = {
        "workload.sample_arrays_s": trace.total("bench.workload.sample_arrays"),
        "core.profile_threshold_s": trace.total("bench.core.find_optimal_threshold"),
        "core.compute_cost_surface_self_s": trace.self_total(
            "analytic.compute_cost_surface"
        ),
        "core.batched_steady_states_self_s": trace.self_total(
            "analytic.batched_steady_states"
        ),
        "core.solves": counts.get("analytic_solves", 0),
        "core.baseline_legs_s": trace.total("bench.core.baseline_legs"),
        "core.banded_surface_s": trace.total("bench.core.banded_surface", True),
        "core.evaluator_s": trace.total("bench.core.evaluator"),
        "paging.cells_per_call": _ratio(counts.get("polled_cells", 0), counts.get("calls", 0)),
        "paging.empirical_dp_ms": trace.median_per_item(
            "bench.paging.empirical_paging_report", 1e3
        ),
        "paging.dp_cells_saved_ratio": counts.get("dp_cells_saved_ratio", 0.0),
        "strategies.joint_leg_s": trace.total("bench.strategies.joint_leg"),
        "strategies.joint_solve_ms.p50": joint_p50,
        "strategies.joint_solve_ms.p97": joint_p97,
        "strategies.joint_rounds_mean": (
            statistics.mean(row["metadata"]["rounds"] for row in joint) if joint else 0.0
        ),
        "analysis.grid_sweep_self_s": trace.self_total("analysis.grid_sweep"),
        "analysis.tables_s": trace.total("bench.analysis.compute_table1", True)
        + trace.total("bench.analysis.compute_table2", True),
        "analysis.sweep_points_per_s": _ratio(
            points, trace.total("bench.analysis.cold_sweep", True)
        ),
        "analysis.tournament_points_per_s": _ratio(
            points, trace.total("bench.analysis.tournament", True)
        ),
        "persist.cache_read_s": trace.total("bench.persist.warm_sweep", True),
        "persist.cache_hits": counts.get("sweep_cache_hits", 0),
        "persist.cache_bytes": counts.get("cache_bytes", 0),
        "persist.checkpoint_writes": counts.get("checkpoint_writes", 0),
        "persist.atomic_write_ms": trace.median_per_item(
            "bench.persist.atomic_write_json", 1e3
        ),
        "simulation.fleet_shard_self_s": trace.self_total("simulate.fleet_shard"),
        "simulation.fleet_run_self_s": trace.self_total("simulate.fleet_run"),
        "simulation.ns_per_terminal_slot": _ratio(sim_time, terminal_slots) * 1e9,
        "simulation.ns_per_event": _ratio(sim_time, events) * 1e9,
        "simulation.events_per_terminal_slot": _ratio(events, terminal_slots),
        "simulation.calls_per_terminal_slot": _ratio(counts.get("calls", 0), terminal_slots),
        **{
            f"simulation.vectorized_run_self_s.{preset}": per_preset_self[preset]
            for preset in PRESETS
        },
        "simulation.rss_bytes_per_terminal": _ratio(
            context["peak_rss_bytes"] - context["rss_after_imports_bytes"], terminals
        ),
        "kernels.counter_uniforms_ns": trace.median_per_item(
            "bench.kernels.counter_uniforms", 1e9
        ),
        **{
            f"mobility.residence_draw_ns.{preset}": trace.median_per_item(
                "bench.mobility.from_uniforms", 1e9, preset=preset
            )
            for preset in CTRW_PRESETS
        },
        "mobility.ctrw_overhead_ratio": overhead,
        "observability.overhead_ratio": _ratio(traced_wall, context["untraced_wall_s"]) - 1.0,
    }
    missing = [name for name, _, _ in PER_LAYER if name not in metrics]
    if missing or len(metrics) != len(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of sync with PER_LAYER: {missing}")
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}
