"""The benchmark's four workloads.

Each workload turns a seed into inputs (:meth:`setup`), runs one timed
pass through the program's public API (:meth:`run_pass`), states the
pass's work and rates (:meth:`work`, :meth:`rates`), checks the pass's
outputs (:meth:`checks`, and :meth:`final_checks` once per run),
reports the pass's exact counts (:meth:`counts`) and input properties
(:meth:`properties`), and -- in the traced run only -- times single
layers from outside (:meth:`probe`).  Every call into the program sits inside a ``bench.*``
span opened on the current observability tracer, which is a no-op
unless a session is installed, so the untraced run pays nothing for it.

All load comes from this one process, serially (``workers=None``).
"""

from __future__ import annotations

import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    CostEvaluator,
    CostParams,
    MobilityParams,
    TwoDimensionalApproximateModel,
    TwoDimensionalModel,
    compute_cost_surface,
    find_optimal_threshold,
    transient_cost,
)
from repro.analysis import compute_table1, compute_table2
from repro.analysis.approximation import approximation_report
from repro.analysis.compare import run_tournament
from repro.analysis.paper_data import TABLE1, TABLE2
from repro.analysis.sweep import grid_sweep
from repro.geometry import HexTopology
from repro.mobility.ctrw import CTRWSpec, mobility_preset
from repro.mobility.residence import GeometricResidence
from repro.observability import current
from repro.paging.empirical import empirical_paging_report, empirical_ring_distribution
from repro.persist import atomic_write_json
from repro.simulation.fleet import FleetResult, FleetSpec, run_fleet
from repro.simulation.kernels import counter_uniforms, terminal_keys
from repro.strategies.jointly_optimal import optimize_joint_policy
from repro.workload import Population, UserProfile

from spans import CTRW_PRESETS, PRESETS

#: The library's 2-D simulation agreement band (``_RELATIVE_BAND`` in
#: ``repro.analysis.approximation``).
RELATIVE_BAND = 0.05

#: ``fleet_report``'s memory budget: base plus bytes per terminal.
RSS_BASE_BYTES = 600 * 1024 * 1024
RSS_BYTES_PER_TERMINAL = 256

#: Per-terminal state of one fleet shard engine, computed from its
#: columns: q, c, q+c, U, V (float64); threshold, profile, plan class,
#: hash key (8 bytes each); a 2-coordinate hex position; four int64
#: event counters.
FLEET_STATE_BYTES = 5 * 8 + 4 * 8 + 2 * 8 + 4 * 8

#: Timed repetitions of the sub-millisecond probes in the traced run.
PROBE_REPEATS = 25


def span(name: str, **metadata):
    """A ``bench.*`` span on the current tracer (no-op when untraced)."""
    return current().tracer.span(name, **metadata)


@dataclass(frozen=True)
class Check:
    """One output check; ``fail_ratio`` counts the ones not passed."""

    name: str
    passed: bool
    detail: str


def _seeds(seed: int, count: int) -> List[int]:
    """Derived per-input seeds: the program sees these, never ``seed``."""
    return [int(x) for x in np.random.default_rng(seed).integers(0, 2**31, count)]


def _tempdir(workdir: Path) -> Path:
    return Path(tempfile.mkdtemp(dir=workdir))


# -- fleet-quiet / fleet-busy ------------------------------------------


@dataclass(frozen=True)
class FleetInputs:
    population: Population
    spec: FleetSpec
    thresholds: Dict[str, int]
    population_seed: int
    event_seed: int


@dataclass(frozen=True)
class FleetOutputs:
    result: FleetResult
    checkpoint: Optional[Path]


class FleetWorkload:
    """``run_fleet`` over a jitter-free two-profile hex-grid population.

    Profile thresholds come from ``find_optimal_threshold`` (2-D exact
    model, physical convention) and reach the spec through
    ``thresholds=``, so spec construction solves nothing itself.
    """

    costs = CostParams(update_cost=100.0, poll_cost=10.0)
    d_max = 40

    def __init__(self, profiles: Sequence[UserProfile], max_delay: int,
                 terminals: int, shards: int, slots: int, checkpoint: bool) -> None:
        self.profiles = tuple(profiles)
        self.max_delay = max_delay
        self.terminals = terminals
        self.shards = shards
        self.slots = slots
        self.checkpoint = checkpoint
        self._references: Dict[Tuple, Dict[str, float]] = {}

    def solve_threshold(self, profile: UserProfile) -> int:
        return find_optimal_threshold(
            TwoDimensionalModel(profile.mobility), self.costs, self.max_delay,
            d_max=self.d_max, convention="physical",
        ).threshold

    def setup(self, seed: int) -> FleetInputs:
        population_seed, event_seed = _seeds(seed, 2)
        population = Population(self.profiles)
        thresholds = {p.name: self.solve_threshold(p) for p in self.profiles}
        spec = FleetSpec.from_population(
            population, self.terminals, self.costs, self.max_delay,
            seed=population_seed, thresholds=thresholds,
        )
        return FleetInputs(population, spec, thresholds, population_seed, event_seed)

    def run_pass(self, inputs: FleetInputs, workdir: Path) -> FleetOutputs:
        checkpoint = _tempdir(workdir) / "fleet.json" if self.checkpoint else None
        with span("bench.simulation.run_fleet", terminals=self.terminals):
            result = run_fleet(
                inputs.spec, self.slots, shards=self.shards,
                seed=inputs.event_seed, workers=None, checkpoint=checkpoint,
            )
        return FleetOutputs(result, checkpoint)

    def work(self, outputs: FleetOutputs) -> int:
        """Terminal-slots simulated in the pass."""
        return outputs.result.terminal_slots

    def rates(self, outputs: FleetOutputs, pass_s: float) -> Dict[str, float]:
        return {"terminal_slots_per_s": self.work(outputs) / pass_s}

    def references(self, inputs: FleetInputs) -> Dict[str, float]:
        """Per-profile expected cost per terminal-slot over the horizon.

        The transient cost from a fresh fix, not steady-state ``C_T``:
        every terminal starts at its fix, and over a short horizon the
        two differ by more than the agreement band.
        """
        key = tuple(sorted(inputs.thresholds.items()))
        if key not in self._references:
            self._references[key] = {
                p.name: transient_cost(
                    CostEvaluator(
                        TwoDimensionalModel(p.mobility), self.costs,
                        convention="physical",
                    ),
                    inputs.thresholds[p.name], self.max_delay, self.slots,
                ).cumulative_cost / self.slots
                for p in self.profiles
            }
        return self._references[key]

    def checks(self, inputs: FleetInputs, outputs: FleetOutputs) -> List[Check]:
        per_profile = outputs.result.per_profile()
        checks = []
        for name, expected in self.references(inputs).items():
            simulated = per_profile[name]["mean_total_cost"]
            gap = abs(simulated - expected) / expected
            checks.append(Check(
                f"fleet.transient_cost.{name}", gap <= RELATIVE_BAND,
                f"simulated {simulated:.6f} vs transient {expected:.6f} "
                f"(gap {gap:.4%}, band {RELATIVE_BAND:.0%})",
            ))
        if outputs.checkpoint is not None:
            stored = json.loads(outputs.checkpoint.read_text())["shards"]
            checks.append(Check(
                "fleet.checkpoint_complete", len(stored) == self.shards,
                f"{len(stored)} of {self.shards} shards in the checkpoint",
            ))
        return checks

    def final_checks(self, peak_rss_bytes: int) -> List[Check]:
        budget = RSS_BASE_BYTES + RSS_BYTES_PER_TERMINAL * self.terminals
        return [Check(
            "fleet.rss_budget", peak_rss_bytes <= budget,
            f"peak RSS {peak_rss_bytes} B vs budget {budget} B",
        )]

    def counts(self, inputs: FleetInputs, outputs: FleetOutputs, registry) -> Dict[str, float]:
        result = outputs.result
        return {
            "terminals": result.terminals,
            "terminal_slots": result.terminal_slots,
            "moves": result.moves,
            "calls": result.calls,
            "updates": result.updates,
            "polled_cells": result.polled_cells,
            "checkpoint_writes": len(result.shards) if outputs.checkpoint else 0,
            "population_fingerprint": inputs.spec.fingerprint(),
        }

    def properties(self, inputs: FleetInputs) -> Dict[str, float]:
        mean_qc = float(np.mean(inputs.spec.q + inputs.spec.c))
        return {
            "terminals": self.terminals,
            "shards": self.shards,
            "slots": self.slots,
            "mean_q_plus_c": mean_qc,
            "idle_fraction": 1.0 - mean_qc,
            "working_set_bytes": FLEET_STATE_BYTES * self.terminals,
            "shard_working_set_bytes": FLEET_STATE_BYTES * -(-self.terminals // self.shards),
        }

    def probe(self, inputs: FleetInputs, outputs: FleetOutputs, workdir: Path) -> None:
        with span("bench.workload.sample_arrays", n=self.terminals):
            inputs.population.sample_arrays(self.terminals, seed=inputs.population_seed)
        for profile in self.profiles:
            with span("bench.core.find_optimal_threshold", profile=profile.name):
                self.solve_threshold(profile)
        _probe_counter_uniforms(self.terminals, inputs.event_seed)
        if outputs.checkpoint is not None:
            payload = json.loads(outputs.checkpoint.read_text())
            target = _tempdir(workdir) / "checkpoint-copy.json"
            for _ in range(PROBE_REPEATS):
                with span("bench.persist.atomic_write_json"):
                    atomic_write_json(target, payload)


def _probe_counter_uniforms(terminals: int, seed: int) -> None:
    keys = terminal_keys(0, terminals)
    for slot in range(PROBE_REPEATS):
        with span("bench.kernels.counter_uniforms", n=terminals):
            counter_uniforms(keys, seed, 0, slot)


# -- ctrw-track ----------------------------------------------------------


@dataclass(frozen=True)
class CtrwInputs:
    report_seed: int
    ring_seed: int


@dataclass(frozen=True)
class CtrwOutputs:
    rows: Tuple
    paging: object


class CtrwWorkload:
    """The approximation report over every mobility preset, then
    empirical paging at the pinned drift point."""

    #: ``approximation_report``'s default operating point.
    point = dict(q=0.2, c=0.02, d=2, m=2, update_cost=50.0, poll_cost=10.0)
    #: The conformance tier's drift point, where SDF is suboptimal.
    drift_point = dict(q=0.3, c=0.1, d=2, m=2)
    drift_walk = CTRWSpec(residence=GeometricResidence(0.3), drift=0.8)
    #: Which presets the 2-D model still describes (deviation <= 1).
    converges = {
        "uniform": True, "ctrw-exp": True, "ctrw-fixed": True,
        "ctrw-hyper": False, "ctrw-pareto": False, "ctrw-drift": False,
    }
    #: Draws per timed ``from_uniforms`` call.
    residence_draws = 1 << 18

    def __init__(self, terminals: int, slots: int, warmup_slots: int) -> None:
        self.terminals = terminals
        self.slots = slots
        self.warmup_slots = warmup_slots

    def setup(self, seed: int) -> CtrwInputs:
        return CtrwInputs(*_seeds(seed, 2))

    def run_pass(self, inputs: CtrwInputs, workdir: Path) -> CtrwOutputs:
        rows = []
        # One call per preset, at the seed offset the combined call
        # gives preset i, so simulation spans attribute to presets.
        for index, preset in enumerate(PRESETS):
            with span("bench.analysis.approximation_report", preset=preset):
                report = approximation_report(
                    **self.point, slots=self.slots, terminals=self.terminals,
                    warmup_slots=self.warmup_slots,
                    seed=inputs.report_seed + 101 * index, models=(preset,),
                )
            rows.append(report.rows[0])
        point = self.drift_point
        with span("bench.paging.empirical_ring_distribution"):
            ring = empirical_ring_distribution(
                HexTopology(), point["d"],
                MobilityParams(point["q"], point["c"]), walk=self.drift_walk,
                slots=self.slots, terminals=self.terminals,
                warmup_slots=self.warmup_slots, seed=inputs.ring_seed,
                max_delay=point["m"],
            )
        with span("bench.paging.empirical_paging_report"):
            paging = empirical_paging_report(HexTopology(), point["d"], point["m"], ring)
        return CtrwOutputs(tuple(rows), paging)

    def work(self, outputs: CtrwOutputs) -> int:
        """Terminal-slots simulated in the pass, warm-up included."""
        return (len(PRESETS) + 1) * self.terminals * (self.slots + self.warmup_slots)

    def rates(self, outputs: CtrwOutputs, pass_s: float) -> Dict[str, float]:
        return {"terminal_slots_per_s": self.work(outputs) / pass_s}

    def checks(self, inputs: CtrwInputs, outputs: CtrwOutputs) -> List[Check]:
        checks = [
            Check(
                f"ctrw.verdict.{row.mobility}",
                row.converges == self.converges[row.mobility],
                f"deviation {row.deviation:.3f}, converges={row.converges}, "
                f"expected {self.converges[row.mobility]}",
            )
            for row in outputs.rows
        ]
        paging = outputs.paging
        checks.append(Check(
            "ctrw.dp_beats_sdf", paging.optimal_cells < paging.sdf_cells,
            f"DP polls {paging.optimal_cells:.6f} cells vs SDF {paging.sdf_cells:.6f}",
        ))
        return checks

    def final_checks(self, peak_rss_bytes: int) -> List[Check]:
        return []

    def counts(self, inputs: CtrwInputs, outputs: CtrwOutputs, registry) -> Dict[str, float]:
        return {
            "terminal_slots": registry.total("slots_total"),
            "moves": registry.total("moves_total"),
            "calls": registry.total("calls_total"),
            "polled_cells": registry.total("polled_cells_total"),
            "dp_cells_saved_ratio": outputs.paging.improvement,
        }

    def properties(self, inputs: CtrwInputs) -> Dict[str, float]:
        point, drift = self.point, self.drift_point
        mean_qc = (
            len(PRESETS) * (point["q"] + point["c"]) + drift["q"] + drift["c"]
        ) / (len(PRESETS) + 1)
        return {
            "terminals": self.terminals,
            "slots": self.slots + self.warmup_slots,
            "mean_q_plus_c": mean_qc,
            "idle_fraction": 1.0 - mean_qc,
            # Position, four event counters, two cost sums, a per-cycle
            # delay row (m=2), residence clock and last direction.
            "working_set_bytes": (2 * 8 + 4 * 8 + 2 * 8 + 2 * 8 + 2 * 8) * self.terminals,
        }

    def probe(self, inputs: CtrwInputs, outputs: CtrwOutputs, workdir: Path) -> None:
        point = self.point
        costs = CostParams(point["update_cost"], point["poll_cost"])
        for row in outputs.rows:
            mobility = MobilityParams(row.q_effective, point["c"])
            with span("bench.core.evaluator", preset=row.mobility):
                for model in (TwoDimensionalModel, TwoDimensionalApproximateModel):
                    CostEvaluator(
                        model(mobility), costs, convention="physical"
                    ).total_cost(point["d"], point["m"])
        rng = np.random.default_rng(inputs.report_seed)
        u_branch = rng.random(self.residence_draws)
        u_value = rng.random(self.residence_draws)
        for preset in CTRW_PRESETS:
            residence = mobility_preset(preset, point["q"]).residence
            for _ in range(5):
                with span("bench.mobility.from_uniforms", preset=preset,
                          n=self.residence_draws):
                    residence.from_uniforms(u_branch, u_value)
        _probe_counter_uniforms(self.terminals, inputs.report_seed)
        drift = self.drift_point
        for _ in range(PROBE_REPEATS):
            with span("bench.paging.empirical_paging_report"):
                empirical_paging_report(
                    HexTopology(), drift["d"], drift["m"],
                    outputs.paging.ring_probabilities,
                )


# -- plan-grid -----------------------------------------------------------


@dataclass(frozen=True)
class PlanInputs:
    axes: Dict[str, List[float]]


@dataclass(frozen=True)
class PlanOutputs:
    table1: dict
    table2: dict
    cold: object
    warm: object
    tournament: object
    banded: object
    cache_dir: Path
    sweep_s: float
    tournament_s: float


class PlanWorkload:
    """Paper tables, a cold and a warm 2-D grid sweep, the five-scheme
    tournament and a deep banded cost surface -- analytic only."""

    model = "2d-exact"
    d_max = 100
    q_range = (0.005, 0.5)
    c_range = (0.002, 0.1)
    update_costs = (10.0, 100.0, 1000.0)
    delays = (1, 2, 3, math.inf)
    #: A slow walker whose optimum lies deep enough to need d_max=2000,
    #: past the solver's banded cut-over.
    slow_walker = MobilityParams(0.002, 0.001)
    slow_costs = CostParams(update_cost=1000.0, poll_cost=1.0)
    banded_d_max = 2000
    #: Thresholds on which the banded surface is compared with a dense solve.
    dense_prefix = 256

    def __init__(self, q_values: int, c_values: int) -> None:
        self.q_values = q_values
        self.c_values = c_values

    @staticmethod
    def _log_uniform(rng: np.random.Generator, lo: float, hi: float, count: int) -> List[float]:
        # One draw per equal log-width stratum: marginally log-uniform,
        # with less seed-to-seed swing in how hard the grid is.
        u = (np.arange(count) + rng.random(count)) / count
        return [float(x) for x in np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))]

    def setup(self, seed: int) -> PlanInputs:
        rng = np.random.default_rng(seed)
        return PlanInputs({
            "q": self._log_uniform(rng, *self.q_range, self.q_values),
            "c": self._log_uniform(rng, *self.c_range, self.c_values),
            "U": list(self.update_costs),
            "m": list(self.delays),
        })

    def run_pass(self, inputs: PlanInputs, workdir: Path) -> PlanOutputs:
        cache_dir = _tempdir(workdir)
        sweep = dict(d_max=self.d_max, cache_dir=cache_dir)
        with span("bench.analysis.compute_table1"):
            table1 = compute_table1()
        with span("bench.analysis.compute_table2"):
            table2 = compute_table2()
        tic = time.perf_counter()
        with span("bench.analysis.cold_sweep"):
            cold = grid_sweep(self.model, inputs.axes, **sweep)
        sweep_s = time.perf_counter() - tic
        with span("bench.persist.warm_sweep"):
            warm = grid_sweep(self.model, inputs.axes, **sweep)
        tic = time.perf_counter()
        with span("bench.analysis.tournament"):
            tournament = run_tournament(self.model, inputs.axes, **sweep)
        tournament_s = time.perf_counter() - tic
        with span("bench.core.banded_surface"):
            banded = compute_cost_surface(
                TwoDimensionalModel(self.slow_walker), self.slow_costs, self.banded_d_max
            )
        return PlanOutputs(
            table1, table2, cold, warm, tournament, banded, cache_dir, sweep_s, tournament_s
        )

    def work(self, outputs: PlanOutputs) -> int:
        """Grid points solved by the pass."""
        return len(outputs.cold.points)

    def rates(self, outputs: PlanOutputs, pass_s: float) -> Dict[str, float]:
        """Grid points per second of the cold sweep and of the tournament."""
        points = len(outputs.cold.points)
        return {
            "sweep_points_per_s": points / outputs.sweep_s,
            "tournament_points_per_s": points / outputs.tournament_s,
        }

    def checks(self, inputs: PlanInputs, outputs: PlanOutputs) -> List[Check]:
        return [
            _check_table1(outputs.table1),
            _check_table2(outputs.table2),
            _check_tournament(outputs.tournament),
            Check(
                "plan.cache_round_trip",
                outputs.warm.from_cache and not outputs.cold.from_cache
                and outputs.warm.points == outputs.cold.points,
                f"cold from_cache={outputs.cold.from_cache}, "
                f"warm from_cache={outputs.warm.from_cache}",
            ),
            self._check_banded(outputs.banded),
        ]

    def _check_banded(self, banded) -> Check:
        dense = compute_cost_surface(
            TwoDimensionalModel(self.slow_walker), self.slow_costs,
            self.dense_prefix, solver="dense",
        )
        prefix = banded.total[:, : self.dense_prefix + 1]
        gap = float(np.max(np.abs(prefix - dense.total) / np.abs(dense.total)))
        return Check(
            "plan.banded_matches_dense", bool(np.isfinite(banded.total).all()) and gap <= 1e-9,
            f"max relative gap {gap:.3e} on d <= {self.dense_prefix}",
        )

    def final_checks(self, peak_rss_bytes: int) -> List[Check]:
        return []

    def counts(self, inputs: PlanInputs, outputs: PlanOutputs, registry) -> Dict[str, float]:
        return {
            "grid_points": len(outputs.cold.points),
            "analytic_solves": registry.total("analytic_solves_total"),
            "sweep_cache_hits": registry.total("sweep_cache_hits_total"),
            "cache_bytes": sum(
                path.stat().st_size for path in outputs.cache_dir.rglob("*") if path.is_file()
            ),
            "axes": json.dumps(inputs.axes, default=str),
        }

    def properties(self, inputs: PlanInputs) -> Dict[str, float]:
        qc = [q + c for q in inputs.axes["q"] for c in inputs.axes["c"]]
        return {
            "grid_points": len(qc) * len(self.update_costs) * len(self.delays),
            "terminals": 0,
            "mean_q_plus_c": float(np.mean(qc)),
            "idle_fraction": 1.0 - float(np.mean(qc)),
            # The deep surface's steady-state matrix, (D+1)^2 float64.
            "working_set_bytes": 8 * (self.banded_d_max + 1) ** 2,
        }

    def probe(self, inputs: PlanInputs, outputs: PlanOutputs, workdir: Path) -> None:
        sweep = dict(d_max=self.d_max, cache_dir=outputs.cache_dir)
        with span("bench.core.baseline_legs"):
            run_tournament(
                self.model, inputs.axes,
                schemes=["distance", "movement", "timer", "location-area"], **sweep,
            )
        with span("bench.strategies.joint_leg"):
            run_tournament(
                self.model, inputs.axes, schemes=["distance", "jointly-optimal"], **sweep
            )
        models: Dict[Tuple[float, float], TwoDimensionalModel] = {}
        for point in outputs.cold.points:
            key = (point.q, point.c)
            if key not in models:
                models[key] = TwoDimensionalModel(MobilityParams(point.q, point.c))
            m = point.max_delay
            with span("bench.strategies.optimize_joint_policy") as record:
                policy = optimize_joint_policy(
                    models[key], CostParams(point.update_cost, point.poll_cost),
                    math.inf if m == math.inf else int(m), d_max=self.d_max,
                )
            record.metadata["rounds"] = len(policy.history)


def _check_table1(table) -> Check:
    """The Table 1 reproduction gate: costs to printed precision,
    thresholds exact except the documented flat tie at (inf, 1000)."""
    worst, mismatched = 0.0, []
    for m, column in TABLE1.items():
        for U, published in column.items():
            entry = table[m][U]
            worst = max(worst, abs(entry.total_cost - published.total_cost))
            if entry.optimal_d != published.optimal_d:
                mismatched.append((m, U))
    passed = worst < 6e-4 and all(cell == (math.inf, 1000) for cell in mismatched)
    return Check("plan.table1", passed, f"worst |C_T - paper| {worst:.2e}, d* mismatches {mismatched}")


def _check_table2(table) -> Check:
    """The Table 2 reproduction gate: both cost columns to printed
    precision, both threshold columns exact."""
    worst_cost = worst_near = 0.0
    mismatched = []
    for m, column in TABLE2.items():
        for U, published in column.items():
            entry = table[m][U]
            worst_cost = max(worst_cost, abs(entry.total_cost - published.total_cost))
            worst_near = max(
                worst_near, abs(entry.near_optimal_cost - published.near_optimal_cost)
            )
            if entry.optimal_d != published.optimal_d:
                mismatched.append(("d*", m, U))
            if entry.near_optimal_d != published.near_optimal_d:
                mismatched.append(("d'", m, U))
    passed = worst_cost < 6e-4 and worst_near < 6e-4 and not mismatched
    return Check(
        "plan.table2", passed,
        f"worst cost gaps {worst_cost:.2e} / {worst_near:.2e}, mismatches {mismatched}",
    )


def _check_tournament(tournament) -> Check:
    """Jointly-optimal never costs more than distance-based (1e-9)."""
    worse = [
        (point.q, point.c, point.update_cost, point.max_delay)
        for point in tournament.points
        if point.outcome("jointly-optimal").total_cost
        > point.outcome("distance").total_cost + 1e-9
    ]
    return Check(
        "plan.joint_not_worse", not worse,
        f"{len(worse)} of {len(tournament.points)} points where joint > distance",
    )


# -- registry ------------------------------------------------------------


def make(name: str, **sizes):
    """The named workload at benchmark size; ``sizes`` shrinks it for tests."""
    if name == "fleet-quiet":
        params = dict(terminals=1_000_000, shards=2, slots=25)
        params.update(sizes)
        return FleetWorkload(
            (
                UserProfile("pedestrian", MobilityParams(0.05, 0.01), weight=6.0, jitter=0.0),
                UserProfile("static", MobilityParams(0.002, 0.03), weight=1.0, jitter=0.0),
            ),
            max_delay=2, checkpoint=False, **params,
        )
    if name == "fleet-busy":
        params = dict(terminals=200_000, shards=8, slots=50)
        params.update(sizes)
        return FleetWorkload(
            (
                UserProfile("vehicle", MobilityParams(0.4, 0.05), weight=1.0, jitter=0.0),
                UserProfile("rush", MobilityParams(0.6, 0.3), weight=1.0, jitter=0.0),
            ),
            max_delay=3, checkpoint=True, **params,
        )
    if name == "ctrw-track":
        params = dict(terminals=2000, slots=1500, warmup_slots=300)
        params.update(sizes)
        return CtrwWorkload(**params)
    if name == "plan-grid":
        params = dict(q_values=7, c_values=4)
        params.update(sizes)
        return PlanWorkload(**params)
    raise KeyError(name)


WORKLOADS = ("fleet-quiet", "fleet-busy", "ctrw-track", "plan-grid")
