"""Batched NumPy simulation of the distance strategy.

:class:`VectorizedDistanceEngine` simulates ``K`` independent terminals
of the distance-based scheme as one batched ring-distance chain (the
:class:`~repro.simulation.kernels._RingChain` it shares with the fleet
engine): one counter-RNG hash per terminal and slot classifies every
terminal as call / movement / idle, and threshold tests, resets, and
cost accumulation touch only the terminals with an event.  On this
container it delivers two to three orders of magnitude more
terminal-slots per second than stepping
:class:`~repro.simulation.engine.SimulationEngine` instances one cell at
a time.

Exactness
---------

The fast path is *exact*, not an approximation of the per-cell engine:
terminals are tracked by their true lattice coordinates **relative to
the current center cell** (the cell of the last update or page hit),
so ring distances, update triggers, and paging costs are computed from
the same geometry the cell-level engine walks.  In particular it does
NOT use the paper's ring-aggregated transition probabilities
``p+(i)/p-(i)`` -- corner/edge cell effects on the hex and square grids
are reproduced faithfully.  Beyond the uniform walk, the engine runs
CTRW mobility (``walk=CTRWSpec(...)``): per-terminal residence clocks
on dedicated counter-RNG streams, with drift/persistence direction
composition (see :mod:`repro.mobility.ctrw` for the timed slot
semantics).  What the vectorized engine *cannot* do is everything that
needs per-event hooks: event logs, fault models, arbitrary walker
classes or arrival processes, and non-distance strategies all require
:class:`~repro.simulation.engine.SimulationEngine`.

Because only relative coordinates are tracked, the absolute start cell
is irrelevant (both supported geometries are vertex-transitive), and a
paging hit or update simply resets a terminal's relative position to
the origin.

Statistical contract
--------------------

Each terminal gets its own meter; :meth:`VectorizedDistanceEngine.run`
returns a :class:`~repro.simulation.runner.ReplicatedResult` whose
per-terminal :class:`~repro.simulation.metrics.MeterSnapshot` entries
follow exactly the accounting of :class:`CostMeter` -- so the usual
pooled means and between-replication confidence intervals apply
unchanged, and agreement with ``SimulationEngine`` campaigns can be
asserted within CI.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional

import numpy as np

from ..core.parameters import CostParams, MobilityParams
from ..exceptions import ParameterError
from ..geometry.topology import CellTopology
from ..observability.context import current as _observability
from ..paging import PagingPlan, sdf_partition
from ..core.parameters import validate_delay, validate_threshold
from ..mobility.ctrw import CTRWSpec
from .kernels import (
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_RESIDENCE,
    STREAM_RESIDENCE_BRANCH,
    _lattice_kernel,
    _paging_tables,
    _RingChain,
    counter_below,
    counter_uniforms,
    drifted_directions,
    terminal_keys,
)
from .metrics import MeterSnapshot
from .runner import ReplicatedResult

__all__ = [
    "VectorizedDistanceEngine",
    "replay_trace_meters",
    "throughput_report",
]

#: z-score matching CostMeter's 95% half-width.
_Z95 = 1.96


def _meter_snapshot(
    slots: int,
    moves: int,
    updates: int,
    calls: int,
    polled_cells: int,
    cost_sum: float,
    cost_sq_sum: float,
    delay_counts: np.ndarray,
    costs: CostParams,
) -> MeterSnapshot:
    """One terminal's :class:`MeterSnapshot` from its raw accumulators.

    ``delay_counts[j]`` counts calls found in polling cycle ``j + 1``;
    the mean and half-width follow :class:`CostMeter` exactly.
    """
    mean = cost_sum / slots if slots else 0.0
    if slots >= 2:
        var = max(cost_sq_sum / slots - mean * mean, 0.0)
        half = _Z95 * math.sqrt(var / slots)
    else:
        half = math.inf
    if calls:
        delay = float(
            np.arange(1, delay_counts.size + 1, dtype=np.float64) @ delay_counts
        ) / calls
    else:
        delay = 0.0
    return MeterSnapshot(
        slots=slots,
        moves=moves,
        updates=updates,
        calls=calls,
        polled_cells=polled_cells,
        update_cost=updates * costs.update_cost,
        paging_cost=polled_cells * costs.poll_cost,
        mean_total_cost=float(mean),
        total_cost_half_width_95=float(half),
        mean_paging_delay=delay,
        delay_histogram={
            cycle + 1: int(count)
            for cycle, count in enumerate(delay_counts)
            if count
        },
    )


class VectorizedDistanceEngine(_RingChain):
    """K independent distance-strategy terminals as one NumPy chain.

    Parameters
    ----------
    topology:
        Cell geometry (line, hex, or square grid).
    threshold:
        Update threshold distance ``d`` in rings.
    mobility:
        ``(q, c)`` parameters, shared by all terminals.
    costs:
        ``(U, V)`` cost weights.
    max_delay:
        Paging delay bound ``m``; ignored when ``plan`` is given.
    plan:
        Optional explicit :class:`~repro.paging.PagingPlan` overriding
        the SDF default.
    terminals:
        Batch width ``K`` -- how many independent terminals to step per
        slot.
    seed:
        Integer seed of the stateless SplitMix64 counter RNG (``None``
        means 0).  Terminal ``k`` draws the same trajectory as terminal
        ``k`` of a homogeneous single-shard fleet run with this seed.
    event_mode:
        ``"exclusive"`` (chain-faithful, default) or ``"independent"``
        -- same slot semantics as :class:`SimulationEngine`.
    walk:
        ``None`` for the paper's uniform walk, or a
        :class:`~repro.mobility.ctrw.CTRWSpec` for residence-clock
        mobility (``event_mode`` then plays no role).
    record_ring_hits:
        Count the ring each call finds its terminal in (see
        :meth:`ring_hit_distribution`).
    """

    def __init__(
        self,
        topology: CellTopology,
        threshold: int,
        mobility: MobilityParams,
        costs: CostParams,
        max_delay=1,
        plan: Optional[PagingPlan] = None,
        terminals: int = 1024,
        seed=None,
        event_mode: str = "exclusive",
        walk: Optional[CTRWSpec] = None,
        record_ring_hits: bool = False,
    ) -> None:
        if terminals < 1:
            raise ParameterError(f"terminals must be >= 1, got {terminals}")
        if walk is not None and not isinstance(walk, CTRWSpec):
            raise ParameterError(
                f"walk must be a CTRWSpec (or None for the paper's uniform "
                f"walk), got {walk!r}"
            )
        if seed is None:
            seed = 0
        if not isinstance(seed, (int, np.integer)):
            raise ParameterError(
                f"the counter RNG needs an integer seed; got {seed!r}"
            )
        self.threshold = validate_threshold(threshold)
        validate_delay(max_delay)
        if plan is not None and plan.threshold != self.threshold:
            raise ParameterError(
                f"plan is for threshold {plan.threshold}, engine uses "
                f"{self.threshold}"
            )
        self.plan = plan if plan is not None else sdf_partition(self.threshold, max_delay)
        self.mobility = mobility
        self.costs = costs
        self.terminals = int(terminals)
        self.walk_spec = walk
        super().__init__(
            topology,
            terminal_keys(0, self.terminals),
            int(seed),
            event_mode,
            mobility.move_probability,
            mobility.call_probability,
            [self.plan],
        )
        if walk is not None:
            degree = self._dirs.shape[0]
            if walk.drift_direction >= degree:
                raise ParameterError(
                    f"drift_direction {walk.drift_direction} out of range for "
                    f"{topology!r} (degree {degree})"
                )
            # Initial residences hash slot -1: in-run resamples use the
            # current slot index, which is always >= 0.
            self._residence = walk.residence.from_uniforms(
                counter_uniforms(
                    self._idx_keys, self._seed, STREAM_RESIDENCE_BRANCH, -1
                ),
                counter_uniforms(self._idx_keys, self._seed, STREAM_RESIDENCE, -1),
            )
            self._last_dir = np.full(self.terminals, -1, dtype=np.int64)
        self._record_ring_hits = bool(record_ring_hits)
        # Metric handles, resolved once at construction (None when no
        # observability session is installed).  The vectorized engine
        # reports in bulk per run() call -- per-slot instrumentation
        # would defeat the point of batching.
        obs = _observability()
        if obs.enabled:
            labels = {
                "strategy": "distance",
                "d": self.threshold,
                "engine": "vectorized",
            }
            registry = obs.registry
            self._tracer = obs.tracer
            self._instruments = {
                "slots": registry.counter("slots_total", **labels),
                "moves": registry.counter("moves_total", **labels),
                "updates": registry.counter(
                    "updates_total", trigger="distance", **labels
                ),
                "calls": registry.counter("calls_total", **labels),
                "polled": registry.counter("polled_cells_total", **labels),
                "delay": registry.histogram("paging_delay_cycles", **labels),
                "update_cost": registry.counter("update_cost_total", **labels),
                "paging_cost": registry.counter("paging_cost_total", **labels),
            }
        else:
            self._tracer = None
            self._instruments = None
        self.reset_meters()
    # ------------------------------------------------------------------

    def reset_meters(self) -> None:
        """Zero every terminal's meter (positions and slot clock are kept).

        The vectorized analogue of swapping a fresh
        :class:`~repro.simulation.metrics.CostMeter` into an engine
        after warm-up slots.
        """
        K = self.terminals
        cycles = self.plan.delay_bound
        self._metered_slots = 0
        self._moves = np.zeros(K, dtype=np.int64)
        self._updates = np.zeros(K, dtype=np.int64)
        self._calls = np.zeros(K, dtype=np.int64)
        self._polled_cells = np.zeros(K, dtype=np.int64)
        self._cost_sum = np.zeros(K, dtype=np.float64)
        self._cost_sq_sum = np.zeros(K, dtype=np.float64)
        self._slot_cost = np.zeros(K, dtype=np.float64)
        self._delay_counts = np.zeros((K, cycles), dtype=np.int64)
        self._ring_hits = (
            np.zeros(self.threshold + 1, dtype=np.int64)
            if self._record_ring_hits
            else None
        )

    def ring_hit_distribution(self) -> np.ndarray:
        """Empirical ring occupancy at call times (sums to 1).

        Requires the engine to have been built with
        ``record_ring_hits=True`` and to have metered at least one
        call.  This is the simulated location distribution the
        empirical paging optimizer feeds into
        :func:`repro.paging.optimal_contiguous_partition`.
        """
        if self._ring_hits is None:
            raise ParameterError(
                "ring hits are not recorded; build the engine with "
                "record_ring_hits=True"
            )
        total = int(self._ring_hits.sum())
        if total == 0:
            raise ParameterError(
                "no calls metered yet; run more slots before asking for the "
                "ring-hit distribution"
            )
        return self._ring_hits.astype(np.float64) / total

    def run(self, slots: int) -> ReplicatedResult:
        """Advance every terminal ``slots`` slots; return pooled results."""
        if slots < 0:
            raise ParameterError(f"slots must be >= 0, got {slots}")
        if self._instruments is None:
            self._advance(slots)
            return self.result()
        before = (
            self._moves.copy(),
            self._updates.copy(),
            self._calls.copy(),
            self._polled_cells.copy(),
            self._delay_counts.copy(),
        )
        with self._tracer.span(
            "simulate.vectorized_run",
            slots=slots,
            terminals=self.terminals,
            threshold=self.threshold,
        ):
            self._advance(slots)
        self._record_run(before, slots)
        return self.result()

    def _advance(self, slots: int) -> None:
        """Run ``slots`` steps of the uniform or the timed (CTRW) walk."""
        step = self._step_counter if self.walk_spec is None else self._step_ctrw
        for _ in range(slots):
            step()

    def _record_run(self, before: tuple, slots: int) -> None:
        """Fold one observed run() into the metrics registry.

        Event counts report as bulk deltas; the cost counters are fed
        one per-terminal increment in terminal order (integer event
        delta times unit cost), so for a fresh-meter single run the
        exported ``update_cost_total``/``paging_cost_total`` are
        bit-equal to summing the per-terminal snapshot columns -- the
        same exactness contract :func:`~repro.simulation.runner.
        run_replicated` keeps for the per-cell engine.
        """
        ins = self._instruments
        moves0, updates0, calls0, polled0, delays0 = before
        d_updates = self._updates - updates0
        d_polled = self._polled_cells - polled0
        ins["slots"].inc(int(slots) * self.terminals)
        ins["moves"].inc(int((self._moves - moves0).sum()))
        ins["updates"].inc(int(d_updates.sum()))
        ins["calls"].inc(int((self._calls - calls0).sum()))
        ins["polled"].inc(int(d_polled.sum()))
        for cycle, count in enumerate((self._delay_counts - delays0).sum(axis=0)):
            if count:
                ins["delay"].observe(cycle + 1, int(count))
        U, V = self.costs.update_cost, self.costs.poll_cost
        update_cost, paging_cost = ins["update_cost"], ins["paging_cost"]
        for k in range(self.terminals):
            update_cost.inc(int(d_updates[k]) * U)
            paging_cost.inc(int(d_polled[k]) * V)

    def result(self) -> ReplicatedResult:
        """Freeze the current per-terminal meters into a pooled result."""
        return ReplicatedResult(snapshots=self.snapshots())

    def snapshots(self) -> List[MeterSnapshot]:
        """One :class:`MeterSnapshot` per terminal (CostMeter semantics)."""
        return [
            _meter_snapshot(
                self._metered_slots,
                int(self._moves[k]),
                int(self._updates[k]),
                int(self._calls[k]),
                int(self._polled_cells[k]),
                self._cost_sum[k],
                self._cost_sq_sum[k],
                self._delay_counts[k],
                self.costs,
            )
            for k in range(self.terminals)
        ]

    # -- internals --------------------------------------------------------

    def _step_counter(self) -> None:
        """One slot of the paper's uniform walk."""
        t = self.slot
        callers, movers = self._draw_events(t)
        cost = self._meter_calls(callers)
        self._finish_slot(callers, cost, movers, self._move(movers, t, self.threshold))

    def _step_ctrw(self) -> None:
        """One slot of residence-clock mobility.

        Timed slot semantics (the same as SimulationEngine's timed
        path): the call is the only probabilistic per-slot event,
        processed before the move; every terminal's residence clock
        then ticks, and expired clocks move and re-arm for their new
        cells.  ``event_mode`` plays no role -- a CTRW has no per-slot
        move probability to compete with the call draw.
        """
        t = self.slot
        callers, _ = counter_below(
            self._idx_keys, self._seed, STREAM_CALL, t, self._call_bound
        )
        cost = self._meter_calls(callers)
        self._residence -= 1
        movers = np.flatnonzero(self._residence <= 0)
        spec = self.walk_spec
        keys = self._idx_keys[movers]
        directions = drifted_directions(
            counter_uniforms(keys, self._seed, STREAM_DIRECTION, t),
            self._dirs.shape[0],
            spec.drift,
            spec.drift_direction,
            spec.persistence,
            self._last_dir[movers],
        )
        self._last_dir[movers] = directions
        self._residence[movers] = spec.residence.from_uniforms(
            counter_uniforms(keys, self._seed, STREAM_RESIDENCE_BRANCH, t),
            counter_uniforms(keys, self._seed, STREAM_RESIDENCE, t),
        )
        updating = self._move(movers, t, self.threshold, directions)
        self._finish_slot(callers, cost, movers, updating)

    def _meter_calls(self, callers: np.ndarray) -> np.ndarray:
        """Page and meter ``callers``; return their slot costs ``V * polled``."""
        rings, cycles, polled = self._page(callers)
        if self._ring_hits is not None:
            self._ring_hits += np.bincount(rings, minlength=self.threshold + 1)
        self._calls[callers] += 1
        self._polled_cells[callers] += polled
        self._delay_counts[callers, cycles] += 1
        return self.costs.poll_cost * polled

    def _finish_slot(
        self,
        callers: np.ndarray,
        cost: np.ndarray,
        movers: np.ndarray,
        updating: np.ndarray,
    ) -> None:
        """Meter moves and updates, then fold the slot costs in.

        Only terminals with an event are touched: an idle terminal's
        slot cost is ``0.0``, and adding it to the accumulators is
        exact.  Slot costs gather in ``_slot_cost``, zero outside this
        method, so a caller that also updates (independent mode, or a
        CTRW move) costs ``V * polled + U``.  Such a terminal is listed
        twice in ``rows``; fancy-index ``+=`` reads every row before it
        writes, so it is still added once.
        """
        self._moves[movers] += 1
        self._updates[updating] += 1
        slot_cost = self._slot_cost
        slot_cost[callers] = cost
        slot_cost[updating] += self.costs.update_cost
        rows = np.concatenate((callers, updating))
        cost = slot_cost[rows]
        self._cost_sum[rows] += cost
        self._cost_sq_sum[rows] += cost * cost
        slot_cost[rows] = 0.0
        self._metered_slots += 1
        self.slot += 1


def replay_trace_meters(
    trace,
    threshold: int,
    costs: CostParams,
    max_delay=1,
    plan: Optional[PagingPlan] = None,
) -> MeterSnapshot:
    """Replay a recorded :class:`~repro.mobility.traces.Trace` vectorized.

    Drives the distance strategy over the trace's recorded positions
    and call slots using the vectorized engine's relative-coordinate
    bookkeeping (same lattice kernel, same paging tables, same
    within-slot order: call before move).  Returns one
    :class:`MeterSnapshot` with CostMeter accounting -- the regression
    contract is that this snapshot matches a replay of the same trace
    through :class:`~repro.simulation.engine.SimulationEngine` meter
    for meter (see :func:`repro.mobility.traces.replay_trace`).
    """
    threshold = validate_threshold(threshold)
    if plan is not None and plan.threshold != threshold:
        raise ParameterError(
            f"plan is for threshold {plan.threshold}, replay uses {threshold}"
        )
    plan = plan if plan is not None else sdf_partition(threshold, max_delay)
    _, distance = _lattice_kernel(trace.topology)
    (ring_to_cycle,), (cumulative_polled,) = _paging_tables([plan], trace.topology)

    def coords(cell) -> np.ndarray:
        raw = cell if isinstance(cell, tuple) else (cell,)
        return np.asarray(raw, dtype=np.int64)

    prev = coords(trace.start)
    pos = np.zeros_like(prev)
    moves = updates = calls = polled_cells = 0
    cost_sum = cost_sq_sum = 0.0
    delay_counts = np.zeros(plan.delay_bound, dtype=np.int64)
    U, V = costs.update_cost, costs.poll_cost
    for cell, call in trace.steps:
        slot_cost = 0.0
        if call:
            ring = int(distance(pos[:, None])[0])
            if ring > threshold:
                raise ParameterError(
                    f"trace is inconsistent with threshold {threshold}: a call "
                    f"found the terminal at ring {ring}"
                )
            cycle = int(ring_to_cycle[ring])
            polled = int(cumulative_polled[cycle])
            calls += 1
            polled_cells += polled
            delay_counts[cycle] += 1
            slot_cost += V * polled
            pos[:] = 0
        here = coords(cell)
        if not np.array_equal(here, prev):
            pos += here - prev
            moves += 1
            if int(distance(pos[:, None])[0]) > threshold:
                updates += 1
                slot_cost += U
                pos[:] = 0
        prev = here
        cost_sum += slot_cost
        cost_sq_sum += slot_cost * slot_cost
    return _meter_snapshot(
        len(trace.steps), moves, updates, calls, polled_cells,
        cost_sum, cost_sq_sum, delay_counts, costs,
    )


def throughput_report(
    topology: CellTopology,
    threshold: int,
    mobility: MobilityParams,
    costs: CostParams,
    max_delay=1,
    engine_slots: int = 20_000,
    vector_slots: int = 20_000,
    terminals: int = 1024,
    seed: int = 0,
) -> dict:
    """Measure slots/sec of the per-cell engine vs the vectorized one.

    Both engines run the distance strategy at the same ``(d, m, q, c)``
    point; throughput counts *terminal-slots* per wall-clock second, so
    the numbers are directly comparable.  Returns a JSON-ready dict
    (consumed by ``benchmarks/bench_throughput.py`` and the CLI's
    ``speed`` subcommand).
    """
    from ..strategies.distance import DistanceStrategy  # local: avoid cycle
    from .engine import SimulationEngine

    engine = SimulationEngine(
        topology=topology,
        strategy=DistanceStrategy(threshold, max_delay=max_delay),
        mobility=mobility,
        costs=costs,
        seed=seed,
    )
    tic = time.perf_counter()
    engine.run(engine_slots)
    engine_seconds = time.perf_counter() - tic

    vectorized = VectorizedDistanceEngine(
        topology=topology,
        threshold=threshold,
        mobility=mobility,
        costs=costs,
        max_delay=max_delay,
        terminals=terminals,
        seed=seed,
    )
    tic = time.perf_counter()
    vectorized.run(vector_slots)
    vector_seconds = time.perf_counter() - tic

    engine_rate = engine_slots / engine_seconds if engine_seconds else math.inf
    vector_rate = (
        vector_slots * terminals / vector_seconds if vector_seconds else math.inf
    )
    return {
        "config": {
            "topology": repr(topology),
            "threshold": threshold,
            "max_delay": None if max_delay == math.inf else max_delay,
            "q": mobility.move_probability,
            "c": mobility.call_probability,
            "update_cost": costs.update_cost,
            "poll_cost": costs.poll_cost,
            "seed": seed,
        },
        "engine": {
            "terminal_slots": engine_slots,
            "seconds": engine_seconds,
            "slots_per_sec": engine_rate,
        },
        "vectorized": {
            "terminals": terminals,
            "slots": vector_slots,
            "terminal_slots": vector_slots * terminals,
            "seconds": vector_seconds,
            "slots_per_sec": vector_rate,
        },
        "speedup": vector_rate / engine_rate if engine_rate else math.inf,
    }
