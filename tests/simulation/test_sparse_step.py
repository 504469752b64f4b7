"""Event-sparse counter steps against their dense reference.

The fleet shard step and the vectorized counter step hash every
terminal once per slot, keep the ascending indices whose draw falls
below an integer bound, and touch only those terminals.  The dense
steps they replaced -- full-length uniforms, boolean masks, per-terminal
slot-cost arrays -- are kept here, verbatim in arithmetic, as the
oracle: every snapshot field and meter, floats included, must match
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import CostParams, MobilityParams
from repro.exceptions import ParameterError
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.simulation.fleet import FleetShardEngine
from repro.simulation.kernels import (
    COUNTER_CHUNK,
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_EVENT,
    counter_below,
    counter_uniforms,
    terminal_keys,
    unit_bound,
)
from repro.simulation.vectorized import VectorizedDistanceEngine

TOPOLOGIES = [HexTopology(), LineTopology(), SquareTopology()]
TOPOLOGY_IDS = ["hex", "line", "square"]
EVENT_MODES = ["exclusive", "independent"]
SHARD_SIZES = [1, COUNTER_CHUNK - 1, COUNTER_CHUNK, COUNTER_CHUNK + 1, 70001]

#: Profiles the fleet rows cycle through: ordinary ones, a call-free
#: one (c = 0) and a never-idle one (q + c = 1 as rounded).
PROFILES = [(0.05, 0.01), (0.3, 0.0), (0.6, 0.4), (0.25, 0.08)]


# -- the dense reference steps ------------------------------------------


class DenseFleetEngine(FleetShardEngine):
    """The fleet shard step as full-length masks over every terminal."""

    def _step(self):
        t = self.slot
        u = counter_uniforms(self._idx_keys, self.seed, STREAM_EVENT, t)
        called = u < self._c
        if self.event_mode == "exclusive":
            moved = (~called) & (u < self._q + self._c)
        else:
            moved = u < self._q
            called = counter_uniforms(self._idx_keys, self.seed, STREAM_CALL, t) < self._c
        slot_cost = 0.0
        if called.any():
            rings = self._distance(self._pos[called].T)
            classes = self._class_idx[called]
            cycles = self._ring_to_cycle[classes, rings]
            polled = self._cum_polled[classes, cycles]
            self._calls[called] += 1
            self._polled[called] += polled
            np.add.at(self._delay_counts, cycles, 1)
            slot_cost += float(self._poll_cost[called] @ polled)
            self._pos[called] = 0
        if moved.any():
            movers = np.nonzero(moved)[0]
            u_dir = counter_uniforms(self._idx_keys[movers], self.seed, STREAM_DIRECTION, t)
            directions = (u_dir * self._dirs.shape[0]).astype(np.int64)
            self._pos[movers] += self._dirs[directions]
            self._moves[movers] += 1
            distances = self._distance(self._pos[movers].T)
            updating = movers[distances > self._threshold[movers]]
            if updating.size:
                self._updates[updating] += 1
                slot_cost += float(self._update_cost[updating].sum())
                self._pos[updating] = 0
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1


class DenseVectorizedEngine(VectorizedDistanceEngine):
    """The vectorized counter step with a full per-terminal slot cost."""

    def _step_counter(self):
        c = self.mobility.call_probability
        q = self.mobility.move_probability
        t = self.slot
        u = counter_uniforms(self._idx_keys, self._seed, STREAM_EVENT, t)
        if self.event_mode == "exclusive":
            called = u < c
            moved = (~called) & (u < c + q)
        else:
            moved = u < q
            called = counter_uniforms(self._idx_keys, self._seed, STREAM_CALL, t) < c
        slot_cost = np.zeros(self.terminals, dtype=np.float64)
        if called.any():
            rings = self._distance(self._pos[called].T)
            np.add.at(self._ring_hits, rings, 1)
            cycles = self._ring_to_cycle[rings]
            polled = self._cum_polled[cycles]
            self._calls[called] += 1
            self._polled_cells[called] += polled
            np.add.at(self._delay_counts, (np.nonzero(called)[0], cycles), 1)
            slot_cost[called] += self.costs.poll_cost * polled
            self._pos[called] = 0
        if moved.any():
            movers = np.nonzero(moved)[0]
            u_dir = counter_uniforms(self._idx_keys[movers], self._seed, STREAM_DIRECTION, t)
            directions = (u_dir * float(self._dirs.shape[0])).astype(np.int64)
            self._pos[movers] += self._dirs[directions]
            self._moves[movers] += 1
            updating = movers[self._distance(self._pos[movers].T) > self.threshold]
            if updating.size:
                self._updates[updating] += 1
                slot_cost[updating] += self.costs.update_cost
                self._pos[updating] = 0
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1


# -- unit_bound is exactly the float comparison ----------------------------

_DRAW = st.integers(min_value=0, max_value=2**53 - 1)
_TINY = float(np.nextafter(0.0, 1.0))
_BELOW_C = float(np.nextafter(0.01, 0.0))
_ROUNDED_SUM = 0.05 + 0.01


def _agrees(x: int, p: float) -> bool:
    return bool((np.uint64(x) < unit_bound(p)) == (x * 2.0**-53 < p))


@settings(max_examples=300, deadline=None)
@given(x=_DRAW, p=st.floats(min_value=0.0, max_value=1.0))
@example(x=0, p=0.0)
@example(x=2**53 - 1, p=1.0)
@example(x=0, p=_TINY)
def test_unit_bound_matches_float_comparison(x, p):
    assert _agrees(x, p)


@pytest.mark.parametrize(
    "p", [0.0, 1.0, _TINY, 2.2250738585072014e-308, _BELOW_C, _ROUNDED_SUM, 1 / 3]
)
def test_unit_bound_is_exact_at_its_own_edge(p):
    bound = int(unit_bound(p))
    for x in (bound - 1, bound):
        if 0 <= x < 2**53:
            assert _agrees(x, p)


def test_unit_bound_clips_and_broadcasts():
    bounds = unit_bound(np.array([-0.5, 0.0, 0.5, 1.0, 2.0]))
    assert bounds.dtype == np.uint64
    assert bounds.tolist() == [0, 0, 2**52, 2**53, 2**53]


@pytest.mark.parametrize("count", SHARD_SIZES)
def test_counter_below_selects_the_dense_draws(count):
    keys = terminal_keys(12345, count)
    p = np.random.default_rng(count).random(count) * 0.3
    u = counter_uniforms(keys, 9, STREAM_EVENT, 4)
    for bound, dense in ((unit_bound(p), u < p), (unit_bound(0.1), u < 0.1)):
        rows, draws = counter_below(keys, 9, STREAM_EVENT, 4, bound)
        np.testing.assert_array_equal(rows, np.flatnonzero(dense))
        np.testing.assert_array_equal(draws * 2.0**-53, u[rows])


# -- sparse steps equal the dense reference ---------------------------------


def _fleet_columns(count: int):
    rng = np.random.default_rng(count)
    profile = np.arange(count) % len(PROFILES)
    q = np.array([PROFILES[i][0] for i in profile])
    c = np.array([PROFILES[i][1] for i in profile])
    return dict(
        q=q,
        c=c,
        update_cost=rng.uniform(5.0, 80.0, count),
        poll_cost=rng.uniform(0.5, 7.0, count),
        threshold=rng.integers(0, 5, count),
        profile_index=profile,
    )


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("event_mode", EVENT_MODES)
@pytest.mark.parametrize("count", SHARD_SIZES)
def test_fleet_step_matches_dense_reference(topology, event_mode, count):
    columns = _fleet_columns(count)
    engines = [
        cls(
            topology=topology, n_profiles=len(PROFILES), max_delay=2,
            global_offset=1_000_003, seed=17, event_mode=event_mode, **columns,
        )
        for cls in (FleetShardEngine, DenseFleetEngine)
    ]
    for engine in engines:
        engine.run(6)
    sparse, dense = engines
    assert sparse.snapshot(index=3) == dense.snapshot(index=3)
    np.testing.assert_array_equal(sparse._pos, dense._pos)


_STATE = (
    "_moves", "_updates", "_calls", "_polled_cells", "_delay_counts",
    "_cost_sum", "_cost_sq_sum", "_pos", "_ring_hits",
)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("event_mode", EVENT_MODES)
@pytest.mark.parametrize("q,c", [(0.25, 0.08), (0.3, 0.0), (0.6, 0.4)])
@pytest.mark.parametrize("count", [1, COUNTER_CHUNK + 1])
@pytest.mark.parametrize("threshold", [0, 2])
def test_vectorized_counter_step_matches_dense_reference(
    topology, event_mode, q, c, count, threshold
):
    # At d = 0 an independent-mode caller that also moves updates in
    # the same slot, so its slot cost is V * polled + U.
    engines = [
        cls(
            topology, threshold, MobilityParams(q, c), CostParams(37.3, 1.7),
            max_delay=2, terminals=count, seed=5, event_mode=event_mode,
            record_ring_hits=True,
        )
        for cls in (VectorizedDistanceEngine, DenseVectorizedEngine)
    ]
    for engine in engines:
        for _ in range(8):
            engine._step_counter()
    sparse, dense = engines
    for name in _STATE:
        np.testing.assert_array_equal(
            getattr(sparse, name), getattr(dense, name), err_msg=name
        )


# -- direct engine construction is validated ----------------------------------


def _bad(column: str, value):
    columns = _fleet_columns(8)
    columns[column] = columns[column].copy()
    columns[column][3] = value
    return columns


@pytest.mark.parametrize(
    "columns,match",
    [
        (_bad("c", np.nan), "'c' must be finite"),
        (_bad("q", np.inf), "'q' must be finite"),
        (_bad("update_cost", np.nan), "'update_cost' must be finite"),
        (_bad("poll_cost", -np.inf), "'poll_cost' must be finite"),
        (_bad("q", 0.0), "mobility out of range"),
        (_bad("c", -0.01), "mobility out of range"),
        ({**_fleet_columns(8), "q": np.full(8, 0.9), "c": np.full(8, 0.9)},
         "mobility out of range"),
        (_bad("update_cost", -1.0), "costs must be >= 0"),
        (_bad("poll_cost", -1.0), "costs must be >= 0"),
        (_bad("threshold", -1), "thresholds must be >= 0"),
        ({**_fleet_columns(8), "c": np.full(7, 0.01)}, "shape"),
        ({**_fleet_columns(8), "poll_cost": np.ones((8, 1))}, "shape"),
        (_bad("profile_index", len(PROFILES)), "profile_index out of range"),
    ],
    ids=[
        "c-nan", "q-inf", "update-cost-nan", "poll-cost-inf", "q-zero",
        "c-negative", "q-plus-c-above-one", "update-cost-negative",
        "poll-cost-negative", "threshold-negative", "short-column",
        "2d-column", "profile-out-of-range",
    ],
)
def test_engine_rejects_invalid_columns(columns, match):
    with pytest.raises(ParameterError, match=match):
        FleetShardEngine(
            topology=HexTopology(), n_profiles=len(PROFILES), max_delay=2,
            **columns,
        )
