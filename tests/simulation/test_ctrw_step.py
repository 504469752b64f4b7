"""The CTRW slot on the shared chain against its dense reference.

The vectorized engine's timed-mobility slot draws calls with
``counter_below``, ticks the residence clocks, composes drifted
directions, and hands the movers to the chain's move-and-threshold
step, touching only terminals with an event.  The dense slot it
replaced -- a full-length call mask, a per-terminal slot-cost array,
and moves applied through 2-D fancy indexing -- is kept here, verbatim
in arithmetic, as the oracle: every meter, the ring hits, the residence
clocks and the last directions must match bit for bit.
"""

import numpy as np
import pytest

from repro import CostParams, MobilityParams
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.mobility.ctrw import mobility_preset
from repro.simulation.kernels import (
    STREAM_CALL,
    STREAM_DIRECTION,
    STREAM_RESIDENCE,
    STREAM_RESIDENCE_BRANCH,
    counter_uniforms,
    drifted_directions,
)
from repro.simulation.vectorized import VectorizedDistanceEngine

TOPOLOGIES = [HexTopology(), LineTopology(), SquareTopology()]
TOPOLOGY_IDS = ["hex", "line", "square"]
PRESETS = ["ctrw-exp", "ctrw-fixed", "ctrw-hyper", "ctrw-pareto", "ctrw-drift"]

_STATE = (
    "_moves", "_updates", "_calls", "_polled_cells", "_delay_counts",
    "_cost_sum", "_cost_sq_sum", "_pos", "_ring_hits", "_residence",
    "_last_dir",
)


class DenseCTRWEngine(VectorizedDistanceEngine):
    """The CTRW slot as full-length masks and a per-terminal slot cost."""

    def _step_ctrw(self):
        t = self.slot
        c = self.mobility.call_probability
        called = counter_uniforms(self._idx_keys, self._seed, STREAM_CALL, t) < c
        slot_cost = np.zeros(self.terminals, dtype=np.float64)
        if called.any():
            callers = np.flatnonzero(called)
            rings = self._distance(self._pos[callers].T)
            self._ring_hits += np.bincount(rings, minlength=self.threshold + 1)
            cycles = self._ring_to_cycle[rings]
            polled = self._cum_polled[cycles]
            self._calls[callers] += 1
            self._polled_cells[callers] += polled
            self._delay_counts[callers, cycles] += 1
            slot_cost[callers] += self.costs.poll_cost * polled
            self._pos[callers] = 0
        self._residence -= 1
        moved = self._residence <= 0
        if moved.any():
            movers = np.nonzero(moved)[0]
            spec = self.walk_spec
            keys = self._idx_keys[movers]
            u_dir = counter_uniforms(keys, self._seed, STREAM_DIRECTION, t)
            directions = drifted_directions(
                u_dir, self._dirs.shape[0], spec.drift, spec.drift_direction,
                spec.persistence, self._last_dir[movers],
            )
            self._last_dir[movers] = directions
            self._pos[movers] += self._dirs[directions]
            self._moves[movers] += 1
            self._residence[movers] = spec.residence.from_uniforms(
                counter_uniforms(keys, self._seed, STREAM_RESIDENCE_BRANCH, t),
                counter_uniforms(keys, self._seed, STREAM_RESIDENCE, t),
            )
            updating = movers[self._distance(self._pos[movers].T) > self.threshold]
            if updating.size:
                self._updates[updating] += 1
                slot_cost[updating] += self.costs.update_cost
                self._pos[updating] = 0
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=TOPOLOGY_IDS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("threshold", [0, 2])
def test_ctrw_step_matches_dense_reference(topology, preset, threshold):
    # At d = 0 a caller whose clock expires in the same slot moves out
    # of its fresh center and updates, so its slot cost is V * polled + U.
    spec = mobility_preset(preset, 0.3)
    engines = [
        cls(
            topology, threshold, MobilityParams(0.3, 0.08), CostParams(37.3, 1.7),
            max_delay=2, terminals=301, seed=5, walk=spec, record_ring_hits=True,
        )
        for cls in (VectorizedDistanceEngine, DenseCTRWEngine)
    ]
    for engine in engines:
        engine.run(20)
        engine.reset_meters()
        engine.run(120)
    sparse, dense = engines
    for name in _STATE:
        np.testing.assert_array_equal(
            getattr(sparse, name), getattr(dense, name), err_msg=name
        )
    assert sparse.snapshots() == dense.snapshots()
