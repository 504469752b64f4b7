"""Counter-RNG engines and the fleet's backend plumbing.

Everything here runs without numba: the vectorized engine always steps
the NumPy counter-RNG chain, and the fleet's ``backend`` only selects
whether the compiled ``fleet_step`` or that same NumPy chain executes a
shard.  The ``numba``-marked tier at the bottom only runs on hosts with
the optional extra installed and pins the compiled fleet kernel against
its NumPy reference.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.backend import (
    numba_available,
    reset_backend_state,
    use_numpy_fallback,
)
from repro.core.parameters import CostParams, MobilityParams
from repro.exceptions import ParameterError
from repro.geometry import HexTopology, LineTopology, SquareTopology
from repro.simulation.fleet import FleetShardEngine, FleetSpec, run_fleet
from repro.simulation.kernels import kernel_compile_info, topology_code
from repro.simulation.vectorized import VectorizedDistanceEngine
from repro.workload import DEFAULT_MIX, Population

MOBILITY = MobilityParams(move_probability=0.25, call_probability=0.03)
COSTS = CostParams(update_cost=40.0, poll_cost=2.0)


def _engine(topology=None, event_mode="exclusive", seed=7):
    return VectorizedDistanceEngine(
        topology if topology is not None else HexTopology(),
        3,
        MOBILITY,
        COSTS,
        max_delay=2,
        terminals=96,
        seed=seed,
        event_mode=event_mode,
    )


def _columns(count):
    """Fleet shard columns matching ``_engine``'s homogeneous point."""
    return dict(
        q=np.full(count, MOBILITY.move_probability),
        c=np.full(count, MOBILITY.call_probability),
        update_cost=np.full(count, COSTS.update_cost),
        poll_cost=np.full(count, COSTS.poll_cost),
        threshold=np.full(count, 3),
        profile_index=np.zeros(count, dtype=np.int64),
    )


@pytest.mark.parametrize("topology", [HexTopology(), LineTopology(),
                                      SquareTopology()],
                         ids=lambda t: type(t).__name__)
@pytest.mark.parametrize("event_mode", ["exclusive", "independent"])
def test_counter_engine_bit_identical_to_forced_fallback(topology, event_mode):
    # The vectorized engine replays a homogeneous fleet shard exactly,
    # whether the shard runs the compiled kernel or is forced onto the
    # NumPy chain.
    engine = _engine(topology=topology, event_mode=event_mode)
    engine.run(300)
    for fallback in (False, True):
        with use_numpy_fallback() if fallback else nullcontext():
            shard = FleetShardEngine(
                topology, n_profiles=1, max_delay=2, seed=7,
                event_mode=event_mode, backend="auto", **_columns(96),
            )
        shard.run(300)
        for mine, theirs in (("_pos", "_pos"), ("_moves", "_moves"),
                             ("_updates", "_updates"), ("_calls", "_calls"),
                             ("_polled_cells", "_polled")):
            np.testing.assert_array_equal(
                getattr(engine, mine), getattr(shard, theirs), err_msg=mine
            )
        np.testing.assert_array_equal(
            engine._delay_counts.sum(axis=0), shard._delay_counts
        )


def test_counter_engine_is_reproducible_and_seed_sensitive():
    a = _engine(seed=11).run(400)
    b = _engine(seed=11).run(400)
    c = _engine(seed=12).run(400)
    assert a.mean_total_cost == b.mean_total_cost
    assert a.mean_total_cost != c.mean_total_cost


def test_counter_engine_requires_integer_seed():
    with pytest.raises(ParameterError, match="integer seed"):
        _engine(seed=1.5)
    # None degrades to seed 0 rather than erroring.
    engine = _engine(seed=None)
    assert engine._seed == 0


def test_backend_attributes_resolve():
    shard = FleetShardEngine(
        HexTopology(), n_profiles=1, max_delay=2, **_columns(8)
    )
    assert shard.backend == shard.backend_resolved == "numpy"
    shard = FleetShardEngine(
        HexTopology(), n_profiles=1, max_delay=2, backend="auto", **_columns(8)
    )
    assert shard.backend == "auto"
    assert shard.backend_resolved == (
        "numba" if numba_available() else "numpy"
    )


def test_fleet_totals_independent_of_backend_request():
    spec = FleetSpec.from_population(
        Population(DEFAULT_MIX), 400, COSTS, 2, seed=5, d_max=8
    )
    base = run_fleet(spec, slots=40, shards=2, seed=9)
    reset_backend_state()  # arm the warn-once latch for this test
    for backend in ("numba", "auto"):
        expect_warning = backend == "numba" and not numba_available()
        with pytest.warns(RuntimeWarning) if expect_warning else nullcontext():
            result = run_fleet(spec, slots=40, shards=2, seed=9,
                               backend=backend)
        assert result.moves == base.moves
        assert result.updates == base.updates
        assert result.calls == base.calls
        assert result.polled_cells == base.polled_cells
        assert result.update_cost == base.update_cost
        assert result.paging_cost == base.paging_cost


def test_topology_code_rejects_unknown_topology():
    class Fake:
        name = "torus"

    with pytest.raises(ParameterError):
        topology_code(Fake())


def test_kernel_compile_info_reports_host_state():
    info = kernel_compile_info()
    assert info["numba_available"] == numba_available()
    if not info["numba_available"]:
        assert info["compiled"] is False


@pytest.mark.numba
@pytest.mark.skipif(not numba_available(), reason="requires the numba extra")
def test_compiled_kernels_importable_and_bit_identical():
    from repro.simulation.kernels import compiled_kernels

    assert compiled_kernels() is not None
    spec = FleetSpec.homogeneous(HexTopology(), 3, MOBILITY, COSTS, 2, 96)
    compiled = run_fleet(spec, slots=300, seed=7, backend="numba")
    with use_numpy_fallback():
        interpreted = run_fleet(spec, slots=300, seed=7, backend="numba")
    for field in ("moves", "updates", "calls", "polled_cells",
                  "delay_histogram"):
        assert getattr(compiled, field) == getattr(interpreted, field), field
