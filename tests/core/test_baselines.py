"""Unit tests for the analytical baseline cost models.

The strongest check -- exact agreement with the independently
implemented simulation strategies -- lives in the integration suite;
these tests cover the formulas, edge cases, and qualitative orderings.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    ParameterError,
    find_optimal_threshold,
    location_area_costs,
    movement_based_costs,
    optimal_la_radius,
    optimal_movement_threshold,
    optimal_timer_period,
    time_based_costs,
)
from repro.core.baselines import _movement_curve, _timer_curve
from repro.geometry import HexTopology, LineTopology, SquareTopology

MOBILITY = MobilityParams(0.2, 0.02)
COSTS = CostParams(30.0, 2.0)
LINE = LineTopology()
HEX = HexTopology()


class TestMovementBased:
    def test_m1_updates_every_move(self):
        result = movement_based_costs(LINE, MOBILITY, COSTS, 1)
        # Single state k=0: update rate q, paging always radius 0.
        assert result.update_cost == pytest.approx(COSTS.U * MOBILITY.q)
        assert result.paging_cost == pytest.approx(MOBILITY.c * COSTS.V * 1)

    def test_distribution_is_truncated_geometric(self):
        q, c = MOBILITY.q, MOBILITY.c
        r = q / (q + c)
        result = movement_based_costs(LINE, MOBILITY, COSTS, 3)
        weights = [1, r, r**2]
        p2 = weights[2] / sum(weights)
        assert result.update_cost == pytest.approx(COSTS.U * q * p2)

    def test_larger_m_fewer_updates_more_paging(self):
        small = movement_based_costs(HEX, MOBILITY, COSTS, 2)
        large = movement_based_costs(HEX, MOBILITY, COSTS, 8)
        assert large.update_cost < small.update_cost
        assert large.paging_cost > small.paging_cost

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_invalid_threshold(self, bad):
        with pytest.raises(ParameterError):
            movement_based_costs(LINE, MOBILITY, COSTS, bad)


class TestTimeBased:
    def test_t1_updates_every_slot(self):
        result = time_based_costs(LINE, MOBILITY, COSTS, 1)
        assert result.update_cost == pytest.approx(COSTS.U)
        # Radius after the forced update is 0: one cell paged per call.
        assert result.paging_cost == pytest.approx(MOBILITY.c * COSTS.V)

    def test_zero_call_probability(self):
        mobility = MobilityParams(0.2, 0.0)
        result = time_based_costs(LINE, mobility, COSTS, 5)
        assert result.update_cost == pytest.approx(COSTS.U / 5)
        assert result.paging_cost == 0.0

    def test_longer_period_fewer_updates(self):
        short = time_based_costs(HEX, MOBILITY, COSTS, 3)
        long = time_based_costs(HEX, MOBILITY, COSTS, 12)
        assert long.update_cost < short.update_cost
        assert long.paging_cost > short.paging_cost

    def test_timer_pages_more_than_movement_at_same_budget(self):
        # With the same paging radius cap k, the timer scheme reaches
        # the cap even when stationary; it can never page less.
        timer = time_based_costs(HEX, MOBILITY, COSTS, 5)
        movement = movement_based_costs(HEX, MOBILITY, COSTS, 5)
        assert timer.paging_cost > movement.paging_cost


class TestLocationArea:
    def test_1d_closed_form(self):
        result = location_area_costs(LINE, MOBILITY, COSTS, 2)
        width = 5
        assert result.update_cost == pytest.approx(COSTS.U * MOBILITY.q / width)
        assert result.paging_cost == pytest.approx(MOBILITY.c * COSTS.V * width)

    def test_hex_closed_form(self):
        result = location_area_costs(HEX, MOBILITY, COSTS, 2)
        cells = 19
        assert result.update_cost == pytest.approx(
            COSTS.U * MOBILITY.q * 5 / cells
        )
        assert result.paging_cost == pytest.approx(MOBILITY.c * COSTS.V * cells)

    def test_radius_zero(self):
        result = location_area_costs(LINE, MOBILITY, COSTS, 0)
        assert result.update_cost == pytest.approx(COSTS.U * MOBILITY.q)

    def test_square_closed_form(self):
        result = location_area_costs(SquareTopology(), MOBILITY, COSTS, 2)
        cells = 13  # 2*2*3 + 1
        assert result.update_cost == pytest.approx(COSTS.U * MOBILITY.q * 5 / cells)
        assert result.paging_cost == pytest.approx(MOBILITY.c * COSTS.V * cells)

    def test_la_never_beats_distance_based(self):
        # At every radius, the optimal distance-based scheme (delay 1)
        # is at least as good: same paging area, but centered updates
        # avoid boundary ping-pong.
        model = OneDimensionalModel(MOBILITY)
        best_distance = find_optimal_threshold(
            model, COSTS, 1, convention="physical"
        ).total_cost
        best_la = optimal_la_radius(LINE, MOBILITY, COSTS).total_cost
        assert best_distance <= best_la + 1e-9


class TestOptimalParameters:
    def test_optimal_movement_is_global(self):
        best = optimal_movement_threshold(HEX, MOBILITY, COSTS, max_threshold=30)
        for M in range(1, 31):
            assert best.total_cost <= movement_based_costs(
                HEX, MOBILITY, COSTS, M
            ).total_cost + 1e-12

    def test_optimal_timer_is_global(self):
        best = optimal_timer_period(LINE, MOBILITY, COSTS, max_period=50)
        for T in range(1, 51):
            assert best.total_cost <= time_based_costs(
                LINE, MOBILITY, COSTS, T
            ).total_cost + 1e-12

    def test_optimal_la_is_global(self):
        best = optimal_la_radius(HEX, MOBILITY, COSTS, max_radius=20)
        for n in range(21):
            assert best.total_cost <= location_area_costs(
                HEX, MOBILITY, COSTS, n
            ).total_cost + 1e-12

    def test_scheme_labels(self):
        assert optimal_movement_threshold(LINE, MOBILITY, COSTS).scheme == "movement"
        assert optimal_timer_period(LINE, MOBILITY, COSTS).scheme == "timer"
        assert optimal_la_radius(LINE, MOBILITY, COSTS).scheme == "location-area"

    def test_total_is_sum(self):
        result = movement_based_costs(HEX, MOBILITY, COSTS, 4)
        assert result.total_cost == result.update_cost + result.paging_cost


def _callback_argmin(evaluate, lo, hi):
    """The per-parameter scan the cost-vector ``_argmin`` replaced."""
    best, best_value = lo, math.inf
    for parameter in range(lo, hi + 1):
        value = evaluate(parameter).total_cost
        if value < best_value - 1e-15:
            best_value, best = value, parameter
    return best


# Duck-typed (q, c) so the edges MobilityParams rejects (q = 0, c = 1)
# are reachable: the closed forms only read .q and .c.
EDGE_MOBILITIES = [
    SimpleNamespace(q=0.2, c=0.02),
    SimpleNamespace(q=0.005, c=0.1),
    SimpleNamespace(q=0.9, c=0.0005),
    SimpleNamespace(q=0.3, c=0.0),
    SimpleNamespace(q=0.0, c=0.05),
    SimpleNamespace(q=0.0, c=0.0),
    SimpleNamespace(q=0.0, c=1.0),
]
TOPOLOGIES = [LINE, HEX, SquareTopology()]


class TestVectorizedCurves:
    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=["line", "hex", "square"])
    @pytest.mark.parametrize("mobility", EDGE_MOBILITIES, ids=str)
    def test_curves_match_closed_forms(self, topology, mobility):
        for costs in (COSTS, CostParams(1000.0, 1.0), CostParams(1.0, 10.0)):
            movement = _movement_curve(topology, mobility, costs, 60)
            timer = _timer_curve(topology, mobility, costs, 120)
            np.testing.assert_allclose(
                movement,
                [movement_based_costs(topology, mobility, costs, M).total_cost
                 for M in range(1, 61)],
                rtol=1e-12, atol=0.0,
            )
            np.testing.assert_allclose(
                timer,
                [time_based_costs(topology, mobility, costs, T).total_cost
                 for T in range(1, 121)],
                rtol=1e-12, atol=0.0,
            )

    @pytest.mark.parametrize("topology", TOPOLOGIES, ids=["line", "hex", "square"])
    @pytest.mark.parametrize("mobility", EDGE_MOBILITIES, ids=str)
    def test_winners_match_callback_scan(self, topology, mobility):
        for costs in (COSTS, CostParams(1000.0, 1.0), CostParams(1.0, 10.0)):
            for bound in (1, 7, 100):
                assert optimal_movement_threshold(
                    topology, mobility, costs, max_threshold=bound
                ) == movement_based_costs(topology, mobility, costs, _callback_argmin(
                    lambda M: movement_based_costs(topology, mobility, costs, M), 1, bound
                ))
                assert optimal_timer_period(
                    topology, mobility, costs, max_period=2 * bound
                ) == time_based_costs(topology, mobility, costs, _callback_argmin(
                    lambda T: time_based_costs(topology, mobility, costs, T), 1, 2 * bound
                ))
                assert optimal_la_radius(
                    topology, mobility, costs, max_radius=bound
                ) == location_area_costs(topology, mobility, costs, _callback_argmin(
                    lambda n: location_area_costs(topology, mobility, costs, n), 0, bound
                ))

    def test_ties_go_to_the_first_parameter(self):
        # q = 0: the walker never moves, every M costs c V g(0).
        still = SimpleNamespace(q=0.0, c=0.05)
        assert optimal_movement_threshold(HEX, still, COSTS).parameter == 1
        # c = 1: a call every slot; every T >= 2 costs V g(1) exactly,
        # below T = 1's U + V g(0).
        always = SimpleNamespace(q=0.0, c=1.0)
        curve = _timer_curve(HEX, always, COSTS, 10)
        assert np.all(curve[1:] == curve[1])
        assert optimal_timer_period(HEX, always, COSTS, max_period=10).parameter == 2

    def test_empty_range_keeps_the_lower_bound(self):
        assert optimal_movement_threshold(HEX, MOBILITY, COSTS, max_threshold=0).parameter == 1
        assert optimal_timer_period(HEX, MOBILITY, COSTS, max_period=0).parameter == 1
