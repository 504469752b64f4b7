"""The jointly-optimal solver's array scan against its scalar definition.

The registration step scores every candidate threshold in one array
pass (:meth:`_JointEvaluator.threshold_scan`).  These tests hold it to
the per-threshold ``adapt_plan`` + ``total_cost`` scan it replaces, and
hold :func:`optimize_joint_policy` to a reference copy of the old
per-candidate loop.
"""

import math

import numpy as np
import pytest

from repro import (
    CostParams,
    MobilityParams,
    OneDimensionalModel,
    TwoDimensionalModel,
    find_optimal_threshold,
)
from repro.core.batch import batched_steady_states
from repro.core.models import SquareGridModel
from repro.paging import partition_from_sizes, sdf_partition, subarea_count
from repro.paging.optimal import optimal_contiguous_partition
from repro.strategies import adapt_plan, optimize_joint_policy
from repro.strategies.jointly_optimal import _JointEvaluator

MODELS = (OneDimensionalModel, TwoDimensionalModel, SquareGridModel)
DELAYS = (1, 2, 3, 5, math.inf)
OPERATING_POINTS = (
    (MobilityParams(0.2, 0.02), CostParams(50.0, 10.0)),
    (MobilityParams(0.05, 0.01), CostParams(100.0, 1.0)),
    (MobilityParams(0.5, 0.001), CostParams(1000.0, 1.0)),
)


def _random_contiguous_plan(rng, d_max, m):
    """A random contiguous plan with at most ``min(d + 1, m)`` groups."""
    d = int(rng.integers(0, d_max + 1))
    groups = int(rng.integers(1, subarea_count(d, m) + 1))
    cuts = np.sort(rng.choice(np.arange(1, d + 1), size=groups - 1, replace=False))
    sizes = np.diff(np.concatenate(([0], cuts, [d + 1])))
    return partition_from_sizes(d, [int(s) for s in sizes])


def _reference_policy(model, costs, m, d_max, convention="paper", tol=1e-12,
                      max_iterations=25):
    """The per-candidate alternating loop the array scan replaced.

    Scores each operating point with one scalar ``C_T`` and rebuilds the
    adapted plan of every candidate threshold.  Returns
    ``(threshold, plan, cost history)``.
    """
    steady = batched_steady_states(model, d_max)

    def total_cost(d, plan):
        p = steady[d, : d + 1]
        rate = model.update_rate(d, convention=convention)
        update = float(p[d]) * rate * costs.update_cost
        cells = plan.expected_polled_cells(model.topology, p)
        return update + model.c * costs.poll_cost * cells

    ring_sizes = np.array([model.topology.ring_size(i) for i in range(d_max + 1)], float)
    d = find_optimal_threshold(model, costs, m, d_max=d_max, convention=convention).threshold
    plan = sdf_partition(d, m)
    cost = total_cost(d, plan)
    history = [cost]
    for _ in range(max_iterations):
        candidate = optimal_contiguous_partition(
            d, m, steady[d, : d + 1], ring_sizes[: d + 1]
        )
        candidate_cost = total_cost(d, candidate)
        if candidate_cost < cost:
            plan, cost = candidate, candidate_cost
        best_d, best_plan, best_cost = d, plan, cost
        for d_new in range(d_max + 1):
            if d_new == d:
                continue
            trial_plan = adapt_plan(plan, d_new, m)
            trial_cost = total_cost(d_new, trial_plan)
            if trial_cost < best_cost - 1e-15:
                best_d, best_plan, best_cost = d_new, trial_plan, trial_cost
        d, plan = best_d, best_plan
        improvement = cost - best_cost
        cost = min(cost, best_cost)
        history.append(cost)
        if improvement <= tol:
            break
    return d, plan, history


class _ThresholdDependentHex(TwoDimensionalModel):
    """The hex chain declared threshold-dependent: no batched solves."""

    threshold_invariant_rates = False


class TestThresholdScan:
    @pytest.mark.parametrize("model_cls", MODELS)
    @pytest.mark.parametrize("m", DELAYS)
    def test_matches_scalar_adapt_plan_scan(self, model_cls, m):
        rng = np.random.default_rng([MODELS.index(model_cls), DELAYS.index(m)])
        for mobility, costs in OPERATING_POINTS:
            model = model_cls(mobility)
            d_max = int(rng.integers(0, 41))
            evaluator = _JointEvaluator(model, costs, d_max, "paper")
            for _ in range(6):
                plan = _random_contiguous_plan(rng, d_max, m)
                scanned = evaluator.threshold_scan(plan, m)
                scalar = [
                    evaluator.total_cost(d_new, adapt_plan(plan, d_new, m))
                    for d_new in range(d_max + 1)
                ]
                np.testing.assert_allclose(scanned, scalar, rtol=1e-12, atol=0.0)


class TestOptimizeJointPolicyMatchesReference:
    @pytest.mark.parametrize("model_cls", MODELS)
    @pytest.mark.parametrize("m", DELAYS)
    def test_same_threshold_plan_and_history(self, model_cls, m):
        for mobility, costs in OPERATING_POINTS:
            model = model_cls(mobility)
            threshold, plan, history = _reference_policy(model, costs, m, d_max=40)
            policy = optimize_joint_policy(model, costs, m, d_max=40)
            assert policy.threshold == threshold
            assert policy.plan.describe() == plan.describe()
            assert policy.cost_history() == history

    @pytest.mark.parametrize("m", DELAYS)
    def test_flat_cost_ties_to_the_smallest_threshold(self, m):
        # Free updates with no calls, or free signaling: every candidate
        # costs exactly 0, so the strict-improvement rule keeps d = 0.
        for mobility, costs in (
            (MobilityParams(0.2, 0.0), CostParams(0.0, 1.0)),
            (MobilityParams(0.2, 0.05), CostParams(0.0, 0.0)),
        ):
            model = TwoDimensionalModel(mobility)
            threshold, plan, history = _reference_policy(model, costs, m, d_max=20)
            policy = optimize_joint_policy(model, costs, m, d_max=20)
            assert policy.threshold == threshold == 0
            assert policy.plan.describe() == plan.describe()
            assert policy.cost_history() == history

    @pytest.mark.parametrize("model_cls", MODELS)
    @pytest.mark.parametrize("m", [1, 3, math.inf])
    @pytest.mark.parametrize("convention", ["paper", "physical"])
    def test_baseline_is_the_distance_optimum(self, model_cls, m, convention):
        mobility, costs = OPERATING_POINTS[0]
        model = model_cls(mobility)
        policy = optimize_joint_policy(model, costs, m, d_max=30, convention=convention)
        distance = find_optimal_threshold(model, costs, m, d_max=30, convention=convention)
        assert policy.baseline_threshold == distance.threshold
        assert policy.baseline_cost == distance.total_cost


class TestThresholdDependentFallback:
    @pytest.mark.parametrize("m", [1, 2, 3, math.inf])
    def test_per_row_fallback_matches_batched_policy(self, m, monkeypatch):
        mobility, costs = OPERATING_POINTS[0]
        invariant = optimize_joint_policy(TwoDimensionalModel(mobility), costs, m, d_max=30)

        def no_batched_solve(*args, **kwargs):
            raise AssertionError("threshold-dependent model reached the batched solver")

        monkeypatch.setattr("repro.core.batch.batched_steady_states", no_batched_solve)
        fallback = optimize_joint_policy(_ThresholdDependentHex(mobility), costs, m, d_max=30)
        assert fallback.threshold == invariant.threshold
        assert fallback.plan.describe() == invariant.plan.describe()
        assert fallback.baseline_threshold == invariant.baseline_threshold
        assert fallback.total_cost == pytest.approx(invariant.total_cost, rel=1e-12)
        assert fallback.cost_history() == pytest.approx(
            invariant.cost_history(), rel=1e-12
        )
