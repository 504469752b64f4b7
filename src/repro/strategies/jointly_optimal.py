"""Jointly optimal paging + registration by alternating minimization.

Hajek, Mitzel & Yang (PAPERS.md, cs/0702102) prove that jointly optimal
paging and registration policies can be found by an iterative algorithm
that alternates two exactly-solvable subproblems: optimize the paging
policy against the registration policy's conditional location
distribution, then optimize the registration policy against the paging
policy.  This module realizes that algorithm on the paper's
ring-distance Markov chain, where a policy pair is

* a **registration set**: the distance threshold ``d`` (report when the
  ring distance exceeds ``d``), and
* a **paging order**: a contiguous partition of rings ``0..d`` into at
  most ``m`` polling groups (a :class:`~repro.paging.PagingPlan`).

The two coordinate steps are:

paging step
    Given ``d``, the conditional location law is the chain's steady
    state ``p_{0,d}..p_{d,d}``; the optimal order polls ring groups by
    the dynamic program of
    :func:`repro.paging.optimal.optimal_contiguous_partition` --
    exactly solvable, so the step never worsens the cost.

registration step
    Given the paging policy, scan every threshold ``d'`` in
    ``0..d_max`` with the incumbent plan *adapted* to ``d'`` (rings
    beyond ``d'`` dropped; new rings appended as extra polling groups
    while the delay bound allows, else merged into the last group).
    The incumbent ``(d, plan)`` is one of the candidates, so this step
    never worsens the cost either.  All candidates are scored in one
    array pass (:meth:`_JointEvaluator.threshold_scan`); only the
    winner's plan is built and re-scored on the scalar path.

Convergence criterion (documented contract):

* the per-iteration total cost ``C_T`` is **monotone non-increasing**
  -- each step minimizes over a family containing the incumbent, and a
  belt-and-braces guard refuses any step that would raise the cost;
* iteration 0 is the paper's distance-optimal operating point
  ``(d*, SDF)``, so the converged cost can never exceed the
  distance-based ``C_T(d*, m)`` -- the dominance relation the
  conformance suite pins;
* the loop stops when one full sweep improves the cost by at most
  ``tol``, or after ``max_iterations`` sweeps (bounded iteration
  count).

Steady states come from the batched triangular solver of
:mod:`repro.core.batch` (one solve covers every candidate threshold and
the distance-optimal initialization); models without
threshold-invariant rates fall back to per-threshold scalar solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.models import (
    MobilityModel,
    OneDimensionalModel,
    SquareGridModel,
    TwoDimensionalModel,
)
from ..core.parameters import (
    CostParams,
    MobilityParams,
    validate_delay,
    validate_threshold,
)
from ..core.optimizers import exhaustive_search
from ..core.threshold import DEFAULT_MAX_THRESHOLD, find_optimal_threshold
from ..exceptions import ParameterError
from ..geometry import HexTopology, LineTopology, SquareTopology
from ..geometry.topology import Cell, CellTopology
from ..paging import PagingPlan, partition_from_sizes, sdf_partition, subarea_count
from ..paging.optimal import optimal_contiguous_partition
from .base import register_strategy
from .distance import DistanceStrategy

__all__ = [
    "JointIteration",
    "JointPolicy",
    "JointlyOptimalStrategy",
    "adapt_plan",
    "exact_model_for_topology",
    "optimize_joint_policy",
]

#: Minimum strict improvement for the registration step to move the
#: threshold -- the same tie tolerance the exhaustive distance searcher
#: uses, so degenerate instances tie-break identically.
_TIE_TOLERANCE = 1e-15


@dataclass(frozen=True)
class JointIteration:
    """One accepted sweep of the alternating minimization."""

    iteration: int
    threshold: int
    plan: PagingPlan
    total_cost: float


@dataclass(frozen=True)
class JointPolicy:
    """A converged jointly-optimized (registration, paging) policy pair."""

    threshold: int
    plan: PagingPlan
    max_delay: float
    update_cost: float
    paging_cost: float
    expected_polled_cells: float
    expected_delay: float
    #: Accepted operating points, starting with iteration 0 = the
    #: distance-optimal ``(d*, SDF)`` initialization.
    history: Tuple[JointIteration, ...]
    converged: bool
    #: The distance-based optimum the iteration started from.
    baseline_threshold: int
    baseline_cost: float

    @property
    def total_cost(self) -> float:
        """``C_T = C_u + C_v`` of the joint policy."""
        return self.update_cost + self.paging_cost

    @property
    def iterations(self) -> int:
        """Number of full alternation sweeps performed."""
        return len(self.history) - 1

    def cost_history(self) -> List[float]:
        """Per-iteration total costs (monotone non-increasing)."""
        return [step.total_cost for step in self.history]


def _plan_sizes(plan: PagingPlan) -> List[int]:
    """Group sizes of a contiguous plan, validating contiguity."""
    expected = 0
    sizes: List[int] = []
    for group in plan.subareas:
        if list(group) != list(range(expected, expected + len(group))):
            raise ParameterError(
                "joint optimization requires contiguous distance-ordered "
                f"paging plans, got {plan.describe()!r}"
            )
        sizes.append(len(group))
        expected += len(group)
    return sizes


def adapt_plan(plan: PagingPlan, d_new: int, m) -> PagingPlan:
    """Re-fit a contiguous plan to a different threshold.

    Shrinking drops the rings beyond ``d_new`` (empty groups vanish);
    growing appends each new ring as its own polling group while the
    delay bound ``m`` allows more groups, then merges the remainder
    into the last group.  Used by the registration step to hold the
    paging *policy* fixed while the registration set varies.
    """
    d_new = validate_threshold(d_new)
    m = validate_delay(m)
    sizes = _plan_sizes(plan)
    if d_new == plan.threshold:
        return plan
    if d_new < plan.threshold:
        remaining = d_new + 1
        shrunk: List[int] = []
        for size in sizes:
            take = min(size, remaining)
            if take:
                shrunk.append(take)
            remaining -= take
            if remaining <= 0:
                break
        return partition_from_sizes(d_new, shrunk)
    max_groups = subarea_count(d_new, m)
    grown = list(sizes)
    for _ring in range(plan.threshold + 1, d_new + 1):
        if len(grown) < max_groups:
            grown.append(1)
        else:
            grown[-1] += 1
    return partition_from_sizes(d_new, grown)


class _JointEvaluator:
    """Analytic ``C_T(d, plan)`` for arbitrary contiguous plans.

    Holds the row-triangular steady-state matrix ``S`` (row ``d`` is
    ``p_{0,d} .. p_{d,d}``), the cumulative coverage ``g`` and the
    update cost ``C_u(d)`` of every threshold ``0..d_max``, all built
    once.  ``S`` is one batched triangular solve
    (:func:`repro.core.batch.batched_steady_states`) when the model's
    rates are threshold-invariant; otherwise it is stacked from
    per-threshold scalar solves.  Update costs follow eqn (61) with the
    requested boundary convention, paging costs eqns (62)-(65) with the
    plan's own grouping.
    """

    def __init__(
        self, model: MobilityModel, costs: CostParams, d_max: int, convention: str
    ) -> None:
        self.model = model
        self.costs = costs
        self.d_max = d_max
        self.convention = convention
        self.threshold_invariant = getattr(model, "threshold_invariant_rates", False)
        if self.threshold_invariant:
            from ..core.batch import (  # deferred: heavy
                batched_steady_states,
                batched_update_rates,
            )

            self.steady = batched_steady_states(model, d_max)
            rates = batched_update_rates(model, d_max, convention=convention)
        else:
            self.steady = np.zeros((d_max + 1, d_max + 1))
            for d in range(d_max + 1):
                self.steady[d, : d + 1] = model.steady_state(d)
            rates = np.array(
                [model.update_rate(d, convention=convention) for d in range(d_max + 1)]
            )
        topology = model.topology
        self._ring_sizes = np.array(
            [topology.ring_size(i) for i in range(d_max + 1)], dtype=float
        )
        self._coverage = np.cumsum(self._ring_sizes)
        self._update = np.diagonal(self.steady) * rates * costs.update_cost
        self._page_weight = model.c * costs.poll_cost

    def steady_row(self, d: int) -> np.ndarray:
        return self.steady[d, : d + 1]

    def ring_sizes(self, d: int) -> np.ndarray:
        return self._ring_sizes[: d + 1]

    def distance_optimum(self, m) -> Tuple[int, float]:
        """The paper's optimum ``(d*, C_T(d*, m))`` under SDF paging.

        Threshold-invariant models reuse ``S`` for the batched cost
        surface, so the solver needs one steady-state solve in all;
        other models take the scalar :func:`find_optimal_threshold`.
        """
        if not self.threshold_invariant:
            solution = find_optimal_threshold(
                self.model, self.costs, m, d_max=self.d_max, convention=self.convention
            )
            return solution.threshold, solution.total_cost
        from ..core.batch import compute_cost_surface  # deferred: heavy

        curve = compute_cost_surface(
            self.model,
            self.costs,
            self.d_max,
            delays=(m,),
            convention=self.convention,
            steady=self.steady,
        ).total[0]
        search = exhaustive_search(lambda d: float(curve[d]), self.d_max)
        return search.optimal_threshold, search.optimal_cost

    def breakdown(self, d: int, plan: PagingPlan):
        """``(C_u, C_v, E[cells], E[delay])`` at ``(d, plan)``."""
        update, paging, cells = self._components(d, plan)
        return update, paging, cells, plan.expected_delay(self.steady_row(d))

    def total_cost(self, d: int, plan: PagingPlan) -> float:
        update, paging, _ = self._components(d, plan)
        return update + paging

    def _components(self, d: int, plan: PagingPlan):
        cells = plan.expected_polled_cells(self.model.topology, self.steady_row(d))
        return float(self._update[d]), self._page_weight * cells, cells

    def threshold_scan(self, plan: PagingPlan, m) -> np.ndarray:
        """``C_T(d', adapt_plan(plan, d', m))`` for every ``d' = 0..d_max``.

        One array pass; no candidate plan is built.  Every
        ring of every candidate is mapped to the outermost ring of its
        adapted polling group, ``E[d', i]``, so the expected polled
        cells are ``sum_i S[d', i] g(E[d', i])``.  The map follows
        :func:`adapt_plan`: shrinking clips each incumbent group end to
        ``d'``; growing keeps the incumbent's ends, gives the next
        ``cap(d') - l`` new rings singleton groups and ends every
        remaining ring -- plus the incumbent's last group when no slot
        is free -- at ``d'``.  Entries beyond ``d'`` multiply zeros of
        ``S``.  Costs agree with the scalar path to rounding; callers
        re-evaluate the chosen candidate with :meth:`total_cost`.
        """
        d = plan.threshold
        sizes = _plan_sizes(plan)
        rings = np.arange(self.d_max + 1)
        ends = rings.copy()
        ends[: d + 1] = np.repeat(np.cumsum(sizes) - 1, sizes)
        # Place of each ring in the grown tail: 0 for the incumbent's
        # last group, i - d for a new ring, -1 for rings never merged.
        tail = np.where(rings > d, rings - d, np.where(ends == d, 0, -1))
        cap = rings + 1 if m == math.inf else np.minimum(rings + 1, int(m))
        free = cap - len(sizes)
        candidates = rings[:, np.newaxis]
        merged = (candidates > d) & (tail >= free[:, np.newaxis])
        group_ends = np.where(merged, candidates, np.minimum(ends, candidates))
        cells = (self.steady * self._coverage[group_ends]).sum(axis=1)
        return self._update + self._page_weight * cells


def optimize_joint_policy(
    model: MobilityModel,
    costs: CostParams,
    max_delay=1,
    d_max: int = DEFAULT_MAX_THRESHOLD,
    convention: str = "paper",
    tol: float = 1e-12,
    max_iterations: int = 25,
) -> JointPolicy:
    """Alternating minimization for the jointly optimal policy pair.

    Parameters
    ----------
    model:
        The terminal's mobility model (fixes geometry and ``q, c``).
    costs:
        Update and polling costs ``(U, V)``.
    max_delay:
        Delay bound ``m`` in polling cycles (``math.inf`` = unbounded).
    d_max:
        Registration-step search bound ``D``.
    convention:
        Boundary-rate convention for ``C_u`` at ``d = 0`` (matches
        :class:`~repro.core.costs.CostEvaluator`).
    tol:
        Stop when one full sweep improves ``C_T`` by at most this much.
    max_iterations:
        Hard bound on the number of alternation sweeps.

    Returns a :class:`JointPolicy` whose cost history is monotone
    non-increasing from the distance-based optimum ``C_T(d*, m)``.
    """
    m = validate_delay(max_delay)
    d_max = validate_threshold(d_max)
    if max_iterations < 1:
        raise ParameterError(f"max_iterations must be >= 1, got {max_iterations}")
    if not (tol >= 0.0):
        raise ParameterError(f"tol must be >= 0, got {tol}")

    evaluator = _JointEvaluator(model, costs, d_max, convention)
    baseline_threshold, baseline_cost = evaluator.distance_optimum(m)

    d = baseline_threshold
    plan = sdf_partition(d, m)
    cost = evaluator.total_cost(d, plan)
    history = [JointIteration(0, d, plan, cost)]

    converged = False
    for sweep in range(1, max_iterations + 1):
        # Paging step: exactly optimal contiguous partition for this d.
        candidate = optimal_contiguous_partition(
            d, m, evaluator.steady_row(d), evaluator.ring_sizes(d)
        )
        candidate_cost = evaluator.total_cost(d, candidate)
        if candidate_cost < cost:  # monotonicity guard
            plan, cost = candidate, candidate_cost

        # Registration step: score every threshold with the plan held
        # fixed (adapted to each candidate's ring count) in one array
        # pass.  Ascending scan with a strict-improvement tie tolerance
        # reproduces the distance searcher's tie-breaking on degenerate
        # instances; the winner is re-scored on the scalar path.
        best_d, best_cost = d, cost
        for d_new, trial_cost in enumerate(evaluator.threshold_scan(plan, m).tolist()):
            if d_new != d and trial_cost < best_cost - _TIE_TOLERANCE:
                best_d, best_cost = d_new, trial_cost
        if best_d != d:
            d, plan = best_d, adapt_plan(plan, best_d, m)
            best_cost = evaluator.total_cost(d, plan)
        improvement = cost - best_cost
        cost = min(cost, best_cost)  # guard: never record an increase
        history.append(JointIteration(sweep, d, plan, cost))
        if improvement <= tol:
            converged = True
            break

    update, paging, cells, delay = evaluator.breakdown(d, plan)
    return JointPolicy(
        threshold=d,
        plan=plan,
        max_delay=m,
        update_cost=update,
        paging_cost=paging,
        expected_polled_cells=cells,
        expected_delay=delay,
        history=tuple(history),
        converged=converged,
        baseline_threshold=baseline_threshold,
        baseline_cost=baseline_cost,
    )


def exact_model_for_topology(
    topology: CellTopology, mobility: MobilityParams
) -> MobilityModel:
    """The exact ring chain realized by a random walk on ``topology``."""
    if isinstance(topology, LineTopology):
        return OneDimensionalModel(mobility)
    if isinstance(topology, HexTopology):
        return TwoDimensionalModel(mobility)
    if isinstance(topology, SquareTopology):
        return SquareGridModel(mobility)
    raise ParameterError(
        "jointly-optimal strategy supports line, hex, and square "
        f"geometries, got {topology!r}"
    )


class JointlyOptimalStrategy(DistanceStrategy):
    """Distance registration + optimized paging order, solved jointly.

    At :meth:`attach` time the strategy maps the bound topology to its
    exact ring chain, runs :func:`optimize_joint_policy`, and then
    behaves as a distance-based scheme with the converged threshold and
    the converged (generally non-SDF) paging plan.

    Parameters
    ----------
    mobility:
        The terminal's ``(q, c)`` -- the joint optimization is offline,
        so the rates must be known up front (contrast
        :class:`~repro.strategies.dynamic.DynamicStrategy`).
    costs:
        The ``(U, V)`` cost weights.
    max_delay:
        Paging delay bound ``m``.
    d_max, tol, max_iterations:
        Forwarded to :func:`optimize_joint_policy`.
    convention:
        Boundary-rate convention; the default ``"physical"`` matches
        the simulated walk's actual update rate at ``d = 0``.
    """

    name = "jointly-optimal"

    def __init__(
        self,
        mobility: MobilityParams,
        costs: CostParams,
        max_delay=1,
        d_max: int = 50,
        convention: str = "physical",
        tol: float = 1e-12,
        max_iterations: int = 25,
    ) -> None:
        super().__init__(0, max_delay)  # placeholder until attach()
        self.mobility = mobility
        self.costs = costs
        self.d_max = d_max
        self.convention = convention
        self.tol = tol
        self.max_iterations = max_iterations
        self.policy: Optional[JointPolicy] = None

    def attach(self, topology: CellTopology, start: Cell) -> None:
        if self.policy is None:
            model = exact_model_for_topology(topology, self.mobility)
            self.policy = optimize_joint_policy(
                model,
                self.costs,
                self.max_delay,
                d_max=self.d_max,
                convention=self.convention,
                tol=self.tol,
                max_iterations=self.max_iterations,
            )
            self.threshold = self.policy.threshold
            self.plan = self.policy.plan
            self._groups_by_center.clear()
        super().attach(topology, start)

    def __repr__(self) -> str:
        delay = "inf" if self.max_delay == math.inf else self.max_delay
        if self.policy is None:
            return f"JointlyOptimalStrategy(unattached, max_delay={delay})"
        return (
            f"JointlyOptimalStrategy(threshold={self.threshold}, "
            f"plan={self.plan.describe()!r}, max_delay={delay})"
        )


register_strategy("jointly-optimal", JointlyOptimalStrategy)
