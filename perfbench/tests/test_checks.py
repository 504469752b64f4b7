"""Every output check behind the fail ratio passes on the program's real
outputs and fails when those outputs are sabotaged."""

import dataclasses
import json
import math

import pytest

import workloads


def _fail_ratio(checks):
    return sum(not check.passed for check in checks) / len(checks)


def _only_failure(checks, name):
    failed = [check.name for check in checks if not check.passed]
    assert failed == [name], failed
    assert _fail_ratio(checks) > 0


@pytest.fixture(scope="module")
def quiet(tmp_path_factory):
    workload = workloads.make("fleet-quiet", terminals=100_000, shards=2, slots=50)
    inputs = workload.setup(3)
    outputs = workload.run_pass(inputs, tmp_path_factory.mktemp("quiet"))
    return workload, inputs, outputs


@pytest.fixture(scope="module")
def busy(tmp_path_factory):
    workload = workloads.make("fleet-busy", terminals=20_000, shards=4, slots=50)
    inputs = workload.setup(3)
    outputs = workload.run_pass(inputs, tmp_path_factory.mktemp("busy"))
    return workload, inputs, outputs


@pytest.fixture(scope="module")
def ctrw(tmp_path_factory):
    workload = workloads.make("ctrw-track")
    inputs = workload.setup(3)
    return workload, inputs, workload.run_pass(inputs, tmp_path_factory.mktemp("ctrw"))


@pytest.fixture(scope="module")
def plan(tmp_path_factory):
    workload = workloads.make("plan-grid", q_values=2, c_values=2)
    inputs = workload.setup(3)
    return workload, inputs, workload.run_pass(inputs, tmp_path_factory.mktemp("plan"))


@pytest.mark.parametrize("name", ["quiet", "busy", "ctrw", "plan"])
def test_real_outputs_pass_every_check(name, request):
    workload, inputs, outputs = request.getfixturevalue(name)
    checks = workload.checks(inputs, outputs) + workload.final_checks(0)
    assert checks and _fail_ratio(checks) == 0, [c for c in checks if not c.passed]


def _scale_profile_costs(result, factor):
    shards = tuple(
        dataclasses.replace(
            shard,
            profile_update_cost=tuple(v * factor for v in shard.profile_update_cost),
            profile_paging_cost=tuple(v * factor for v in shard.profile_paging_cost),
        )
        for shard in result.shards
    )
    return dataclasses.replace(result, shards=shards)


@pytest.mark.parametrize("name", ["quiet", "busy"])
def test_fleet_cost_off_transient_fails(name, request):
    workload, inputs, outputs = request.getfixturevalue(name)
    sabotaged = dataclasses.replace(
        outputs, result=_scale_profile_costs(outputs.result, 1.08)
    )
    checks = workload.checks(inputs, sabotaged)
    failed = {check.name for check in checks if not check.passed}
    assert failed == {f"fleet.transient_cost.{p.name}" for p in workload.profiles}


def test_fleet_incomplete_checkpoint_fails(busy, tmp_path):
    workload, inputs, outputs = busy
    payload = json.loads(outputs.checkpoint.read_text())
    payload["shards"] = payload["shards"][:-1]
    truncated = tmp_path / "fleet.json"
    truncated.write_text(json.dumps(payload))
    checks = workload.checks(inputs, dataclasses.replace(outputs, checkpoint=truncated))
    _only_failure(checks, "fleet.checkpoint_complete")


def test_fleet_rss_over_budget_fails(quiet):
    workload = quiet[0]
    budget = workloads.RSS_BASE_BYTES + workloads.RSS_BYTES_PER_TERMINAL * workload.terminals
    assert workload.final_checks(budget)[0].passed
    _only_failure(workload.final_checks(budget + 1), "fleet.rss_budget")


@pytest.mark.parametrize("preset", ["ctrw-fixed", "ctrw-pareto"])
def test_ctrw_wrong_verdict_fails(ctrw, preset):
    workload, inputs, outputs = ctrw
    rows = tuple(
        dataclasses.replace(row, converges=not row.converges)
        if row.mobility == preset else row
        for row in outputs.rows
    )
    checks = workload.checks(inputs, dataclasses.replace(outputs, rows=rows))
    _only_failure(checks, f"ctrw.verdict.{preset}")


def test_ctrw_dp_no_better_than_sdf_fails(ctrw):
    workload, inputs, outputs = ctrw
    paging = dataclasses.replace(outputs.paging, optimal_cells=outputs.paging.sdf_cells)
    checks = workload.checks(inputs, dataclasses.replace(outputs, paging=paging))
    _only_failure(checks, "ctrw.dp_beats_sdf")


def _perturb_table(table, delay, update_cost, **changes):
    copy = {m: dict(column) for m, column in table.items()}
    copy[delay][update_cost] = dataclasses.replace(copy[delay][update_cost], **changes)
    return copy


def test_plan_table1_cost_off_fails(plan):
    workload, inputs, outputs = plan
    entry = outputs.table1[1][100]
    table = _perturb_table(outputs.table1, 1, 100, total_cost=entry.total_cost + 1e-3)
    checks = workload.checks(inputs, dataclasses.replace(outputs, table1=table))
    _only_failure(checks, "plan.table1")


def test_plan_table2_threshold_off_fails(plan):
    workload, inputs, outputs = plan
    entry = outputs.table2[3][100]
    table = _perturb_table(outputs.table2, 3, 100, near_optimal_d=entry.near_optimal_d + 1)
    checks = workload.checks(inputs, dataclasses.replace(outputs, table2=table))
    _only_failure(checks, "plan.table2")


def test_plan_joint_worse_than_distance_fails(plan):
    workload, inputs, outputs = plan
    first = outputs.tournament.points[0]
    worse = first.outcome("distance").total_cost + 1e-6
    outcomes = tuple(
        dataclasses.replace(o, update_cost=worse - o.paging_cost)
        if o.scheme == "jointly-optimal" else o
        for o in first.outcomes
    )
    points = (dataclasses.replace(first, outcomes=outcomes),) + outputs.tournament.points[1:]
    tournament = dataclasses.replace(outputs.tournament, points=points)
    checks = workload.checks(inputs, dataclasses.replace(outputs, tournament=tournament))
    _only_failure(checks, "plan.joint_not_worse")


def test_plan_warm_sweep_differs_fails(plan):
    workload, inputs, outputs = plan
    point = outputs.warm.points[0]
    warm = dataclasses.replace(
        outputs.warm,
        points=(dataclasses.replace(point, total_cost=math.nextafter(point.total_cost, 1e9)),)
        + outputs.warm.points[1:],
    )
    checks = workload.checks(inputs, dataclasses.replace(outputs, warm=warm))
    _only_failure(checks, "plan.cache_round_trip")


def test_plan_warm_sweep_not_from_cache_fails(plan):
    workload, inputs, outputs = plan
    warm = dataclasses.replace(outputs.warm, from_cache=False)
    checks = workload.checks(inputs, dataclasses.replace(outputs, warm=warm))
    _only_failure(checks, "plan.cache_round_trip")


def test_plan_banded_surface_off_fails(plan):
    workload, inputs, outputs = plan
    banded = dataclasses.replace(outputs.banded, total=outputs.banded.total * (1 + 1e-8))
    checks = workload.checks(inputs, dataclasses.replace(outputs, banded=banded))
    _only_failure(checks, "plan.banded_matches_dense")
