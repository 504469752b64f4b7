"""The exact counts a later change may claim on repeat bit-for-bit for a
seed, and the seed really reaches the inputs."""

import pytest

import run
import workloads

SMALL = {
    "fleet-quiet": dict(terminals=20_000, shards=2, slots=20),
    "fleet-busy": dict(terminals=20_000, shards=4, slots=20),
    "ctrw-track": dict(terminals=200, slots=200, warmup_slots=50),
    "plan-grid": dict(q_values=2, c_values=2),
}

#: Exact counts from the pass, and exact per-layer metrics.
EXACT_COUNTS = ("moves", "calls", "polled_cells", "terminal_slots", "analytic_solves",
                "sweep_cache_hits", "checkpoint_writes", "grid_points")
EXACT_METRICS = ("core.solves", "persist.cache_hits", "strategies.joint_rounds_mean",
                 "paging.cells_per_call", "paging.dp_cells_saved_ratio",
                 "simulation.events_per_terminal_slot", "persist.checkpoint_writes")


def _traced(name, seed, tmp_path):
    workload = workloads.make(name, **SMALL[name])
    inputs = workload.setup(seed)
    workdir = tmp_path / f"work-{seed}"
    workdir.mkdir(parents=True)
    context = {"untraced_wall_s": 1.0, "peak_rss_bytes": 0, "rss_after_imports_bytes": 0}
    counts, checks, metrics = run.traced_run(
        workload, inputs, workdir, tmp_path / f"trace-{seed}.json", context
    )
    return counts, metrics


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_exact_counts(name, tmp_path):
    first_counts, first_metrics = _traced(name, 5, tmp_path / "a")
    second_counts, second_metrics = _traced(name, 5, tmp_path / "b")
    assert first_counts == second_counts
    for metric in EXACT_METRICS:
        assert first_metrics[metric] == second_metrics[metric], metric
    assert any(first_counts.get(key) for key in EXACT_COUNTS)


def test_exact_counts_are_the_ones_claimed(tmp_path):
    counts, metrics = _traced("plan-grid", 5, tmp_path / "plan")
    assert counts["analytic_solves"] > 0 and counts["sweep_cache_hits"] == 2
    assert metrics["strategies.joint_rounds_mean"] >= 1
    counts, _ = _traced("fleet-busy", 5, tmp_path / "busy")
    assert counts["moves"] > 0 and counts["calls"] > 0 and counts["polled_cells"] > 0
    assert counts["checkpoint_writes"] == SMALL["fleet-busy"]["shards"]


@pytest.mark.parametrize("name", ["fleet-quiet", "fleet-busy"])
def test_seed_changes_population(name):
    workload = workloads.make(name, **SMALL[name])
    assert workload.setup(1).spec.fingerprint() != workload.setup(2).spec.fingerprint()
    assert workload.setup(1).spec.fingerprint() == workload.setup(1).spec.fingerprint()


def test_seed_changes_plan_axes():
    workload = workloads.make("plan-grid")
    assert workload.setup(1).axes != workload.setup(2).axes
    assert workload.setup(1).axes == workload.setup(1).axes
    assert len(workload.setup(1).axes["q"]) * len(workload.setup(1).axes["c"]) * 12 >= 334
