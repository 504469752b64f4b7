"""Suite execution, report aggregation, and JSONL artifact round-trip."""

import math

import pytest

from repro import ParameterError
from repro.conformance import (
    ALL_MODELS,
    CheckRegistry,
    Deviation,
    read_report,
    run_conformance,
    run_single,
    sample_suite,
    write_report,
)
from repro.observability.export import read_artifact

from .broken import make_config


def toy_registry():
    """Two deterministic checks: one parity-sensitive, one always-on."""
    registry = CheckRegistry()
    registry.invariant(
        "even-threshold", tolerance=0.0, paper_ref="toy",
        description="fails on odd thresholds",
    )(lambda config: Deviation(float(config.d % 2)))
    registry.oracle(
        "always-pass", tolerance=1.0, paper_ref="toy",
        applies=lambda config: config.sim_slots == 0,
    )(lambda config: Deviation(0.5))
    return registry


class TestSampling:
    def test_quick_suite_covers_all_models(self):
        configs = sample_suite("quick", seed=3)
        assert {c.model_name for c in configs} == set(ALL_MODELS)
        assert any(c.sim_slots > 0 for c in configs)

    def test_sampling_deterministic_in_seed(self):
        assert sample_suite("quick", seed=5) == sample_suite("quick", seed=5)
        assert sample_suite("quick", seed=5) != sample_suite("quick", seed=6)

    def test_full_suite_grants_a_pool(self):
        assert any(c.pool_workers >= 2 for c in sample_suite("full", seed=0))
        # The quick suite pools exactly one config, so each pooled
        # bit-identity oracle runs once there.
        quick = sample_suite("quick", seed=0)
        assert [c.pool_workers for c in quick if c.pool_workers] == [2]

    def test_unknown_suite_and_model_rejected(self):
        with pytest.raises(ParameterError):
            sample_suite("exhaustive")
        with pytest.raises(ParameterError):
            sample_suite("quick", models=["1d", "escher"])

    def test_model_restriction(self):
        configs = sample_suite("quick", seed=0, models=["2d-approx"])
        assert {c.model_name for c in configs} == {"2d-approx"}
        # Approximate chains get no simulation configs.
        assert all(c.sim_slots == 0 for c in configs)


class TestRunConformance:
    def test_explicit_configs_and_aggregates(self):
        report = run_conformance(
            registry=toy_registry(),
            configs=[make_config(d=2), make_config(d=3), make_config(d=4)],
        )
        assert report.passed == 5  # 3x always-pass + even d=2, d=4
        assert report.failed == 1  # odd d=3
        assert report.skipped == 0
        assert not report.ok
        [failure] = report.failures()
        assert failure.check_id == "even-threshold"
        assert failure.params["d"] == 3

    def test_by_check_aggregates_margins(self):
        report = run_conformance(
            registry=toy_registry(),
            configs=[make_config(d=2), make_config(d=3)],
        )
        stats = report.by_check()
        assert stats["even-threshold"]["failed"] == 1
        assert stats["even-threshold"]["min_margin"] == pytest.approx(-1.0)
        assert stats["always-pass"]["min_margin"] == pytest.approx(0.5)

    def test_render_lists_failures_with_repros(self):
        report = run_conformance(
            registry=toy_registry(), configs=[make_config(d=3)]
        )
        rendered = report.render()
        assert "even-threshold" in rendered
        assert "FAIL even-threshold" in rendered
        assert "run_single" in rendered

    def test_counts_into_observability(self):
        from repro.observability import context as obs_context

        with obs_context.session() as obs:
            run_conformance(registry=toy_registry(), configs=[make_config(d=2)])
            metrics = {
                (m["name"], m["labels"].get("check"), m["labels"].get("status")):
                    m["value"]
                for m in obs.registry.collect()
            }
        assert metrics[("conformance_checks_total", "even-threshold", "pass")] == 1

    def test_real_registry_on_one_cheap_config(self):
        report = run_conformance(configs=[make_config()])
        assert report.failed == 0
        assert report.passed > 0
        # No simulation budget: every engine oracle must have skipped.
        assert report.skipped > 0


class TestRunSingle:
    def test_round_trip_from_params(self):
        result = run_single(
            "even-threshold", registry=toy_registry(), **make_config(d=3).as_params()
        )
        assert result.status == "fail"

    def test_unknown_check(self):
        with pytest.raises(ParameterError):
            run_single("made-up", **make_config().as_params())

    def test_missing_required_params_named_in_error(self):
        # Wrong kwargs (e.g. update_cost= instead of U=) must not
        # surface as a bare KeyError from the repro entry point.
        with pytest.raises(ParameterError, match=r"missing \['U', 'V'\]"):
            run_single("even-threshold", registry=toy_registry(),
                       model="1d", q=0.2, c=0.02, update_cost=50.0,
                       poll_cost=10.0, d=3, m=2)


class TestReportArtifacts:
    def make_report(self):
        return run_conformance(
            registry=toy_registry(), configs=[make_config(d=2), make_config(d=3)]
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "conformance.jsonl"
        write_report(self.make_report(), path)
        artifact = read_report(path)
        assert artifact["provenance"]["command"] == "conformance"
        assert artifact["provenance"]["params"]["failed"] == 1
        checks = artifact["checks"]
        assert len(checks) == 4
        statuses = {(c["check_id"], c["params"]["d"], c["status"]) for c in checks}
        assert ("even-threshold", 3, "fail") in statuses
        assert ("even-threshold", 2, "pass") in statuses

    def test_failed_checks_carry_margin_and_repro(self, tmp_path):
        path = tmp_path / "conformance.jsonl"
        write_report(self.make_report(), path)
        [failure] = [
            c for c in read_report(path)["checks"] if c["status"] == "fail"
        ]
        assert failure["margin"] == pytest.approx(-1.0)
        assert "run_single" in failure["repro"]

    def test_read_report_rejects_checkless_artifacts(self, tmp_path):
        from repro.observability import context as obs_context
        from repro.observability.export import build_provenance, write_artifact

        path = tmp_path / "metrics-only.jsonl"
        with obs_context.session() as obs:
            write_artifact(path, obs, build_provenance("simulate", {}, seed=0))
        with pytest.raises(ParameterError, match="no conformance check"):
            read_report(path)

    def test_plain_read_artifact_sees_check_records(self, tmp_path):
        # The conformance artifact stays a valid observability artifact.
        path = tmp_path / "conformance.jsonl"
        write_report(self.make_report(), path)
        artifact = read_artifact(path)
        assert set(artifact) == {
            "provenance", "metrics", "spans", "checks", "approximations"
        }

    def test_infinite_delay_survives_serialization(self, tmp_path):
        report = run_conformance(
            registry=toy_registry(), configs=[make_config(d=2, m=math.inf)]
        )
        path = tmp_path / "inf.jsonl"
        write_report(report, path)
        assert read_report(path)["checks"][0]["params"]["m"] == "inf"
