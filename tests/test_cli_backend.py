"""CLI ``--backend`` plumbing."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.backend import reset_backend_state


class TestBackendFlag:
    def test_default_is_numpy(self):
        for argv in (
            ["simulate", "--q", "0.1", "--c", "0.01", "--threshold", "2"],
            ["fleet"],
            ["sweep", "--vary", "U=20,50"],
        ):
            assert build_parser().parse_args(argv).backend == "numpy"

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--backend", "cuda"])


class TestSimulateBackend:
    def test_counter_backend_runs_vectorized(self, capsys):
        code = main(
            ["simulate", "--q", "0.1", "--c", "0.02", "--threshold", "3",
             "--slots", "1500", "--replications", "4", "--backend", "auto",
             "--warmup", "100"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend:" in out
        assert "4 x 1500 slots" in out
        assert "mean C_T:" in out

    def test_numpy_backend_output_is_unchanged(self, capsys):
        code = main(
            ["simulate", "--q", "0.1", "--c", "0.02", "--threshold", "3",
             "--slots", "500", "--replications", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend:" not in out


class TestSpeedBackend:
    def test_speed_has_no_backend_flag(self):
        # The vectorized engine has one execution path, so ``speed``
        # takes no --backend.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["speed", "--backend", "auto"])


class TestFleetBackend:
    def test_fleet_backend_matches_numpy_totals(self, capsys, tmp_path):
        reset_backend_state()
        paths = {}
        for backend in ("numpy", "auto"):
            paths[backend] = tmp_path / f"fleet-{backend}.json"
            code = main(
                ["fleet", "--terminals", "500", "--shards", "2",
                 "--slots", "30", "--backend", backend,
                 "--json", str(paths[backend])]
            )
            assert code == 0
        base = json.loads(paths["numpy"].read_text())
        auto = json.loads(paths["auto"].read_text())
        for key in ("moves", "updates", "calls", "polled_cells",
                    "mean_total_cost"):
            assert auto[key] == base[key], key
        assert auto["config"]["backend"] == "auto"
        out = capsys.readouterr().out
        assert "requested auto" in out


class TestSweepBackend:
    def test_sweep_backend_selects_solver(self, capsys):
        for backend in ("numpy", "auto"):
            code = main(
                ["sweep", "--model", "2d-exact", "--vary", "U=20,50",
                 "--d-max", "20", "--no-cache", "--backend", backend]
            )
            assert code == 0
        # Same grid either way: the solver choice is numerically inert.
        out = capsys.readouterr().out
        assert out.count("Grid sweep") == 2
