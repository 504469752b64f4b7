"""Crash-safe JSON writes: no partial files, no leaked temp files.

Regression suite for the atomic-write hardening: the old inline
mkstemp blocks in the sweep cache and the simulation checkpoint could
leak the file descriptor when ``os.fdopen`` itself failed, and the
cleanup logic was duplicated (and could drift) between call sites.
Every store now routes through :func:`repro.persist.write_state` and
:func:`repro.persist.atomic_write_json`, whose contract is: on *any*
failure the target file is untouched and no ``*.tmp`` litter remains.
:class:`TestStore` pins the store's layout and refusal matrix.
"""

import json
import math
import os
from functools import partial

import pytest

from repro import CostParams, MobilityParams, ParameterError
from repro.geometry import LineTopology
from repro.persist import (
    atomic_write_json,
    json_restore,
    json_safe,
    read_state,
    write_state,
)
from repro.strategies import DistanceStrategy


class Unserializable:
    """json.dump raises TypeError on this mid-write."""


def tmp_litter(directory):
    return [p for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestAtomicWriteJson:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        assert json.loads(path.read_text()) == {"a": 2}
        assert tmp_litter(tmp_path) == []

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        atomic_write_json(path, [1, 2, 3])
        assert json.loads(path.read_text()) == [1, 2, 3]

    def test_unserializable_payload_leaves_no_trace(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": Unserializable()})
        assert not path.exists()
        assert tmp_litter(tmp_path) == []

    def test_failure_preserves_previous_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"good": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": Unserializable()})
        assert json.loads(path.read_text()) == {"good": True}
        assert tmp_litter(tmp_path) == []

    def test_fdopen_failure_closes_descriptor_and_unlinks(
        self, tmp_path, monkeypatch
    ):
        # If os.fdopen itself raises, the raw descriptor must still be
        # closed (the old inline blocks leaked it) and the temp file
        # removed.
        opened = {}
        real_mkstemp = __import__("tempfile").mkstemp

        def spying_mkstemp(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            opened["fd"] = fd
            return fd, name

        def failing_fdopen(fd, *args, **kwargs):
            raise OSError("simulated fdopen failure")

        monkeypatch.setattr("repro.persist.tempfile.mkstemp", spying_mkstemp)
        monkeypatch.setattr("repro.persist.os.fdopen", failing_fdopen)
        with pytest.raises(OSError, match="simulated fdopen"):
            atomic_write_json(tmp_path / "out.json", {"a": 1})
        assert tmp_litter(tmp_path) == []
        # A closed fd raises on a second close attempt.
        with pytest.raises(OSError):
            os.close(opened["fd"])


class TestCallSitesStayClean:
    """Every store's public entry point honours the same contract."""

    @pytest.fixture
    def failing_dump(self, monkeypatch):
        def fail(*args, **kwargs):
            raise OSError("simulated full disk")

        monkeypatch.setattr("repro.persist.json.dump", fail)

    def test_sweep_cache_store_failure_leaves_no_litter(
        self, tmp_path, failing_dump
    ):
        from repro.analysis.sweep import grid_sweep

        with pytest.raises(OSError, match="simulated full disk"):
            grid_sweep("1d", {"q": [0.05, 0.1]}, d_max=8, cache_dir=tmp_path)
        assert list(tmp_path.glob("grid-*.json")) == []
        assert tmp_litter(tmp_path) == []

    def test_checkpoint_write_failure_leaves_no_litter(
        self, tmp_path, failing_dump
    ):
        from repro.simulation import run_replicated

        path = tmp_path / "campaign.ckpt.json"
        with pytest.raises(OSError, match="simulated full disk"):
            run_replicated(
                LineTopology(), partial(DistanceStrategy, 2, max_delay=2),
                MobilityParams(0.3, 0.03), CostParams(30.0, 2.0),
                slots=200, replications=2, checkpoint=path,
            )
        assert not path.exists()
        assert tmp_litter(tmp_path) == []

    def test_fleet_checkpoint_failure_leaves_no_litter(
        self, tmp_path, failing_dump
    ):
        from repro.simulation.fleet import FleetSpec, run_fleet

        spec = FleetSpec.homogeneous(
            LineTopology(), 2, MobilityParams(0.3, 0.03), CostParams(30.0, 2.0),
            2, 32,
        )
        path = tmp_path / "fleet.ckpt.json"
        with pytest.raises(OSError, match="simulated full disk"):
            run_fleet(spec, slots=20, shards=2, checkpoint=path)
        assert not path.exists()
        assert tmp_litter(tmp_path) == []


class TestStore:
    FINGERPRINT = {"version": 3, "seed": 1}

    def read(self, path, fingerprint=None):
        return read_state(
            path, fingerprint or self.FINGERPRINT, "test store", "run",
            "delete it",
        )

    def test_missing_file_reads_as_none(self, tmp_path):
        assert self.read(tmp_path / "absent.json") is None

    def test_layout_is_fingerprint_then_sections(self, tmp_path):
        path = tmp_path / "state.json"
        write_state(path, self.FINGERPRINT, shards=[1], partials=[])
        assert path.read_text() == (
            '{"fingerprint": {"version": 3, "seed": 1}, '
            '"shards": [1], "partials": []}'
        )
        assert self.read(path) == json.loads(path.read_text())

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{not json", "unreadable test store"),
            ("[1, 2]", "not a JSON object"),
            ('{"fingerprint": [3]}', "schema version None"),
            ('{"fingerprint": {"version": 2, "seed": 1}}', "schema version 2"),
            ('{"fingerprint": {"version": 3, "seed": 2}}', "different run"),
        ],
        ids=["unreadable", "not-object", "fingerprint-list", "version", "foreign"],
    )
    def test_refusal_matrix(self, tmp_path, text, match):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ParameterError, match=match):
            self.read(path)

    def test_inf_roundtrip(self):
        assert json_safe(math.inf) == "inf"
        assert json_safe(2.0) == 2.0
        assert json_restore(json_safe(math.inf)) == math.inf
        assert json_restore(3) == 3
