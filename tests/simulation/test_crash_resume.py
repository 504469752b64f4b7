"""Process-kill and damaged-file tests for the three persisted stores.

A run checkpoint, a fleet checkpoint and a sweep cache entry must
survive what a real crash does to them:

* the parent process is SIGKILLed between writing a new checkpoint's
  temporary file and renaming it over the old one -- the old file must
  survive and a resume must reach the uninterrupted result;
* a pool worker is SIGKILLed mid-replication -- the campaign fails
  loudly (``BrokenProcessPool``) and a rerun resumes to the
  uninterrupted result;
* the file is truncated or its bytes corrupted -- every store refuses
  it with :class:`ParameterError` instead of crashing or pooling it.

Every test runs at most two worker processes.
"""

import json
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from pathlib import Path

import pytest

import repro
from repro import CostParams, MobilityParams, ParameterError
from repro.analysis.sweep import grid_sweep
from repro.geometry import LineTopology
from repro.simulation import run_replicated
from repro.simulation.fleet import FleetSpec, run_fleet
from repro.strategies import DistanceStrategy
from repro.workload import DEFAULT_MIX, Population

MOBILITY = MobilityParams(0.3, 0.03)
COSTS = CostParams(30.0, 2.0)
SRC = str(Path(repro.__file__).resolve().parents[1])


def campaign(checkpoint=None, factory=None, workers=None):
    return run_replicated(
        topology=LineTopology(),
        strategy_factory=factory or partial(DistanceStrategy, 2, max_delay=2),
        mobility=MOBILITY,
        costs=COSTS,
        slots=1_500,
        replications=4,
        seed=3,
        checkpoint=checkpoint,
        workers=workers,
    )


def fleet(checkpoint=None):
    spec = FleetSpec.from_population(
        Population(DEFAULT_MIX), 200, CostParams(50.0, 2.0), 2, seed=7
    )
    return run_fleet(spec, slots=40, shards=4, seed=3, checkpoint=checkpoint)


def sweep(cache_dir):
    return grid_sweep("1d", {"q": [0.05, 0.1], "U": [10, 100]}, d_max=12,
                      cache_dir=cache_dir)


#: Child program: run ``entry(checkpoint=path)`` with ``os.replace``
#: wrapped so the process SIGKILLs itself on the second rename onto the
#: checkpoint -- after the new payload's temporary file is complete,
#: before it replaces the old file.
CHILD = """
import os, signal, sys
sys.path.insert(0, {tests!r})
from {module} import {entry}

real_replace = os.replace
renames = []

def replace_then_die(src, dst):
    if os.fspath(dst) == {path!r}:
        renames.append(dst)
        if len(renames) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
    real_replace(src, dst)

os.replace = replace_then_die
{entry}(checkpoint={path!r})
"""


def kill_parent_mid_write(entry, path):
    code = CHILD.format(
        tests=str(Path(__file__).parent), module=Path(__file__).stem,
        entry=entry, path=str(path),
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, timeout=300,
        capture_output=True, text=True,
    )
    assert child.returncode == -signal.SIGKILL, child.stderr
    orphans = [p for p in path.parent.iterdir() if p.name.endswith(".tmp")]
    assert len(orphans) == 1  # the write the kill interrupted
    return json.loads(path.read_text())


class TestParentKilled:
    def test_campaign_resumes_to_uninterrupted_snapshots(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        survived = kill_parent_mid_write("campaign", path)
        # The first write survived whole; the second never landed.
        assert [entry["index"] for entry in survived["snapshots"]] == [0]
        assert campaign(checkpoint=path).snapshots == campaign().snapshots

    def test_fleet_resumes_to_uninterrupted_shards(self, tmp_path):
        path = tmp_path / "fleet.ckpt.json"
        survived = kill_parent_mid_write("fleet", path)
        assert [entry["index"] for entry in survived["shards"]] == [0]
        assert fleet(checkpoint=path).shards == fleet().shards


class KillFirstWorkerCall:
    """Strategy factory that SIGKILLs the first worker calling it.

    The parent's calls (the fingerprint probe) pass through; in a
    worker, whoever claims ``marker`` with an atomic rename dies, so
    exactly one worker is killed, once.
    """

    def __init__(self, marker):
        self.marker = str(marker)
        self.parent = os.getpid()

    def __call__(self):
        if os.getpid() != self.parent:
            try:
                os.rename(self.marker, self.marker + ".claimed")
            except FileNotFoundError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return DistanceStrategy(2, max_delay=2)


class TestWorkerKilled:
    def test_broken_pool_then_resume(self, tmp_path):
        marker = tmp_path / "kill-one-worker"
        marker.touch()
        path = tmp_path / "campaign.ckpt.json"
        with pytest.raises(BrokenProcessPool):
            campaign(checkpoint=path, factory=KillFirstWorkerCall(marker),
                     workers=2)
        assert not marker.exists()
        assert Path(str(marker) + ".claimed").exists()
        # The plain factory builds the same strategy, so the fingerprint
        # matches and whatever finished before the kill is reused.
        resumed = campaign(checkpoint=path, workers=2)
        assert resumed.snapshots == campaign().snapshots


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _corrupt(path):
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    data[middle:middle + 8] = b"\xff" * 8  # not even valid UTF-8
    path.write_bytes(bytes(data))


def _campaign_store(tmp_path):
    path = tmp_path / "campaign.ckpt.json"
    campaign(checkpoint=path)
    return path, lambda: campaign(checkpoint=path)


def _fleet_store(tmp_path):
    path = tmp_path / "fleet.ckpt.json"
    fleet(checkpoint=path)
    return path, lambda: fleet(checkpoint=path)


def _sweep_store(tmp_path):
    sweep(tmp_path)
    return next(tmp_path.glob("grid-*.json")), lambda: sweep(tmp_path)


class TestDamagedFiles:
    @pytest.mark.parametrize(
        "damage", [_truncate, _corrupt], ids=["truncated", "corrupted"]
    )
    @pytest.mark.parametrize(
        "store", [_campaign_store, _fleet_store, _sweep_store],
        ids=["run-checkpoint", "fleet-checkpoint", "sweep-cache"],
    )
    def test_refused(self, tmp_path, store, damage):
        path, rerun = store(tmp_path)
        damage(path)
        with pytest.raises(ParameterError):
            rerun()
