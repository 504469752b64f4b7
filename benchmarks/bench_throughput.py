#!/usr/bin/env python
"""THROUGHPUT: per-cell engine vs vectorized distance engine, plus the
sharded fleet gate.

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke] [--min-speedup X]
    PYTHONPATH=src python benchmarks/bench_throughput.py --fleet-only \\
        --fleet-terminals 1000000 --fleet-workers 4

Measures slots/sec of :class:`repro.simulation.SimulationEngine` and
terminal-slots/sec of
:class:`repro.simulation.VectorizedDistanceEngine` at the acceptance
operating point (d=3, m=1, q=0.3, c=0.01) on both geometries, prints a
table, and writes ``benchmarks/out/throughput.json``.

``--fleet`` (or ``--fleet-only``) additionally runs the sharded
heterogeneous fleet engine and writes ``benchmarks/out/fleet.json``,
asserting the bounded-RSS contract: peak RSS of the parent and of the
worker pool must stay under ``base + bytes_per_terminal * N`` -- any
change that starts materializing per-terminal history blows through
the budget by orders of magnitude.  CI smoke runs 100k terminals; the
nightly ``slow`` test runs the full million.

Unlike the table/figure benches this is a plain script (no
pytest-benchmark dependency) so CI can run it in smoke mode -- tiny
slot counts that exercise the vectorized path on every supported
Python version without burning minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import kernels_baseline  # noqa: E402
from repro.core.backend import BACKENDS, numba_available  # noqa: E402
from repro.core.parameters import CostParams, MobilityParams  # noqa: E402
from repro.geometry import HexTopology, LineTopology  # noqa: E402
from repro.observability import noop_session  # noqa: E402
from repro.observability.export import build_provenance  # noqa: E402
from repro.simulation.fleet import FleetSpec, run_fleet  # noqa: E402
from repro.simulation.vectorized import (  # noqa: E402
    VectorizedDistanceEngine,
    throughput_report,
)

OUT_DIR = Path(__file__).parent / "out"

#: The acceptance operating point from the issue.
THRESHOLD = 3
MAX_DELAY = 1
MOBILITY = MobilityParams(move_probability=0.3, call_probability=0.01)
COSTS = CostParams(update_cost=100.0, poll_cost=10.0)


def measure_observability_overhead(
    slots: int = 6_000,
    repeats: int = 9,
    seed: int = 0,
    trials: int = 4,
    early_exit_below: Optional[float] = None,
) -> dict:
    """Worst-case instrumentation cost on the per-cell engine hot loop.

    Times engine.run with the default DISABLED context (instrument
    handles are never even created) against
    :func:`repro.observability.noop_session` (every instrumentation call
    is made, against no-op sinks -- the upper bound of what an armed
    registry can cost before any recording work).

    Estimator: each repeat times the two variants back to back
    (alternating which goes first, so a ratio is immune to
    CPU-frequency drift between batches); a *trial* is the median of
    ``repeats`` such pair ratios; the reported overhead is the minimum
    over up to ``trials`` trials.  On a shared box single-trial
    estimates swing several percent from scheduler noise alone, but
    noise only ever inflates the ratio's tails -- the minimum converges
    on the true cost, while a genuine regression above the guard floors
    every trial above it.  ``early_exit_below`` stops trialling as soon
    as one estimate lands under the guard (the common case costs one
    trial).
    """
    from statistics import median

    from repro.simulation.engine import SimulationEngine
    from repro.strategies.distance import DistanceStrategy

    def build() -> SimulationEngine:
        return SimulationEngine(
            topology=HexTopology(),
            strategy=DistanceStrategy(THRESHOLD, max_delay=MAX_DELAY),
            mobility=MOBILITY,
            costs=COSTS,
            seed=seed,
        )

    def timed(armed: bool) -> float:
        if armed:
            with noop_session():
                engine = build()
                tic = time.perf_counter()
                engine.run(slots)
                return time.perf_counter() - tic
        engine = build()
        tic = time.perf_counter()
        engine.run(slots)
        return time.perf_counter() - tic

    timed(False)  # warm both paths before measuring
    timed(True)
    estimates = []
    disabled, armed = [], []
    for _ in range(trials):
        ratios = []
        for i in range(repeats):
            if i % 2 == 0:
                d = timed(False)
                a = timed(True)
            else:
                a = timed(True)
                d = timed(False)
            disabled.append(d)
            armed.append(a)
            ratios.append(a / d)
        estimates.append(median(ratios) - 1.0)
        if early_exit_below is not None and estimates[-1] <= early_exit_below:
            break
    return {
        "slots": slots,
        "repeats": repeats,
        "seed": seed,
        "trials_run": len(estimates),
        "trial_estimates": estimates,
        "disabled_best_seconds": min(disabled),
        "noop_armed_best_seconds": min(armed),
        "overhead_fraction": min(estimates),
    }


class LegacyPCG64Engine(VectorizedDistanceEngine):
    """The retired sequential-PCG64 slot: the kernel gate's denominator.

    One ``rng.random(K)`` event draw per slot (two in independent mode),
    boolean masks over the whole batch, a ``rng.integers`` direction
    draw per mover and a full per-terminal slot-cost array -- the
    vectorized engine's default step before it moved onto the counter
    RNG.  Kept here so ``counter_vs_legacy_ratio`` and
    ``numba_vs_legacy_ratio`` keep measuring against the same
    reference as the committed baseline.
    """

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, seed=seed, **kwargs)
        self.rng = np.random.default_rng(seed)

    def _step_counter(self) -> None:
        c = self.mobility.call_probability
        q = self.mobility.move_probability
        if self.event_mode == "exclusive":
            u = self.rng.random(self.terminals)
            called = u < c
            moved = (u >= c) & (u < c + q)
        else:
            moved = self.rng.random(self.terminals) < q
            called = self.rng.random(self.terminals) < c
        slot_cost = np.zeros(self.terminals, dtype=np.float64)
        if called.any():
            callers = np.flatnonzero(called)
            slot_cost[callers] += self._meter_calls(callers)
        if moved.any():
            steps = self._dirs[
                self.rng.integers(self._dirs.shape[0], size=int(moved.sum()))
            ]
            self._pos[moved] += steps
            self._moves[moved] += 1
            updating = moved.copy()
            updating[moved] = self._distance(self._pos[moved].T) > self.threshold
            if updating.any():
                self._updates[updating] += 1
                slot_cost[updating] += self.costs.update_cost
                self._pos[updating] = 0
        self._cost_sum += slot_cost
        self._cost_sq_sum += slot_cost * slot_cost
        self._metered_slots += 1
        self.slot += 1


def kernel_rates(terminals: int, slots: int, seed: int) -> dict:
    """Terminal-slots/sec of each kernel row, timed once at the gate point.

    Rows: ``numpy`` (the legacy PCG64 reference above),
    ``numpy-counter`` (the vectorized engine's counter-RNG chain) and --
    when numba is importable -- ``numba`` (the compiled ``fleet_step``
    on a homogeneous fleet of the same ``K`` and point, one shard).
    """
    def vectorized(cls):
        engine = cls(
            HexTopology(), THRESHOLD, MOBILITY, COSTS,
            max_delay=MAX_DELAY, terminals=terminals, seed=seed,
        )
        return lambda: engine.run(slots)

    rows = {
        "numpy": vectorized(LegacyPCG64Engine),
        "numpy-counter": vectorized(VectorizedDistanceEngine),
    }
    if numba_available():  # pragma: no cover - requires numba
        spec = FleetSpec.homogeneous(
            HexTopology(), THRESHOLD, MOBILITY, COSTS, MAX_DELAY, terminals
        )
        # Compile outside the timed window.
        run_fleet(spec, slots=1, seed=seed, backend="numba")
        rows["numba"] = lambda: run_fleet(
            spec, slots=slots, seed=seed, backend="numba"
        )
    rates = {}
    for name, run in rows.items():
        tic = time.perf_counter()
        run()
        rates[name] = slots * terminals / (time.perf_counter() - tic)
    return rates


def run_kernels_gate(
    terminals: int,
    slots: int,
    seed: int,
    reps: int,
    write_baseline: bool,
    min_numba_ratio: float = 0.0,
) -> list:
    """Measure kernel-vs-legacy throughput ratios; gate against baseline.

    Returns a list of failure strings (empty = pass).  Ratios, not
    absolute rates, are compared -- see :mod:`kernels_baseline`.  The
    baseline stores one entry per batch width K because the counter
    kernel's advantage over the legacy RNG grows with K.
    """
    best = {}
    for _ in range(reps):
        for name, rate in kernel_rates(terminals, slots, seed).items():
            best[name] = max(rate, best.get(name, 0.0))
    legacy = best["numpy"]
    counter = best["numpy-counter"]
    compiled = best.get("numba")
    entry = {
        "slots": slots,
        "seed": seed,
        "reps": reps,
        "numba_available": numba_available(),
        "legacy_slots_per_sec": legacy,
        "counter_slots_per_sec": counter,
        "numba_slots_per_sec": compiled,
        "counter_vs_legacy_ratio": counter / legacy,
        "numba_vs_legacy_ratio": compiled / legacy if compiled else None,
    }
    if not numba_available():
        entry["numba_note"] = (
            "numba is not installed on the baseline host, so the compiled "
            "ratio could not be committed here; the >=3x compiled-kernel "
            "target is asserted by the CI job that installs the [numba] "
            "extra (and the nightly 1M-terminal compiled fleet run)."
        )
    print(f"kernels: K={terminals}, {slots} slots, best of {reps}:")
    print(f"  legacy RNG      {legacy:>14,.0f} terminal-slots/s")
    print(f"  counter kernel  {counter:>14,.0f} terminal-slots/s "
          f"({entry['counter_vs_legacy_ratio']:.2f}x legacy)")
    if compiled:
        print(f"  numba fleet     {compiled:>14,.0f} terminal-slots/s "
              f"({entry['numba_vs_legacy_ratio']:.2f}x legacy)")
    else:
        print("  numba fleet     unavailable (numba is not installed)")

    errors = []
    if compiled and min_numba_ratio:
        if entry["numba_vs_legacy_ratio"] < min_numba_ratio:
            errors.append(
                f"numba kernel ratio {entry['numba_vs_legacy_ratio']:.2f}x "
                f"below the required {min_numba_ratio:.1f}x"
            )
    key = f"K{terminals}"
    if write_baseline:
        baseline = kernels_baseline.load_baseline()
        section = baseline.get("throughput", {})
        section[key] = entry
        path = kernels_baseline.update_baseline(
            "throughput", section,
            build_provenance(
                "bench:kernels",
                {"terminals": terminals, "slots": slots, "seed": seed},
                seed=seed,
            ),
        )
        print(f"wrote baseline entry {key} to {path}")
        return errors
    committed = kernels_baseline.load_baseline().get("throughput", {}).get(key)
    if committed is None:
        print(f"  no committed baseline for {key}; gate skipped")
        return errors
    for ratio_name in ("counter_vs_legacy_ratio", "numba_vs_legacy_ratio"):
        measured = entry[ratio_name]
        if measured is None:
            continue
        failure = kernels_baseline.check_ratio(
            f"throughput.{key}.{ratio_name}", measured, committed.get(ratio_name)
        )
        if failure:
            errors.append(failure)
    if not errors:
        print(f"  gate: OK against committed {key} baseline "
              f"(margin {kernels_baseline.REGRESSION_MARGIN:.0%})")
    return errors


def run_fleet_gate(
    terminals: int,
    shards: int,
    slots: int,
    workers: int,
    seed: int = 0,
    backend: str = "numpy",
) -> dict:
    """Run the fleet bench and write ``benchmarks/out/fleet.json``.

    The returned report carries ``rss_within_budget``; callers decide
    whether to gate on it (``main`` does).
    """
    from repro.simulation.fleet import fleet_report

    report = fleet_report(
        terminals,
        shards=shards,
        slots=slots,
        workers=workers if workers > 1 else None,
        seed=seed,
        backend=backend,
    )
    report["provenance"] = build_provenance(
        "bench:fleet",
        {"terminals": terminals, "shards": shards, "slots": slots,
         "workers": workers, "backend": backend},
        seed=seed,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "fleet.json"
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    rss = report["peak_rss_bytes"]
    print(
        f"fleet: {terminals:,} terminals x {report['config']['slots']} slots "
        f"({shards} shards, {workers} worker(s)): "
        f"{report['terminal_slots_per_sec']:,.0f} terminal-slots/s, "
        f"peak RSS {rss['max'] / 2**20:,.0f} MiB "
        f"(budget {report['rss_budget_bytes'] / 2**20:,.0f} MiB); "
        f"wrote {out_path}"
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny slot counts: exercise the code paths, not the hardware",
    )
    parser.add_argument("--engine-slots", type=int, default=None)
    parser.add_argument("--vector-slots", type=int, default=None)
    parser.add_argument("--terminals", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="exit non-zero if the 2-D speedup falls below this factor",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=0.02,
        help="exit non-zero if armed-but-no-op observability slows the "
        "per-cell engine by more than this fraction (default 0.02)",
    )
    parser.add_argument(
        "--fleet", action="store_true",
        help="also run the sharded fleet gate (writes benchmarks/out/"
        "fleet.json, asserts the bounded-RSS budget)",
    )
    parser.add_argument(
        "--fleet-only", action="store_true",
        help="run only the fleet gate, skipping the engine benches",
    )
    parser.add_argument("--fleet-terminals", type=int, default=100_000)
    parser.add_argument("--fleet-shards", type=int, default=8)
    parser.add_argument("--fleet-slots", type=int, default=None,
                        help="default: 20 in smoke mode, 50 otherwise")
    parser.add_argument("--fleet-workers", type=int, default=2)
    parser.add_argument(
        "--fleet-backend", choices=BACKENDS, default="numpy",
        help="fleet execution backend (the nightly compiled run passes "
        "'numba'; totals are backend-invariant either way)",
    )
    parser.add_argument(
        "--kernels", action="store_true",
        help="also measure kernel-vs-legacy throughput ratios and gate them "
        "against the committed benchmarks/out/kernels.json baseline",
    )
    parser.add_argument(
        "--kernels-only", action="store_true",
        help="run only the kernel ratio gate",
    )
    parser.add_argument("--kernels-terminals", type=int, default=None,
                        help="default: 1024 in smoke mode, 4096 otherwise")
    parser.add_argument("--kernels-slots", type=int, default=None,
                        help="default: 800 in smoke mode, 2000 otherwise")
    parser.add_argument("--kernels-reps", type=int, default=None,
                        help="best-of repetitions (default: 2 smoke, 3 full)")
    parser.add_argument(
        "--write-kernels-baseline", action="store_true",
        help="refresh this host's entry in benchmarks/out/kernels.json "
        "instead of gating against it",
    )
    parser.add_argument(
        "--min-numba-ratio", type=float, default=0.0,
        help="with numba installed, fail if the compiled fleet kernel is not "
        "at least this many times faster than the legacy path (the numba CI "
        "job passes 3.0)",
    )
    args = parser.parse_args(argv)

    if args.kernels or args.kernels_only:
        kernel_errors = run_kernels_gate(
            terminals=args.kernels_terminals or (1024 if args.smoke else 4096),
            slots=args.kernels_slots or (800 if args.smoke else 2000),
            seed=args.seed,
            reps=args.kernels_reps or (3 if args.smoke else 3),
            write_baseline=args.write_kernels_baseline,
            min_numba_ratio=args.min_numba_ratio,
        )
        for failure in kernel_errors:
            print(f"FAIL: {failure}", file=sys.stderr)
        if args.kernels_only:
            return 1 if kernel_errors else 0
    else:
        kernel_errors = []

    if args.fleet_only:
        report = run_fleet_gate(
            terminals=args.fleet_terminals,
            shards=args.fleet_shards,
            slots=args.fleet_slots or (20 if args.smoke else 50),
            workers=args.fleet_workers,
            seed=args.seed,
            backend=args.fleet_backend,
        )
        if not report["rss_within_budget"]:
            print(
                f"FAIL: fleet peak RSS {report['peak_rss_bytes']['max']:,} "
                f"bytes exceeds budget {report['rss_budget_bytes']:,}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.smoke:
        engine_slots = args.engine_slots or 2_000
        vector_slots = args.vector_slots or 500
        terminals = args.terminals or 64
    else:
        engine_slots = args.engine_slots or 50_000
        vector_slots = args.vector_slots or 10_000
        terminals = args.terminals or 4096

    payload = {
        "mode": "smoke" if args.smoke else "full",
        "provenance": build_provenance(
            "bench:throughput",
            {"engine_slots": engine_slots, "vector_slots": vector_slots,
             "terminals": terminals, "smoke": args.smoke},
            seed=args.seed,
        ),
        "point": {
            "threshold": THRESHOLD,
            "max_delay": MAX_DELAY,
            "q": MOBILITY.move_probability,
            "c": MOBILITY.call_probability,
        },
        "geometries": {},
    }
    rows = []
    for label, topology in (("1d-line", LineTopology()), ("2d-hex", HexTopology())):
        report = throughput_report(
            topology=topology,
            threshold=THRESHOLD,
            mobility=MOBILITY,
            costs=COSTS,
            max_delay=MAX_DELAY,
            engine_slots=engine_slots,
            vector_slots=vector_slots,
            terminals=terminals,
            seed=args.seed,
        )
        payload["geometries"][label] = report
        rows.append((label, report))

    print(f"Throughput at d={THRESHOLD}, m={MAX_DELAY}, "
          f"q={MOBILITY.move_probability}, c={MOBILITY.call_probability} "
          f"({payload['mode']} mode, K={terminals}):")
    for label, report in rows:
        eng = report["engine"]["slots_per_sec"]
        vec = report["vectorized"]["slots_per_sec"]
        print(f"  {label:8s} engine {eng:>14,.0f} slots/s | "
              f"vectorized {vec:>14,.0f} terminal-slots/s | "
              f"speedup {report['speedup']:7.1f}x")

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / "throughput.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")

    overhead = measure_observability_overhead(
        slots=2_000 if args.smoke else 6_000,
        seed=args.seed,
        early_exit_below=args.max_overhead,
    )
    overhead["max_allowed_fraction"] = args.max_overhead
    overhead["provenance"] = build_provenance(
        "bench:observability",
        {"slots": overhead["slots"], "smoke": args.smoke},
        seed=args.seed,
    )
    obs_path = OUT_DIR / "observability.json"
    obs_path.write_text(json.dumps(overhead, indent=2, sort_keys=True) + "\n")
    print(
        f"observability overhead (no-op armed vs disabled): "
        f"{overhead['overhead_fraction']:+.2%} "
        f"(guard: <{args.max_overhead:.0%}); wrote {obs_path}"
    )

    hex_speedup = payload["geometries"]["2d-hex"]["speedup"]
    if args.min_speedup and hex_speedup < args.min_speedup:
        print(
            f"FAIL: 2-D speedup {hex_speedup:.1f}x below required "
            f"{args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    if overhead["overhead_fraction"] > args.max_overhead:
        print(
            f"FAIL: no-op observability overhead "
            f"{overhead['overhead_fraction']:.2%} exceeds the "
            f"{args.max_overhead:.0%} guard",
            file=sys.stderr,
        )
        return 1
    if args.fleet:
        report = run_fleet_gate(
            terminals=args.fleet_terminals,
            shards=args.fleet_shards,
            slots=args.fleet_slots or (20 if args.smoke else 50),
            workers=args.fleet_workers,
            seed=args.seed,
            backend=args.fleet_backend,
        )
        if not report["rss_within_budget"]:
            print(
                f"FAIL: fleet peak RSS {report['peak_rss_bytes']['max']:,} "
                f"bytes exceeds budget {report['rss_budget_bytes']:,}",
                file=sys.stderr,
            )
            return 1
    return 1 if kernel_errors else 0


def test_throughput_smoke():
    """Pytest hook so ``pytest benchmarks/`` also exercises the bench."""
    assert main(["--smoke"]) == 0


def test_fleet_smoke():
    """CI fleet gate: 100k terminals, RSS bound asserted."""
    assert main(["--smoke", "--fleet-only"]) == 0


def test_kernels_smoke():
    """CI kernel gate: kernel-vs-legacy ratios vs the committed baseline."""
    assert main(["--smoke", "--kernels-only"]) == 0


try:  # pytest is absent when this file runs as a plain script
    import pytest as _pytest

    _slow = _pytest.mark.slow
except ImportError:  # pragma: no cover
    def _slow(function):
        return function


@_slow
def test_fleet_million():
    """Nightly fleet gate: the full million terminals, bounded RSS.

    Marked slow; the fast CI job deselects it with ``-m 'not slow'``.
    """
    assert main([
        "--fleet-only",
        "--fleet-terminals", "1000000",
        "--fleet-shards", "16",
        "--fleet-workers", "4",
        "--fleet-slots", "25",
    ]) == 0


@_slow
def test_fleet_million_compiled():
    """Nightly compiled gate: 1M terminals through the numba kernel.

    With the [numba] extra installed (the nightly job does) this runs
    the jit-compiled shard kernel; elsewhere it degrades to the
    bit-identical NumPy fallback, so the totals contract still holds.
    """
    assert main([
        "--fleet-only",
        "--fleet-terminals", "1000000",
        "--fleet-shards", "16",
        "--fleet-workers", "4",
        "--fleet-slots", "25",
        "--fleet-backend", "auto",
    ]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
