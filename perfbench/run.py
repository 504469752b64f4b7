"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fleet-quiet --seed 1 --seconds 20 --trace 0

The seed generates the workload's inputs.  Set-up -- importing the
program in a fresh interpreter, then generating the inputs -- runs three
times, and its time is the sum of the two medians.  With ``--trace 0``
the timed phase is repeated, tracing off, while another pass fits in
``--seconds`` (at least two passes), and the calibration kernel of
``calibrate.py`` is timed before every pass and after the last.  The
end-to-end times are in reference seconds -- scaled by the kernel's
reference time over its median in this run, which cancels most of a
shared host's drift: ``setup_s`` is the set-up time, ``wall_ref_s`` the
median pass time, and ``work_per_ref_s`` the pass's work over it --
terminal-slots for the simulation workloads, grid points for
plan-grid.  The plain set-up and median pass times and the workload's
own rates (terminal-slots per second; for plan-grid, grid points per
second of the cold sweep and of the tournament) are printed and
recorded too.  With ``--trace 1`` the same
untraced passes run first, then one more pass under
``repro.observability.session()`` plus the workload's layer probes; the
span tree is exported and every per-layer metric is derived from that
file.

Every pass's outputs are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` count the
checks (``failed / attempted`` is the fail ratio) and ``metrics`` maps
each metric name to its value and unit.  A result record with
provenance, checks, exact counts and input properties is written under
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: all load comes from this one serial process, and on a
# shared two-CPU host a second BLAS thread adds run-to-run noise without
# making the analytic workloads faster.  Set before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: ``(name, unit)`` of every end-to-end metric, as in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("work_per_ref_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
MIN_PASSES = 2
SETUP_REPEATS = 3


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _import_program():
    """Import the program from this checkout's ``src``, never elsewhere."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {source / 'repro'}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {source}")
    import workloads

    return workloads


def _import_seconds() -> float:
    """Time to import the program and the workloads in a fresh interpreter."""
    code = (
        "import sys, time; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "tic = time.perf_counter(); import workloads; "
        "print(time.perf_counter() - tic)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, inputs, seconds: float, workdir: Path, calibrate):
    """Untraced passes while another fits in ``seconds`` (at least
    :data:`MIN_PASSES`), with ``calibrate()`` timing the calibration
    kernel before every pass and after the last.

    Returns pass times, kernel times, per-pass rates, the last pass's
    outputs and every pass's checks.
    """
    walls, kernels, rates, checks = [], [], [], []
    started = time.perf_counter()
    while len(walls) < MIN_PASSES or (
        time.perf_counter() - started + statistics.median(walls) <= seconds
    ):
        kernels.append(calibrate())
        tic = time.perf_counter()
        outputs = workload.run_pass(inputs, workdir)
        walls.append(time.perf_counter() - tic)
        rates.append(workload.rates(outputs, walls[-1]))
        checks += workload.checks(inputs, outputs)
    kernels.append(calibrate())
    return walls, kernels, rates, outputs, checks


def traced_run(workload, inputs, workdir: Path, trace_path: Path, context: dict):
    """One pass plus the layer probes under an observability session.

    Exports the span tree to ``trace_path`` and returns the pass's exact
    counts, its checks and the per-layer metrics derived from the file.
    """
    import spans
    from repro.observability import session

    with session() as obs:
        with obs.tracer.span("bench.pass"):
            outputs = workload.run_pass(inputs, workdir)
        counts = workload.counts(inputs, outputs, obs.registry)
        checks = workload.checks(inputs, outputs)
        workload.probe(inputs, outputs, workdir)
    spans.export(trace_path, obs.tracer.records, counts, context)
    return counts, checks, spans.layer_metrics(trace_path)


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    import host
    import spans
    from calibrate import REFERENCE_S, Calibrator
    from repro.observability import DISABLED

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rss_after_imports = _peak_rss_bytes()
    workload = workloads.make(args.workload)

    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(_import_seconds())
        tic = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - tic)
    setup_raw_s = statistics.median(import_times) + statistics.median(setup_times)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Calibrator() as calibrator:
            walls, kernels, rates, outputs, checks = measure(
                workload, inputs, args.seconds, workdir, calibrator.time
            )
        to_reference = REFERENCE_S / statistics.median(kernels)
        wall_s = statistics.median(walls)
        rate_medians = {
            rate: statistics.median(per_pass[rate] for per_pass in rates)
            for rate in rates[0]
        }
        peak_rss = _peak_rss_bytes()
        checks += workload.final_checks(peak_rss)
        record = {
            "provenance": host.provenance(ROOT, args.workload, args.seed, bool(args.trace)),
            "input_properties": workload.properties(inputs),
            "passes_s": walls,
            "kernel_s": kernels,
            "wall_s": wall_s,
            "setup_s": setup_raw_s,
            "rates_per_s": rate_medians,
            "import_repeats_s": import_times,
            "setup_repeats_s": setup_times,
        }
        if args.trace:
            trace_path = OUT / "traces" / f"{name}.json"
            counts, traced_checks, values = traced_run(
                workload, inputs, workdir, trace_path,
                {
                    "untraced_wall_s": wall_s,
                    "peak_rss_bytes": peak_rss,
                    "rss_after_imports_bytes": rss_after_imports,
                },
            )
            checks += traced_checks
            units = {metric: unit for metric, unit, _ in spans.PER_LAYER}
            record["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            counts = workload.counts(inputs, outputs, DISABLED.registry)
            units = dict(END_TO_END)
            values = {
                "setup_s": setup_raw_s * to_reference,
                "wall_ref_s": wall_s * to_reference,
                "work_per_ref_s": workload.work(outputs) / (wall_s * to_reference),
                "peak_rss_mb": peak_rss / 2**20,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [check for check in checks if not check.passed]
    metrics = {metric: {"value": values[metric], "unit": unit} for metric, unit in units.items()}
    record.update(
        counts=counts,
        checks=[vars(check) for check in checks],
        fail_ratio=len(failed) / len(checks),
        metrics=metrics,
    )
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{name}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    for check in failed:
        print(f"FAILED {check.name}: {check.detail}")
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"setup = {setup_raw_s:.6g} s, wall_s = {wall_s:.6g} s (not calibrated)")
    for rate, value in rate_medians.items():
        print(f"{rate} = {value:.6g} 1/s (not calibrated)")
    print(f"fail_ratio = {len(failed)}/{len(checks)}; passes = {len(walls)}; "
          f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
