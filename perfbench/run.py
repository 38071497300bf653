"""Benchmark of burstfec: one command prints every metric and checks outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it runs the workload's pass again and again for
``--seconds`` (at least three passes) and reports the end-to-end
metrics, with times scaled to a reference host speed (hostspeed.py).
With ``--trace 1`` it makes the traced run, which covers every layer
and so runs every workload once whatever ``--workload`` names,
and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json at the root.  The last line of stdout is the result; the
line before it records the machine and the program measured.  Exits 1
after the result when an output check fails, and 1 without a result
when there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import REFERENCE_BASE_S, HostSpeed
from workloads import MC_PACKETS, NAMES, ROOT, Workload, scratch_cwd

MIN_PASSES = 3
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
# A fresh interpreter up to the point where it could make its first call.
SETUP_PROBE = "import sys; sys.path.insert(0, 'src'); import burstfec.cli; print('ready', flush=True)"
# The same with only burstfec's one dependency: the set-up gauge.
BASE_PROBE = "import numpy; print('ready', flush=True)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    parser.add_argument("--seconds", type=float, required=True, help="time to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program():
    """Import burstfec from the checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "burstfec" / "__init__.py").is_file():
        raise SystemExit(f"error: no burstfec sources under {src}")
    sys.path.insert(0, str(src))
    import burstfec
    import burstfec.cli

    if not os.path.realpath(burstfec.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: burstfec imported from {burstfec.__file__}, not {src}")
    return burstfec


def interpreter_seconds(code: str) -> float:
    """Seconds from starting an interpreter on ``code`` to it printing 'ready'."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as child:
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.communicate(timeout=SETUP_TIMEOUT_S)
    if ready.strip() != "ready" or child.returncode:
        raise SystemExit(f"error: set-up probe failed (exit {child.returncode})")
    return seconds


def setup_sample():
    """Seconds from starting an interpreter to burstfec being imported.

    Returns (raw seconds, seconds at the reference speed), the latter
    scaled by the set-up gauge timed just before.
    """
    base = interpreter_seconds(BASE_PROBE)
    seconds = interpreter_seconds(SETUP_PROBE)
    return seconds, seconds * REFERENCE_BASE_S / base


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_meta(burstfec) -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "burstfec": burstfec.__version__,
        "bit_generator": burstfec.BIT_GENERATOR,
        "git_commit": git_commit(),
    }


def measure(workload: Workload, main, seconds: float):
    """Closed loop of passes for ``seconds``.

    A set-up sample is taken before each pass, so that the samples are
    spread over the run, and at least SETUP_SAMPLES in all.  Returns
    (pass times, set-up times, verdicts); each time is a pair of raw
    seconds and seconds at the reference host speed.
    """
    times, setup, verdicts = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        setup.append(setup_sample())
        with HostSpeed() as speed:
            done = workload.run(main)
        times.append((done.seconds, speed.scaled(done.seconds)))
        verdicts.append(workload.check(done))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    return times, setup, verdicts


def declared_metrics(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json asks for in this mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    burstfec = import_program()
    units = declared_metrics(args.trace)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    meta.update(machine_meta(burstfec))

    if args.trace:
        from tracing import traced_run

        with scratch_cwd():
            values, verdicts, extra = traced_run(burstfec.cli, args.seed, MC_PACKETS)
        meta["traced_workloads"] = list(NAMES)
    else:
        workload = Workload(args.workload, args.seed)
        with scratch_cwd():
            times, setup, verdicts = measure(workload, burstfec.cli.main, args.seconds)
        wall_s = statistics.median(scaled for _, scaled in times)
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "wall_s": wall_s,
            "points_per_s": workload.points / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = []
        if len({v.digest for v in verdicts}) > 1:
            extra.append("outputs differ between passes of one seed")
        meta["raw_wall_s"] = statistics.median(raw for raw, _ in times)
        meta["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        meta["pass_seconds"] = times
        meta["setup_seconds"] = setup

    if set(values) != set(units):
        raise SystemExit(
            f"error: measured {sorted(set(values) ^ set(units))} against BENCHMARK.json"
        )
    failures = [msg for v in verdicts for msg in v.failures] + extra
    attempted = sum(v.rows for v in verdicts)
    meta["failed_ratio"] = len(failures) / max(attempted, 1)
    meta["failures"] = failures[:20]
    for name in sorted(values):
        print(f"{name:34s} {values[name]:.6g} {units[name]}", file=sys.stderr)
    for msg in failures[:20]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
