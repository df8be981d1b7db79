"""Scenario benchmark for the four T-REx user operations.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all                 # every workload
    python3 perfbench/run.py --workload soccer-live-2proc --seed 1 --seconds 20 --trace 0

Each workload runs in its own process.  With ``--trace 0`` the run is
untraced and reports the end-to-end metrics (medians over repeated ops, each
printed with its unit and sample count); with ``--trace 1`` it runs a fixed
plan once untraced and once with span tracing and reports the per-layer
metrics (see ``perfbench/README.md``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Outputs are checked (constraint-Shapley efficiency, bit-identical repeats,
live explanation equal to a fresh session's, an output digest recorded for
the default seed); a failed check or a raised exception counts as a failed
op.  ``--seed 1`` is the default seed; claims are confirmed on the held-out
seed 20201.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "expected_digests.json"
#: the seed whose output digests are recorded; claims are confirmed on 20201
DEFAULT_SEED = 1


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if text.startswith("ref: "):
        ref = ROOT / ".git" / text[5:]
        return ref.read_text().strip() if ref.is_file() else "unknown"
    return text


def diagnostics() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(),
        "TREX_VECTORIZED": os.environ.get("TREX_VECTORIZED", "unset"),
    }


def print_metric(name: str, value: float, unit: str, count: int | None = None) -> None:
    samples = f"  (n={count})" if count is not None else ""
    print(f"  {name:<32} {value:>12.6g} {unit}{samples}")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process, print its report, return the result."""
    from perfbench import workloads

    name = workload.name
    directory = WORK / f"{name}-{seed}-{os.getpid()}"
    calibration_start = workloads.calibrate()
    phases = {}
    try:
        started = time.perf_counter()
        workloads.make_inputs(workload, seed, directory)
        phases["inputs_s"] = time.perf_counter() - started
        workloads.warm_up(workload, directory)
        phases["warm_up_s"] = time.perf_counter() - started - phases["inputs_s"]
        if trace:
            from perfbench import layers

            recorder, metrics, tracer = layers.run_traced(workload, directory)
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{name}-{seed}.jsonl")
            shown = {key: (value, unit, None) for key, (value, unit) in metrics.items()}
        else:
            scenario, recorder = workloads.run_untraced(workload, directory, seconds)
            digest = scenario.digest()
            expected = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
            print(f"# output digest {digest}" + (f" (expected {expected})" if expected else ""))
            recorder.attempted += 1
            recorder.check(expected is None or expected == digest,
                           f"output digest {digest} != recorded {expected}")
            shown = workloads.end_to_end_metrics(scenario, recorder)
            raw = {op: round(statistics.median(values), 6) for op, values in recorder.raw.items()}
            print("# raw wall medians (s) " + json.dumps(raw, sort_keys=True))
        phases["run_s"] = time.perf_counter() - started - sum(phases.values())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        reap_children()
    info = diagnostics()
    info["phases_s"] = {key: round(value, 3) for key, value in phases.items()}
    info["calibration_ms"] = {
        "start": round(calibration_start * 1000, 3),
        "end": round(workloads.calibrate() * 1000, 3),
        "run_median": round(statistics.median(
            [entry[2] for entry in recorder.log] or [float("nan")]) * 1000, 3),
    }
    print(f"# {name} seed={seed} trace={int(trace)} " + json.dumps(info, sort_keys=True))
    for failure in recorder.failures:
        print(f"# FAILED {failure}")
    for key, (value, unit, count) in shown.items():
        print_metric(key, value, unit, count)
    error_rate = recorder.failed / max(1, recorder.attempted)
    print_metric("error_rate", error_rate, "ratio", recorder.attempted)
    return {
        "correct": recorder.failed == 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _count) in shown.items()},
    }


def reap_children() -> None:
    """Wait for every child process this run started."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench import workloads

    if args.workload == "all":
        # one process per workload; each prints its own result line
        code = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            completed = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            )
            code = code or completed.returncode
        return code
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
