"""Floor-regression guard for the recorded benchmark speedups.

Diffs the ``speedups`` section of ``BENCH_shapley.json`` against the floors
the run itself recorded under ``config.floors`` (which already reflect any
``TREX_BENCH_*_FLOOR`` environment overrides active when the benchmark ran)
and exits non-zero on any regression.  CI runs it right after the bench so a
freshly written JSON that silently records a below-floor ratio fails the
bench-smoke job even if the bench's own in-process assertion was relaxed or
skipped — and anyone can point it at a committed JSON to audit the recorded
perf trajectory:

    python benchmarks/check_bench_floors.py [BENCH_shapley.json]

Every failing metric is reported with its recorded value, its floor, and —
when the previous committed ``BENCH_shapley.json`` is reachable via ``git
show HEAD:...`` — the delta against the last committed recording, so a CI
failure log distinguishes "slid a little from last run" from "fell off a
cliff" without any archaeology.

Machine caveats mirror the bench: the ``parallel_speedup`` floor needs real
cores, so it is skipped (with a note) when the recording machine had fewer
CPUs than the worker count it drove.  Floors with no recorded speedup — an older JSON predating a metric —
are reported and skipped, never silently passed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

#: floors needing >= ``config.parallel_jobs`` real cores on the recording box
_MULTICORE_FLOORS = ("parallel_speedup",)


def _previous_speedups(path: str) -> dict:
    """The ``speedups`` of the last committed version of ``path`` (or ``{}``).

    Resolved with ``git show HEAD:<repo-relative path>`` so the check works
    from any working directory inside the repo; any git failure (not a repo,
    file not committed, git missing) degrades to an empty dict — deltas are
    then simply omitted, never fatal.
    """
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(path)) or None,
        ).stdout.strip()
        relative = os.path.relpath(os.path.abspath(path), top)
        blob = subprocess.run(
            ["git", "show", f"HEAD:{relative}"],
            capture_output=True, text=True, check=True, cwd=top,
        ).stdout
        return json.loads(blob).get("speedups", {})
    except (OSError, subprocess.CalledProcessError, ValueError):
        return {}


def _delta_note(name: str, recorded: float, previous: dict) -> str:
    """``delta vs committed`` suffix for one metric (empty when unknown)."""
    before = previous.get(name)
    if before is None:
        return "  (no committed baseline)"
    delta = recorded - before
    return f"  (committed {before}x, delta {delta:+.2f}x)"


def check(path: str = "BENCH_shapley.json") -> int:
    with open(path) as handle:
        data = json.load(handle)
    config = data.get("config", {})
    floors = config.get("floors", {})
    speedups = data.get("speedups", {})
    if not floors:
        print(f"{path}: no config.floors section — nothing to check")
        return 1
    cpu_count = config.get("cpu_count") or 1
    parallel_jobs = config.get("parallel_jobs") or 2
    previous = _previous_speedups(path)
    failures = []
    for name, floor in sorted(floors.items()):
        recorded = speedups.get(name)
        if recorded is None:
            print(f"SKIP  {name}: floor {floor}x but no recorded speedup")
            continue
        if name in _MULTICORE_FLOORS and cpu_count < parallel_jobs:
            print(f"SKIP  {name}: {recorded}x recorded on a {cpu_count}-CPU "
                  f"box (needs {parallel_jobs} cores to be meaningful)")
            continue
        if recorded >= floor:
            print(f"  ok  {name}: {recorded}x (floor {floor}x)")
        else:
            print(f"REGRESSION  {name}: recorded {recorded}x, floor {floor}x, "
                  f"shortfall {floor - recorded:.2f}x"
                  + _delta_note(name, recorded, previous))
            failures.append(name)
    if failures:
        print(f"\n{path}: {len(failures)} speedup(s) below floor: "
              f"{', '.join(failures)}")
        return 1
    print(f"\n{path}: all recorded speedups at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(check(sys.argv[1] if len(sys.argv) > 1 else "BENCH_shapley.json"))
