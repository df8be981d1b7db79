"""Workloads, their generated inputs, and the measured scenario.

A workload runs the T-REx user loop on the default :class:`TRexConfig`:

* **fresh rounds** — build a session from the input files, repair, explain
  the first repaired cell with exact constraint Shapley, then with sampled
  cell Shapley over three fixed cells (the first three cells of its row in
  ``relevant_cells`` order).  Each round loads its table afresh, so no cache
  carries over;
* **live cycles** — on a resident session (repaired and fully explained once
  during set-up), ``session.update(cell, value)`` followed by
  ``session.explain()``.  Writes alternate with their undo, so the table
  state is stationary.

Rounds and cycles are interleaved (round, cycles, round, cycles, ...) so a
slow phase of the machine hits every metric alike.  Inputs are generated from
the seed and written as CSV + constraint text; the program reads only those
files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro
from repro import (
    ErrorInjector,
    ErrorSpec,
    GreedyHolisticRepair,
    HospitalGenerator,
    RepairSession,
    SimpleRuleRepair,
    SoccerLeagueGenerator,
    TRexConfig,
)
from repro.config import SHAPLEY_ATOL
from repro.dataset.table import CellRef
from repro.shapley.cells import relevant_cells

@dataclass(frozen=True)
class Table:
    """One generated input family: generator, size and injected error rate."""

    family: str
    rows: int
    error_rate: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fresh: Table
    live: Table
    #: structure indexes of the fresh and the live table (see :func:`make_inputs`)
    structure: int
    live_structure: int
    algorithm: str
    policy: str
    samples: int
    live_samples: int
    n_jobs: int | None
    cycles_per_round: int


#: live set-ups per run (their median is part of ``setup_s``)
LIVE_SETUPS = 3
#: distinct live writes; each is followed by its undo
WRITES = 4
#: upper bound on fresh rounds per run, whatever ``--seconds`` asks
MAX_ROUNDS = 48


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="hospital300-simple-sample",
            why="the paper's Algorithm 1 with replacement draws: the reference "
                "pair scan dominates repair, draws and view writes each pair",
            fresh=Table("hospital", 300, 0.02), live=Table("hospital", 12, 0.05),
            structure=2, live_structure=0,
            algorithm="simple", policy="sample", samples=4, live_samples=1,
            n_jobs=None, cycles_per_round=2),
        Workload(
            name="hospital300-greedy-mode",
            why="greedy repair under the mode policy on the same table: degree "
                "ranking and candidate trials do the per-pair work, the sampler none",
            fresh=Table("hospital", 300, 0.02), live=Table("hospital", 12, 0.05),
            structure=2, live_structure=0,
            algorithm="greedy", policy="mode", samples=2, live_samples=1,
            n_jobs=None, cycles_per_round=2),
        Workload(
            name="soccer-live-2proc",
            why="live updates on two resident workers: delta maintenance, "
                "worker patches and IPC, with C4 on the general detector path",
            fresh=Table("soccer", 24, 0.05), live=Table("soccer", 24, 0.05),
            structure=1, live_structure=1,
            algorithm="simple", policy="mode", samples=4, live_samples=2,
            n_jobs=2, cycles_per_round=4),
    )
}


def algorithm_for(name: str):
    return SimpleRuleRepair() if name == "simple" else GreedyHolisticRepair()


# -- inputs ------------------------------------------------------------------------


def _sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _generate(spec: Table, structure: int):
    """The dirty table and constraint texts of one fixed structure index."""
    seed = _sub_seed(0, 10, structure)
    if spec.family == "hospital":
        dataset = HospitalGenerator(seed=_sub_seed(seed, 0)).generate(spec.rows)
    else:
        dataset = SoccerLeagueGenerator(
            seed=_sub_seed(seed, 0), years=range(2000, 2020)).generate(spec.rows)
    dirty, _report = ErrorInjector(
        ErrorSpec(rate=spec.error_rate, error_types=("typo", "swap", "domain")),
        seed=_sub_seed(seed, 1),
    ).inject(dataset.table)
    return dirty, dataset.constraint_texts


def _write_relabelled(table, prefix: str, path: Path):
    """Write ``table`` with ``prefix`` prepended to every value; return it as read back."""
    rows = [[f"{prefix}{table.value(row, a)}" for a in table.attributes]
            for row in range(len(table))]
    repro.write_csv(repro.Table(list(table.attributes), rows, name=table.name), path)
    return repro.read_csv(path)


def make_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Write every input file of one run into ``directory``.

    The tables' structure (rows, group sizes, injected errors) is fixed by
    the workload's structure indexes, and the seed relabels every value with one
    seed-derived prefix of constant length.  The prefix keeps equality and
    textual order between values, so the program takes the same decisions
    and does the same work on every seed.  Structure drawn per seed would
    not: Zipf-skewed group sizes move the O(n^2) pair scan by +-25% and the
    greedy repairer stops after 0 to 32 changes depending on the draw.

    Live writes are single cells off the cell of interest, drawn from the
    same column, and dropped when they would un-repair the cell of interest.
    """
    directory.mkdir(parents=True, exist_ok=True)
    prefix = f"v{_sub_seed(seed, 99) % 0x10000:04x}."
    dirty, texts = _generate(workload.fresh, workload.structure)
    _write_relabelled(dirty, prefix, directory / "fresh.csv")
    (directory / "constraints.txt").write_text("\n".join(texts) + "\n")

    dirty, texts = _generate(workload.live, workload.live_structure)
    table = _write_relabelled(dirty, prefix, directory / "live.csv")
    (directory / "live-constraints.txt").write_text("\n".join(texts) + "\n")
    constraints = repro.parse_dcs(list(texts))
    algorithm = algorithm_for(workload.algorithm)
    cell = algorithm.repair(constraints, table).delta.cells()[0]
    rng = np.random.default_rng(_sub_seed(0, 20, workload.live_structure))
    writes = []
    for _ in range(50 * WRITES):
        if len(writes) == WRITES:
            break
        row = int(rng.integers(0, len(table)))
        attribute = table.attributes[int(rng.integers(0, len(table.attributes)))]
        target = CellRef(row, attribute)
        if target == cell:
            continue
        column = sorted({v for v in table.column(attribute) if v != table[target]}, key=repr)
        if not column:
            continue
        value = column[int(rng.integers(0, len(column)))]
        if cell in algorithm.repair(constraints, table.with_values({target: value})).delta:
            writes.append([row, attribute, value])
    if len(writes) < WRITES:
        raise RuntimeError("not enough live writes that keep the cell of interest repaired")
    (directory / "writes.json").write_text(json.dumps(writes))


# -- measurement ---------------------------------------------------------------------


#: calibration workload size, and its wall time on an unloaded 2-vCPU host
CALIBRATION_KEYS = tuple(f"key{i}" for i in range(2000))
CALIBRATION_ROUNDS = 40
CALIBRATION_REFERENCE_S = 0.012


def calibrate() -> float:
    """Wall time of a fixed dictionary-and-string loop (the kind of work the
    program does most): the machine's speed right now."""
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        counts: dict[str, int] = {}
        for key in CALIBRATION_KEYS:
            counts[key] = counts.get(key, 0) + len(key)
    return time.perf_counter() - start


class Recorder:
    """Times ops, counts failures, optionally traces.

    Before each op it runs ``gc.collect()`` and a fixed calibration loop.
    ``raw`` keeps each op's wall time; :meth:`quantile` reports in *reference
    seconds*: each wall time scaled by :data:`CALIBRATION_REFERENCE_S` over
    the median of the calibrations taken around it (this op's and its
    neighbours' in run order).  The host's speed swings by up to 2x within
    seconds and between runs (other tenants share its cores); the local
    scaling cancels most of that swing, the median over many ops absorbs the
    rest, and every change in the program's own work stays in place.
    """

    #: calibrations on each side of an op that form its local speed estimate
    WINDOW = 2

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.raw: dict[str, list[float]] = {}
        #: (op name, wall time, calibration before it) in run order
        self.log: list[tuple[str, float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, function, *args, **kwargs):
        """Run one timed op; return ``(ok, result)``."""
        self.attempted += 1
        gc.collect()
        calibration = calibrate()
        try:
            if self.tracer is not None:
                with self.tracer.op(name):
                    start = time.perf_counter()
                    result = function(*args, **kwargs)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = function(*args, **kwargs)
                elapsed = time.perf_counter() - start
        except Exception as error:  # a failed op is counted, not fatal
            self.fail(f"{name}: {type(error).__name__}: {error}")
            return False, None
        self.raw.setdefault(name, []).append(elapsed)
        self.log.append((name, elapsed, calibration))
        return True, result

    def scaled(self, name: str | None = None) -> list[float]:
        """Wall times of op ``name`` (every op if ``None``) in reference seconds."""
        calibrations = [entry[2] for entry in self.log]
        values = []
        for index, (op, elapsed, _calibration) in enumerate(self.log):
            if name is None or op == name:
                window = calibrations[max(0, index - self.WINDOW): index + self.WINDOW + 1]
                values.append(elapsed * CALIBRATION_REFERENCE_S / statistics.median(window))
        return values

    def count(self, name: str) -> int:
        return len(self.raw.get(name, ()))

    def quantile(self, name: str, share: float) -> float:
        """A quantile of op ``name``'s wall times, in reference seconds."""
        values = self.scaled(name) or [float("nan")]
        return float(np.percentile(values, share * 100))

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def _floats(mapping) -> list:
    return sorted([str(key), repr(float(value))] for key, value in mapping.items())


def explanation_signature(explanation) -> list:
    """Exact (repr-level) values and standard errors of an explanation."""
    parts = []
    if explanation.constraint_shapley is not None:
        parts.append(_floats(explanation.constraint_shapley.values))
    if explanation.cell_shapley is not None:
        parts.append(_floats(explanation.cell_shapley.values))
        parts.append(_floats(explanation.cell_shapley.standard_errors))
    return parts


class Scenario:
    """One run of a workload over the input files in ``directory``."""

    def __init__(self, workload: Workload, directory: Path, recorder: Recorder):
        self.workload = workload
        self.directory = directory
        self.recorder = recorder
        self.texts = (directory / "constraints.txt").read_text().splitlines()
        self.live_texts = (directory / "live-constraints.txt").read_text().splitlines()
        self.writes = [(CellRef(row, attribute), value) for row, attribute, value
                       in json.loads((directory / "writes.json").read_text())]
        self.fresh_signature = None
        self.digest_parts: dict[str, object] = {}
        self.live = None
        self.cycle = 0
        self.undo = None
        self.base_signature = None
        self.cells_held = 0
        self.samples_per_explain = 1
        self.invalidated_before = 0

    # -- fresh rounds ----------------------------------------------------------------

    def _open(self, path: Path, texts, config: TRexConfig):
        table = repro.read_csv(path)
        constraints = repro.parse_dcs(texts)
        session = RepairSession(algorithm_for(self.workload.algorithm), constraints,
                                table, config=config)
        return session

    def fresh_round(self, warm_up: bool = False) -> dict | None:
        """Set-up, repair, constraint Shapley and cell Shapley on the fresh
        table (on the small live table for a warm-up)."""
        wl, rec = self.workload, self.recorder
        path = self.directory / ("live.csv" if warm_up else "fresh.csv")
        texts = self.live_texts if warm_up else self.texts
        config = TRexConfig(replacement_policy=wl.policy)
        ok, session = rec.run("setup_fresh", self._open, path, texts, config)
        if not ok or not rec.run("repair", session.run_repair)[0]:
            return None
        explainer = session.explainer
        delta = explainer.repair().delta
        if not delta:
            rec.fail(f"{path.name}: the repair changed no cell")
            return None
        cell = delta.cells()[0]
        cells = [c for c in relevant_cells(explainer.dirty_table, explainer.constraints, cell)
                 if c.row == cell.row][:3]
        ok, constraint_part = rec.run("constraint_shapley", explainer.explain_constraints, cell)
        if not ok:
            return None
        ok, cell_part = rec.run("explain", explainer.explain_cells, cell,
                                n_samples=wl.samples, cells=cells)
        if not ok:
            return None
        self.samples_per_explain = wl.samples * len(cells)
        total = sum(constraint_part.constraint_shapley.values.values())
        rec.check(abs(total - 1.0) <= SHAPLEY_ATOL,
                  f"{path.name}: constraint Shapley sums to {total!r}, not 1")
        signature = [
            sorted([c.cell.row, c.cell.attribute, repr(c.old_value), repr(c.new_value)]
                   for c in delta),
            explanation_signature(constraint_part),
            explanation_signature(cell_part),
        ]
        if self.fresh_signature is None:
            self.fresh_signature = signature
            self.digest_parts[path.name] = signature
        rec.check(signature == self.fresh_signature,
                  f"{path.name}: round output differs from the first round")
        return {"constraint": constraint_part, "cells": cell_part}

    # -- live session ------------------------------------------------------------------

    def _live_config(self) -> TRexConfig:
        wl = self.workload
        return TRexConfig(replacement_policy=wl.policy, cell_samples=wl.live_samples,
                          n_jobs=wl.n_jobs)

    def _build_live(self):
        session = self._open(self.directory / "live.csv", self.live_texts, self._live_config())
        try:
            session.run_repair()
            session.choose_cell(session.explainer.repaired_cells()[0])
            explanation = session.explain()
        except BaseException:
            session.close()
            raise
        return session, explanation

    def live_setup(self) -> bool:
        """Build (and keep) a resident live session; closes the previous one."""
        ok, built = self.recorder.run("setup_live", self._build_live)
        if not ok:
            return False
        self.close_live()
        self.live, explanation = built
        self.cycle = 0
        self.undo = None
        signature = explanation_signature(explanation)
        if self.base_signature is None:
            self.base_signature = signature
            self.digest_parts["live-base"] = signature
        self.recorder.check(signature == self.base_signature,
                            "live set-up output differs from the first set-up")
        self.cells_held = len(explanation.cell_shapley.values)
        self.invalidated_before = explanation.oracle_statistics["cells"]["estimates_invalidated"]
        self.last_explanation = explanation
        return True

    def live_cycle(self) -> bool:
        """One ``update`` + ``explain``: a write, or the undo of the last write."""
        session, rec = self.live, self.recorder
        if self.undo is None:
            cell, value = self.writes[(self.cycle // 2) % len(self.writes)]
            self.undo = (cell, session.state.dirty_table[cell])
        else:
            (cell, value), self.undo = self.undo, None
        self.cycle += 1
        if not rec.run("update", session.update, cell, value)[0]:
            return False
        ok, explanation = rec.run("refresh", session.explain)
        if not ok:
            return False
        self.last_explanation = explanation
        signature = explanation_signature(explanation)
        if self.undo is None:
            rec.check(signature == self.base_signature,
                      f"cycle {self.cycle}: explanation after undo differs from the base")
        elif self.cycle == 1:
            self.digest_parts["live-first-write"] = signature
        return True

    def check_live_against_fresh(self) -> None:
        """The live explanation equals a fresh session's on the current table."""
        session, rec = self.live, self.recorder
        rec.attempted += 1
        try:
            fresh = RepairSession(algorithm_for(self.workload.algorithm),
                                  session.state.constraints,
                                  session.state.dirty_table.copy(),
                                  config=self._live_config())
            with fresh:
                fresh.run_repair()
                fresh.choose_cell(session.cell_of_interest)
                expected = fresh.explain()
        except Exception as error:
            rec.fail(f"fresh-session check: {type(error).__name__}: {error}")
            return
        rec.check(explanation_signature(expected) == explanation_signature(self.last_explanation),
                  "live explanation differs from a fresh session on the post-update table")
        rebuilds = self.last_explanation.oracle_statistics["cells"]["worker_rebuilds"]
        rec.check(rebuilds == (self.workload.n_jobs or 0),
                  f"worker_rebuilds is {rebuilds}, expected {self.workload.n_jobs or 0}")

    def invalidated_share(self) -> float:
        stats = self.last_explanation.oracle_statistics["cells"]
        updates = self.cycle
        invalidated = stats["estimates_invalidated"] - self.invalidated_before
        return invalidated / max(1, updates * self.cells_held)

    def close_live(self) -> None:
        if self.live is not None:
            self.live.close()
            self.live = None

    def digest(self) -> str:
        text = json.dumps(self.digest_parts, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def warm_up(workload: Workload, directory: Path) -> None:
    """One untimed pass over every op, so lazy imports and first-call set-up
    are paid before anything is timed."""
    scenario = Scenario(workload, directory, Recorder())
    try:
        scenario.fresh_round(warm_up=True)
        if scenario.live_setup():
            scenario.live_cycle()
    finally:
        scenario.close_live()


def run_untraced(workload: Workload, directory: Path, seconds: float) -> tuple[Scenario, Recorder]:
    """The measured run: live set-ups, then interleaved rounds and cycles until
    ``seconds`` have passed."""
    recorder = Recorder()
    scenario = Scenario(workload, directory, recorder)
    try:
        for _ in range(LIVE_SETUPS):
            scenario.live_setup()
        start = time.perf_counter()
        # whole blocks, so every write and its undo run equally often; at
        # least one block, then blocks until ``seconds`` have passed
        block = max(1, 2 * WRITES // workload.cycles_per_round)
        rounds = 0
        while rounds % block or rounds == 0 or (
                rounds < MAX_ROUNDS and time.perf_counter() - start < seconds):
            scenario.fresh_round()
            if scenario.live is not None:
                for _ in range(workload.cycles_per_round):
                    scenario.live_cycle()
            rounds += 1
        if scenario.live is not None:
            scenario.check_live_against_fresh()
    finally:
        scenario.close_live()
    return scenario, recorder


def end_to_end_metrics(scenario: Scenario, recorder: Recorder) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) for every end-to-end metric."""
    import resource

    rec = recorder
    metrics = {
        "setup_s": (rec.quantile("setup_live", 0.5) + rec.quantile("setup_fresh", 0.5), "s",
                    min(rec.count("setup_live"), rec.count("setup_fresh"))),
        "repair_s": (rec.quantile("repair", 0.5), "s", rec.count("repair")),
        "constraint_shapley_s": (rec.quantile("constraint_shapley", 0.5), "s",
                                 rec.count("constraint_shapley")),
        "explain_pair_ms": (rec.quantile("explain", 0.5) * 1000 / scenario.samples_per_explain,
                            "ms", rec.count("explain")),
    }
    for op in ("update", "refresh"):
        for share in (0.5, 0.75):
            metrics[f"{op}_p{int(share * 100)}_ms"] = (
                rec.quantile(op, share) * 1000, "ms", rec.count(op))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (peak, "MB", 1)
    return metrics
