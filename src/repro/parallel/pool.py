"""The warm worker pool of the sharded scheduler.

:class:`WorkerPool` is the only way the library starts a process.  Its
workers are spawned once and kept alive across rounds, each holding the
resident state its task handlers accumulate (the explain workers keep a
whole oracle stack keyed by job-spec fingerprint).  One dedicated pipe per
worker makes the task→worker assignment exact — worker ``i`` runs task
``i``, never "whichever process grabs the queue first" — which is what keeps
per-worker resident caches, rebuild counters and diff high-water marks
meaningful.

Health: the pool detects a worker that dies mid-task (EOF on its pipe), one
that exceeds the pool timeout, and one that *answers* with an error (a task
exception, or a report that cannot be pickled).  It replaces nothing and
retries nothing: the failed task comes back with that status, and the caller
finishes it in-process — a **fail-over**.  Dead and hung workers are killed
on detection; the scheduler then closes the whole pool and the next call
spawns a fresh one.  None of this can change results — shard draws are
seeded by shard coordinates, so a re-executed task produces bit-identical
numbers wherever it lands.

=====================  ====================================================
failure                what happens
=====================  ====================================================
worker crash           EOF on the pipe → status ``"dead"``; the caller
                       finishes the task in-process
worker hang            no reply within ``timeout`` → the worker is killed,
                       status ``"timeout"``; the caller finishes the task
                       in-process
corrupt or             an unpicklable report (or a task exception) is
unpicklable reply      answered as ``("error", message)`` → status
                       ``"error"``; a reply of the wrong type is the
                       caller's to detect (the scheduler checks for a
                       ``WorkerReport``); either way the task re-runs
                       in-process, where a task exception re-raises
deadline expiry        no reply by the job deadline → the worker is killed,
                       status ``"expired"``; the task is dropped
=====================  ====================================================

The ``fork`` start method is preferred where available (POSIX): workers
inherit the parent's interpreter state, so only task payloads cross a pickle
boundary.  In sandboxes where child processes cannot be created at all (no
/dev/shm, seccomp filters), constructing the pool raises ``OSError`` and the
scheduler runs in-process with a warning; results are unaffected because
shard draws are seeded, not shared.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.observability.events import EventLog


def process_context():
    """The multiprocessing context used for worker pools (fork if available)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _pool_worker_main(connection) -> None:
    """The loop every pool worker runs: recv task, execute, send report.

    ``resident`` is the worker-lifetime state dict handed to every task
    handler (see :class:`PoolTask`); it is what makes the pool *warm* —
    state built for one task survives into every later task of this process.
    A report that fails to pickle is answered with an ``("error", …)`` tuple
    instead (``Connection.send`` pickles before writing, so a failed send
    leaves the pipe clean), letting the parent degrade that task in-process.
    """
    resident: dict = {}
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):  # parent went away
            break
        if message is None:
            break
        fn, args, fault = message
        kwargs: dict = {"resident": resident}
        if fault is not None:
            kwargs["fault"] = fault
        try:
            response = ("ok", fn(*args, **kwargs))
        except Exception as error:
            response = ("error", f"{type(error).__name__}: {error}")
        try:
            connection.send(response)
        except Exception as error:
            try:
                connection.send(("error", f"worker report is not picklable ({error})"))
            except Exception:  # pragma: no cover - pipe gone mid-reply
                break


@dataclass
class PoolTask:
    """One unit of pool work: ``fn(*args, resident=...)`` on a dedicated worker.

    ``resident`` is the worker's process-lifetime state dict — the handlers
    use it to keep their oracle stack between rounds.  ``fault`` is the test
    harness's injection point (see :class:`~repro.parallel.job.WorkerFault`);
    it is delivered as a ``fault`` keyword.
    """

    fn: Callable
    args: tuple
    fault: Any = None


@dataclass
class TaskOutcome:
    """How one task ran on its worker.

    ``status`` is ``"ok"`` (``result`` holds the worker's reply) or the
    failure the pool detected: ``"dead"``, ``"timeout"``, ``"error"``
    (``result`` holds the worker's error message) or ``"expired"`` (past the
    deadline; ``result`` is ``None``).
    """

    status: str
    result: Any = None


class _PoolWorker:
    """One live worker process plus the parent end of its pipe."""

    __slots__ = ("process", "connection")

    def __init__(self, context):
        parent_connection, child_connection = context.Pipe()
        self.process = context.Process(
            target=_pool_worker_main, args=(child_connection,), daemon=True
        )
        self.process.start()
        child_connection.close()
        self.connection = parent_connection

    def stop(self) -> None:
        try:
            self.connection.send(None)
        except Exception:
            pass
        self.process.join(timeout=0.5)
        if self.process.is_alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=0.5)
        self.connection.close()

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=0.5)
        self.connection.close()


#: the warning each detected failure raises (``{index}`` is the worker)
_FAILURE_WARNINGS = {
    "dead": "pool worker {index} died mid-task; finishing its task in-process "
            "— results are identical (shard draws are seeded)",
    "timeout": "pool worker {index} timed out after {timeout}s; killing it and "
               "finishing its task in-process — results are identical",
    "error": "pool worker {index} could not complete its task ({payload}); "
             "re-running in-process — results are identical",
    "expired": "pool worker {index} ran past the job deadline; killing it and "
               "dropping its task — the job returns partial estimates",
}


class WorkerPool:
    """A warm pool of worker processes with failure detection.

    Parameters
    ----------
    n_workers:
        Worker process count; all are spawned at construction so that
        environments unable to create processes fail *here* (an ``OSError``
        the caller degrades on) rather than mid-round.
    timeout:
        Per-task seconds the parent waits for a worker's report before
        declaring it hung and killing it.  ``None`` (default) waits
        indefinitely — worker *death* is still detected immediately via EOF
        on the pipe.
    events:
        An :class:`~repro.observability.events.EventLog` receiving the
        pool's lifecycle records (``worker_spawn``,
        ``task_deadline_expired``).  ``None`` builds a private one.

    The pool is a context manager; :meth:`close` shuts the workers down.
    ``tasks_expired`` counts tasks dropped at a deadline over the pool's
    lifetime.
    """

    def __init__(self, n_workers: int, timeout: float | None = None, context=None,
                 events: "EventLog | None" = None):
        # assigned before any validation so close()/__del__ stay safe no
        # matter where construction fails (partially built pools included)
        self._workers: list[_PoolWorker] = []
        self._closed = False
        self.tasks_expired = 0
        self.events = events if events is not None else EventLog()
        if int(n_workers) < 1:
            raise ValueError(f"n_workers must be a positive integer, got {n_workers}")
        self._context = context if context is not None else process_context()
        self.timeout = timeout
        try:
            for index in range(int(n_workers)):
                worker = _PoolWorker(self._context)
                self._workers.append(worker)
                self.events.emit("worker_spawn", worker=index,
                                 pid=worker.process.pid)
        except BaseException:
            self.close()
            raise

    # -- lifecycle --------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._workers)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down; idempotent and safe mid-construction.

        ``_workers`` is the first attribute ``__init__`` assigns, so this is
        callable on a pool whose constructor failed at any point (including
        validation) — the workers spawned so far are stopped, later calls are
        no-ops, and a closed pool refuses new work instead of degrading it
        silently.
        """
        workers, self._workers = getattr(self, "_workers", []), []
        self._closed = True
        for worker in workers:
            worker.stop()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- one round --------------------------------------------------------------------

    def run_tasks(self, tasks: "Sequence[PoolTask | None]",
                  deadline: float | None = None) -> "list[TaskOutcome | None]":
        """Run ``tasks[i]`` on worker ``i`` and return outcomes in task order.

        The assignment is positional and static — determinism of "which
        worker ran what" is what per-worker resident state and cache
        high-water marks are accounted against.  A ``None`` task sends
        worker ``i`` nothing and its outcome is ``None``.  Every other task
        gets an outcome, failed ones included: the caller decides how to
        finish a failed task (in-process), the pool only detects and warns.
        A dead, hung or
        expired worker is killed on detection and stays dead — every later
        task sent to it fails as ``"dead"``.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a task
        whose report has not arrived by then comes back ``"expired"``, so
        the caller can stop cleanly with partial results instead of hanging
        on a stuck fleet.
        """
        tasks = list(tasks)
        if self._closed and tasks:
            raise RuntimeError(
                "worker pool is closed; build a new pool to run more tasks"
            )
        if len(tasks) > len(self._workers):
            raise ValueError(
                f"got {len(tasks)} tasks for {len(self._workers)} workers; "
                "assign at most one task per worker"
            )
        dispatched = [task is not None and self._dispatch(index, task)
                      for index, task in enumerate(tasks)]
        outcomes: list[TaskOutcome | None] = []
        for index, (task, sent) in enumerate(zip(tasks, dispatched)):
            if task is None:
                outcomes.append(None)
                continue
            outcome = self._collect(index, deadline) if sent else TaskOutcome("dead")
            if outcome.status != "ok":
                self._note_failure(index, outcome)
            outcomes.append(outcome)
        return outcomes

    # -- plumbing ---------------------------------------------------------------------

    def _dispatch(self, index: int, task: PoolTask) -> bool:
        try:
            self._workers[index].connection.send(
                (task.fn, task.args, task.fault)
            )
            return True
        except (OSError, ValueError):
            return False

    def _collect(self, index: int, deadline: float | None = None) -> TaskOutcome:
        connection = self._workers[index].connection
        try:
            wait = self.timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                wait = remaining if wait is None else min(wait, remaining)
            if wait is not None and not connection.poll(max(0.0, wait)):
                if deadline is not None and time.monotonic() >= deadline:
                    return TaskOutcome("expired")
                return TaskOutcome("timeout")
            return TaskOutcome(*connection.recv())
        except (EOFError, OSError):
            return TaskOutcome("dead")

    def _note_failure(self, index: int, outcome: TaskOutcome) -> None:
        """Warn about one failed task; kill its worker unless it answered."""
        warnings.warn(
            _FAILURE_WARNINGS[outcome.status].format(
                index=index, timeout=self.timeout, payload=outcome.result),
            RuntimeWarning,
            stacklevel=4,
        )
        if outcome.status == "expired":
            self.tasks_expired += 1
            self.events.emit("task_deadline_expired", task=index, worker=index)
        if outcome.status != "error":
            # a dead, hung or expired worker is unusable (it may be
            # mid-computation, which would desynchronise its pipe)
            self._workers[index].kill()

