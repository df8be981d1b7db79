"""Worker-pool plumbing for the sharded scheduler.

Two lifecycles share one mechanism:

* :class:`WorkerPool` — the **warm pool**: worker processes spawned once and
  kept alive across rounds, each holding whatever resident state its task
  handler accumulates (the explain workers keep a whole oracle stack keyed by
  job-spec fingerprint).  One dedicated pipe per worker makes the task→worker
  assignment exact — worker ``i`` runs task ``i``, never "whichever process
  grabs the queue first" — which is what keeps per-worker resident caches,
  rebuild counters and diff high-water marks meaningful.
* :func:`run_worker_tasks` — the **transient pool** of the sharded
  permutation estimator: build a pool, run one round, tear it down.  It is
  a thin wrapper over :class:`WorkerPool`, so it inherits the same health
  machinery.

Health and requeue: a worker that dies mid-task (EOF on its pipe) or exceeds
the pool timeout is replaced, and its task is requeued onto a live worker —
or degraded in-process when no worker can take it.  A worker that *answers*
with an error (a deterministic task failure, or a report that cannot be
pickled) is left alive and its task degrades in-process directly: retrying a
deterministic failure on another process would fail identically, while the
in-process run needs no pickling at all.  None of this can change results —
shard draws are seeded by shard coordinates, so a re-executed task produces
bit-identical numbers wherever it lands.

The ``fork`` start method is preferred where available (POSIX): workers
inherit the parent's interpreter state, so only task payloads cross a pickle
boundary.  In sandboxes where child processes cannot be created at all (no
/dev/shm, seccomp filters), execution degrades to in-process with a one-time
warning; results are unaffected because shard draws are seeded, not shared.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.observability.events import EventLog

_POOL_FAILURE_WARNED = False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the pool's restart machinery (crash-loop containment).

    Without a policy a worker slot whose replacement keeps dying is respawned
    forever, as fast as ``fork`` allows.  The policy caps that loop along
    three axes:

    * ``backoff_base`` / ``backoff_factor`` / ``backoff_max`` — an
      exponential delay before the *n*-th replacement of one slot, so a
      systemic failure (OOM killer, broken interpreter) does not turn into a
      fork storm; the pool sums the waited seconds into
      ``backoff_seconds_total``.
    * ``max_worker_restarts`` — per-slot replacement cap; a slot that
      exceeds it is left dead (its tasks requeue or degrade in-process) and
      ``None`` means unbounded.
    * ``max_shard_attempts`` — consumed by the scheduler, not the pool: the
      cross-worker failure count after which a shard is quarantined to the
      in-process degrade path (see ``ShardedExplainScheduler``).

    None of the knobs can change results — every re-execution venue draws
    from the same shard-coordinate seeds.
    """

    max_worker_restarts: int | None = 5
    max_shard_attempts: int | None = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def backoff_seconds(self, restart_index: int) -> float:
        """Delay before the ``restart_index``-th replacement of one slot."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_max,
                   self.backoff_base * self.backoff_factor ** restart_index)


def process_context():
    """The multiprocessing context used for worker pools (fork if available)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _pool_worker_main(connection) -> None:
    """The loop every pool worker runs: recv task, execute, send report.

    ``resident`` is the worker-lifetime state dict handed to resident-capable
    handlers (see :class:`PoolTask`); it is what makes the pool *warm* —
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
        fn, args, wants_resident, fault = message
        kwargs: dict = {}
        if wants_resident:
            kwargs["resident"] = resident
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
    """One unit of pool work: ``fn(*args)`` on a dedicated worker.

    ``resident=True`` additionally passes the worker's process-lifetime state
    dict as a ``resident`` keyword — the warm-path handlers use it to keep
    their oracle stack between rounds.  ``fault`` is the test harness's
    injection point (see :class:`~repro.parallel.job.WorkerFault`); it is
    delivered as a ``fault`` keyword and stripped on requeue.
    """

    fn: Callable
    args: tuple
    resident: bool = False
    fault: Any = None


@dataclass
class TaskOutcome:
    """How one task actually ran: its result plus the pool's health verdict."""

    result: Any
    worker_index: int          # worker that produced the result; -1 = in-process
    requeued: bool = False     # re-executed after the assigned worker failed
    degraded: bool = False     # ran in the parent process (no pipe crossed)
    expired: bool = False      # dropped at the deadline; result is None


def _default_fallback(task: "PoolTask"):
    """Degrade one task in the parent process.

    Resident tasks get a fresh (empty) state dict — the parent has no warm
    stack for them, so the handler builds one, exactly like a cold worker
    would; callers that keep their own parent-side resident state pass a
    custom fallback instead.
    """
    if task.resident:
        return task.fn(*task.args, resident={})
    return task.fn(*task.args)


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


class WorkerPool:
    """A warm pool of worker processes with health monitoring and requeue.

    Parameters
    ----------
    n_workers:
        Worker process count; all are spawned at construction so that
        environments unable to create processes fail *here* (an ``OSError``
        the caller degrades on) rather than mid-round.
    timeout:
        Per-task seconds the parent waits for a worker's report before
        declaring it hung, replacing it and requeueing the task.  ``None``
        (default) waits indefinitely — worker *death* is still detected
        immediately via EOF on the pipe.
    retry:
        A :class:`RetryPolicy` bounding restarts (backoff between
        replacements, per-slot cap).  ``None`` keeps the unbounded legacy
        behaviour — restart immediately, forever.
    events:
        An :class:`~repro.observability.events.EventLog` receiving the
        pool's lifecycle records (spawn, restart, abandonment, deadline
        expiry), emitted at the exact sites the health counters bump so the
        two surfaces always reconcile.  ``None`` builds a private one.

    The pool is a context manager; :meth:`close` shuts the workers down.
    ``workers_restarted`` / ``tasks_requeued`` / ``tasks_expired`` /
    ``backoff_seconds_total`` count health events over the pool's lifetime.
    """

    def __init__(self, n_workers: int, timeout: float | None = None, context=None,
                 retry: "RetryPolicy | None" = None,
                 events: "EventLog | None" = None):
        # assigned before any validation so close()/__del__ stay safe no
        # matter where construction fails (partially built pools included)
        self._workers: list[_PoolWorker | None] = []
        self._closed = False
        self.worker_generations: list[int] = []
        self.workers_restarted = 0
        self.tasks_requeued = 0
        self.tasks_expired = 0
        self.backoff_seconds_total = 0.0
        self.events = events if events is not None else EventLog()
        if int(n_workers) < 1:
            raise ValueError(f"n_workers must be a positive integer, got {n_workers}")
        self._context = context if context is not None else process_context()
        self.timeout = timeout
        self.retry = retry
        #: per-slot restart generation — bumped whenever the process behind a
        #: slot is replaced, so callers tracking per-worker resident state
        #: can tell "same warm process" from "fresh replacement"
        self.worker_generations = [0] * int(n_workers)
        try:
            for index in range(int(n_workers)):
                worker = _PoolWorker(self._context)
                self._workers.append(worker)
                self.events.emit("worker_spawn", worker=index, generation=0,
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
        validation) — the slots spawned so far are stopped, later calls are
        no-ops, and a closed pool refuses new work instead of degrading it
        silently.
        """
        workers, self._workers = getattr(self, "_workers", []), []
        self._closed = True
        for worker in workers:
            if worker is not None:
                worker.stop()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- one round --------------------------------------------------------------------

    def run_tasks(self, tasks: Sequence[PoolTask],
                  fallback: Callable[[PoolTask], Any] | None = None,
                  deadline: float | None = None) -> list[TaskOutcome]:
        """Run ``tasks[i]`` on worker ``i`` and return outcomes in task order.

        The assignment is positional and static — determinism of "which
        worker ran what" is what per-worker resident state and cache
        high-water marks are accounted against.  Failed tasks are requeued
        onto a live worker that finished its own task cleanly this round
        (warm state and all), then — if that fails too, or none exists —
        degraded in-process via ``fallback`` (default: ``fn(*args)`` in the
        parent, which re-raises deterministic task errors exactly like a
        sequential run would).

        ``deadline`` is an absolute ``time.monotonic()`` instant: a task
        whose report has not arrived by then is *dropped*, not requeued —
        its worker is replaced (it may be mid-computation and unusable) and
        the outcome comes back with ``expired=True`` and a ``None`` result,
        so the caller can stop cleanly with partial results instead of
        hanging on a stuck fleet.
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
        if fallback is None:
            fallback = _default_fallback

        dispatched: list[bool] = []
        for index, task in enumerate(tasks):
            dispatched.append(self._dispatch(index, task))

        outcomes: list[TaskOutcome | None] = [None] * len(tasks)
        failed: list[tuple[int, str]] = []
        for index in range(len(tasks)):
            if not dispatched[index]:
                failed.append((index, "dead"))
                continue
            status, payload = self._collect(index, deadline)
            if status == "ok":
                outcomes[index] = TaskOutcome(payload, worker_index=index)
            elif status == "deadline":
                self._note_failure(index, status, payload)
                self._expire(index, worker=index)
                outcomes[index] = TaskOutcome(None, worker_index=-1, expired=True)
            else:
                self._note_failure(index, status, payload)
                failed.append((index, status))

        for index, status in failed:
            if deadline is not None and time.monotonic() >= deadline:
                # no budget left to re-execute: surface the expiry instead
                self._expire(index)
                outcomes[index] = TaskOutcome(None, worker_index=-1, expired=True)
                continue
            outcomes[index] = self._requeue(tasks[index], index, status,
                                            outcomes, fallback, deadline)
        return outcomes  # type: ignore[return-value]

    # -- plumbing ---------------------------------------------------------------------

    def _expire(self, task_index: int, worker: "int | None" = None) -> None:
        """Count one dropped-at-deadline task (and record who held it)."""
        self.tasks_expired += 1
        self.events.emit("task_deadline_expired", task=task_index, worker=worker)

    def _dispatch(self, index: int, task: PoolTask) -> bool:
        worker = self._workers[index]
        if worker is None:
            return False
        try:
            worker.connection.send((task.fn, task.args, task.resident, task.fault))
            return True
        except (OSError, ValueError):
            self._restart(index, reason="pipe-closed")
            return False

    def _collect(self, index: int, deadline: float | None = None) -> tuple[str, Any]:
        worker = self._workers[index]
        if worker is None:  # pragma: no cover - dispatch already failed
            return ("dead", None)
        try:
            wait = self.timeout
            if deadline is not None:
                remaining = deadline - time.monotonic()
                wait = remaining if wait is None else min(wait, remaining)
            if wait is not None and not worker.connection.poll(max(0.0, wait)):
                if deadline is not None and time.monotonic() >= deadline:
                    return ("deadline", None)
                return ("timeout", None)
            return worker.connection.recv()
        except (EOFError, OSError):
            return ("dead", None)

    def _note_failure(self, index: int, status: str, payload: Any) -> None:
        if status == "error":
            # the worker is alive and sane — it answered; the task itself is
            # the problem, so the retry happens in-process (no pickling)
            warnings.warn(
                f"pool worker {index} could not complete its task ({payload}); "
                "re-running in-process — results are identical",
                RuntimeWarning,
                stacklevel=4,
            )
            return
        if status == "deadline":
            # the worker may be fine, just slow — but its report is of no use
            # past the deadline, and leaving it mid-computation would poison
            # the next round's pipe protocol, so the slot is replaced; no
            # backoff (the job is already out of time)
            warnings.warn(
                f"pool worker {index} ran past the job deadline; replacing it "
                "and dropping its task — the job returns partial estimates",
                RuntimeWarning,
                stacklevel=4,
            )
            self._restart(index, backoff=False, reason="deadline")
            return
        reason = (f"timed out after {self.timeout}s" if status == "timeout"
                  else "died mid-task")
        warnings.warn(
            f"pool worker {index} {reason}; restarting it and requeueing its "
            "shards — results are identical (shard draws are seeded)",
            RuntimeWarning,
            stacklevel=4,
        )
        self._restart(index, reason=status)

    def _restart(self, index: int, backoff: bool = True,
                 reason: str = "dead") -> None:
        worker = self._workers[index]
        if isinstance(worker, _PoolWorker):
            worker.kill()
        prior_restarts = self.worker_generations[index]
        self.worker_generations[index] += 1
        if self.retry is not None:
            cap = self.retry.max_worker_restarts
            if cap is not None and prior_restarts >= cap:
                warnings.warn(
                    f"pool worker {index} exceeded its restart cap ({cap}); "
                    "leaving the slot dead — its tasks will requeue or run "
                    "in-process, results are identical",
                    RuntimeWarning,
                    stacklevel=5,
                )
                self._workers[index] = None
                self.events.emit("worker_abandoned", worker=index,
                                 restarts=prior_restarts, reason=reason)
                return
            if backoff:
                delay = self.retry.backoff_seconds(prior_restarts)
                if delay > 0:
                    time.sleep(delay)
                    self.backoff_seconds_total += delay
        try:
            replacement = _PoolWorker(self._context)
        except OSError:  # pragma: no cover - sandbox-dependent
            self._workers[index] = None
            self.events.emit("worker_abandoned", worker=index,
                             restarts=prior_restarts, reason="spawn-failed")
            return
        self._workers[index] = replacement
        self.workers_restarted += 1
        self.events.emit("worker_restart", worker=index,
                         generation=self.worker_generations[index],
                         reason=reason, pid=replacement.process.pid)

    def _requeue(self, task: PoolTask, index: int, status: str,
                 outcomes: Sequence[TaskOutcome | None],
                 fallback: Callable[[PoolTask], Any],
                 deadline: float | None = None) -> TaskOutcome:
        self.tasks_requeued += 1
        self.events.emit("task_requeued", task=index, reason=status)
        clean = PoolTask(task.fn, task.args, resident=task.resident, fault=None)
        if status != "error":
            # prefer a worker that completed its own task cleanly this round:
            # it is warm (resident state for this job) and demonstrably
            # healthy; an "error" verdict skips this — the failure was the
            # task's own and would reproduce on any process.  The outcome
            # must have been produced by slot `candidate` itself — after an
            # earlier requeue, outcomes[candidate] can describe a run on a
            # *different* worker while the slot holds a cold restart
            for candidate, outcome in enumerate(outcomes):
                if (candidate == index or outcome is None
                        or outcome.worker_index != candidate):
                    continue
                if not self._dispatch(candidate, clean):
                    continue
                candidate_status, payload = self._collect(candidate, deadline)
                if candidate_status == "ok":
                    return TaskOutcome(payload, worker_index=candidate,
                                       requeued=True)
                self._note_failure(candidate, candidate_status, payload)
                if candidate_status == "deadline":
                    self._expire(index, worker=candidate)
                    return TaskOutcome(None, worker_index=-1,
                                       requeued=True, expired=True)
                break
        if deadline is not None and time.monotonic() >= deadline:
            self._expire(index)
            return TaskOutcome(None, worker_index=-1, requeued=True, expired=True)
        return TaskOutcome(fallback(clean), worker_index=-1,
                           requeued=True, degraded=True)


def _run_stateless(fn: Callable, args: tuple) -> Any:
    """Adapter so plain ``fn(*args)`` tasks run under the pool protocol."""
    return fn(*args)


def run_worker_tasks(fn: Callable, tasks: Sequence[tuple], n_jobs: int) -> list:
    """Run one ``fn(*task)`` call per task, in processes when ``n_jobs > 1``.

    The transient-pool entry point (the sharded permutation estimator): a
    :class:`WorkerPool` is built, runs exactly one round and is torn down.
    Results come back in task order (never completion order), so callers can
    merge deterministically.  With one task or one job the calls run inline
    — the task arguments are identical either way, which is what keeps the
    in-process and multi-process paths bit-identical.  A worker death
    mid-round requeues only that worker's task (see
    :meth:`WorkerPool.run_tasks`) instead of abandoning the pool.
    """
    tasks = list(tasks)
    if n_jobs <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    try:
        pool = WorkerPool(min(n_jobs, len(tasks)))
    except OSError as error:  # pragma: no cover - sandbox-dependent
        global _POOL_FAILURE_WARNED
        if not _POOL_FAILURE_WARNED:
            _POOL_FAILURE_WARNED = True
            warnings.warn(
                f"cannot run a process pool ({error}); running shards "
                "in-process — results are identical, only slower",
                RuntimeWarning,
                stacklevel=2,
            )
        return [fn(*task) for task in tasks]
    with pool:
        outcomes = pool.run_tasks(
            [PoolTask(_run_stateless, (fn, tuple(task))) for task in tasks]
        )
    return [outcome.result for outcome in outcomes]
