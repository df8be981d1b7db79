"""Reproducibility configuration.

Centralises the random seeds, numeric tolerances and sampling defaults used
throughout the library so experiments are repeatable and the benchmark
harness can tighten or loosen them from a single place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

#: Default seed used whenever a component needs randomness and the caller did
#: not provide an explicit seed or generator.
DEFAULT_SEED = 7_042_020  # arXiv id of the paper: 2007.04450

#: Absolute tolerance used when comparing Shapley values against the values
#: reported in the paper (which are exact rationals such as 1/6 and 2/3).
SHAPLEY_ATOL = 1e-9

#: Default number of permutation samples for the cell-Shapley estimator
#: (Example 2.5 of the paper leaves ``m`` as a user parameter).
DEFAULT_CELL_SAMPLES = 500


@dataclass
class TRexConfig:
    """Bundle of knobs controlling a T-REx run.

    Parameters
    ----------
    seed:
        Seed for all stochastic components (sampling-based Shapley, error
        injection, dataset generation).
    cell_samples:
        Number of permutation samples ``m`` used by the cell-level Shapley
        estimator.
    replacement_policy:
        How out-of-coalition cells are filled when querying the black box:
        ``"sample"`` draws from the column distribution (the paper's
        algorithm, Example 2.5), ``"null"`` follows the formal definition in
        Section 2.2, ``"mode"`` uses the most frequent column value.
    max_repair_iterations:
        Upper bound on fixpoint iterations inside repair algorithms.
    cache_oracle:
        Whether black-box repair calls are memoised per coalition.
    n_jobs:
        Worker processes for the sampled cell-Shapley estimator.  ``None``
        (default) keeps the sequential engine; an integer routes estimation
        through the sharded scheduler (:mod:`repro.parallel`), whose results
        are bit-identical for every ``n_jobs >= 1``.
    warm_pool:
        Whether the ``n_jobs`` path keeps worker processes (and their
        resident oracle stacks) alive across rounds, shipping only new cache
        entries home (the default).  ``False`` forces the cold
        rebuild-per-round path; results are bit-identical either way.
    deadline_seconds:
        Optional wall-clock budget for one sampled cell-Shapley explanation
        run on the ``n_jobs`` path.  On expiry the scheduler stops at a
        round boundary and returns the merged *partial* estimates with
        ``ShapleyResult.completed == False``.  ``None`` (default) means no
        budget.  Sequential runs ignore it.
    max_worker_restarts:
        Per-worker-slot cap on process restarts (crash-loop containment);
        once exceeded the slot stays dead and its work is requeued or run
        in-process.  ``None`` lifts the cap.
    max_shard_attempts:
        Cross-worker failure cap per sampling shard; a shard that fails this
        many times is quarantined to the in-process degrade path for the
        rest of the scheduler's lifetime (values unchanged — only where the
        shard is evaluated changes).  ``None`` lifts the cap.
    restart_backoff_seconds:
        Base delay of the bounded exponential backoff slept before each
        worker restart (doubles per consecutive restart of the same slot,
        capped).  ``0`` disables the backoff.
    incremental_updates:
        Whether :meth:`RepairSession.update` delta-maintains the live
        session state — base violations, indexes, statistics, encoding,
        oracle cache — and selectively refreshes only the Shapley estimates
        whose sampled coalitions overlapped the changed cells (the
        default).  ``False`` forces the rebuild reference path: every
        update swaps in a fresh table copy and a fresh explainer, exactly
        like starting a new session on the post-update table.  Explanations
        are bit-identical either way.
    """

    seed: int = DEFAULT_SEED
    cell_samples: int = DEFAULT_CELL_SAMPLES
    replacement_policy: str = "sample"
    max_repair_iterations: int = 25
    cache_oracle: bool = True
    n_jobs: int | None = None
    warm_pool: bool = True
    deadline_seconds: float | None = None
    max_worker_restarts: int | None = 5
    max_shard_attempts: int | None = 3
    restart_backoff_seconds: float = 0.05
    incremental_updates: bool = True
    extra: dict = field(default_factory=dict)

    def rng(self) -> np.random.Generator:
        """Return a fresh generator seeded from this configuration."""
        return np.random.default_rng(self.seed)

    def with_seed(self, seed: int) -> "TRexConfig":
        """Return a copy of the configuration with a different seed."""
        return dataclasses.replace(self, seed=seed, extra=dict(self.extra))

    def retry_policy(self):
        """Build the pool :class:`~repro.parallel.pool.RetryPolicy` these knobs describe.

        Imported lazily: ``repro.parallel`` imports this module, so a
        top-level import here would be circular.
        """
        from repro.parallel.pool import RetryPolicy

        return RetryPolicy(
            max_worker_restarts=self.max_worker_restarts,
            max_shard_attempts=self.max_shard_attempts,
            backoff_base=self.restart_backoff_seconds,
        )


def make_rng(seed_or_rng=None) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (use :data:`DEFAULT_SEED`), an integer seed, or an
    existing generator (returned unchanged so callers can share a stream).
    """
    if seed_or_rng is None:
        return np.random.default_rng(DEFAULT_SEED)
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)
