"""Reproducibility configuration.

Centralises the random seeds, numeric tolerances and sampling defaults used
throughout the library so experiments are repeatable and the benchmark
harness can tighten or loosen them from a single place.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    n_jobs:
        Worker processes for the sampled cell-Shapley estimator.  ``None``
        (default) keeps the sequential engine; an integer routes estimation
        through the sharded scheduler (:mod:`repro.parallel`), whose results
        are bit-identical for every ``n_jobs >= 1``.  The worker processes
        (and their resident oracle stacks) stay alive across sampling
        rounds, shipping only new cache entries home.
    deadline_seconds:
        Optional wall-clock budget for one sampled cell-Shapley explanation
        run on the ``n_jobs`` path.  On expiry the scheduler stops at a
        round boundary and returns the merged *partial* estimates with
        ``ShapleyResult.completed == False``.  ``None`` (default) means no
        budget.  It must be a finite number ``>= 0``.  Sequential runs
        ignore it.

    The ``n_jobs`` path has no recovery knobs: a worker that crashes, hangs
    or sends a corrupt or unpicklable reply fails the round over — its
    shards finish in-process, the pool is closed and the rest of the
    explanation runs in-process, bit-identically (shard draws are seeded by
    shard coordinates).  The next explanation spawns a fresh pool.
    """

    seed: int = DEFAULT_SEED
    cell_samples: int = DEFAULT_CELL_SAMPLES
    replacement_policy: str = "sample"
    max_repair_iterations: int = 25
    n_jobs: int | None = None
    deadline_seconds: float | None = None

    def rng(self) -> np.random.Generator:
        """Return a fresh generator seeded from this configuration."""
        return np.random.default_rng(self.seed)


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
