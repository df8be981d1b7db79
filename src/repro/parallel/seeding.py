"""Deterministic seed partitioning for the sharded cell-Shapley scheduler.

The whole parallel subsystem rests on one invariant: **the random draws of a
shard depend only on the job seed and the shard's coordinates, never on the
worker that executes it**.  Each ``(cell, sample-chunk)`` shard derives its
own :class:`numpy.random.SeedSequence` from the entropy tuple
``(job_seed, cell_position, chunk_index)``, so the plan can be cut across any
number of processes — or replayed in-process — and every shard draws exactly
the same permutations and replacement values.  ``n_jobs=1`` and ``n_jobs=k``
are therefore bit-identical by construction, not by synchronisation.

``SeedSequence``'s entropy-hashing algorithm is documented by NumPy as stable
across versions and platforms, which is what makes the partition reproducible
in CI and across worker start methods (fork and spawn alike).
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_SEED, make_rng

#: entropy values must be non-negative; job seeds drawn from a generator are
#: already in range, user-supplied ints are masked into it
_SEED_MASK = (1 << 63) - 1


def resolve_job_seed(rng) -> int:
    """The integer seed a sharded plan is partitioned from.

    ``None`` means the library default, an integer is used as-is, and a live
    generator — which has no recoverable integer — contributes one draw,
    deterministic in its state.
    """
    if rng is None:
        return DEFAULT_SEED
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(make_rng(rng).integers(0, 2**63))


def shard_seed_sequence(job_seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of one shard, keyed by the job seed plus coordinates.

    ``key`` is the shard's coordinate tuple, ``(cell_position, chunk_index)``
    on the cell-Shapley scheduler.  Distinct coordinates yield statistically
    independent streams.
    """
    return np.random.SeedSequence([int(job_seed) & _SEED_MASK,
                                   *(int(part) for part in key)])


def shard_rng(job_seed: int, *key: int) -> np.random.Generator:
    """A fresh generator for one shard (see :func:`shard_seed_sequence`)."""
    return np.random.default_rng(shard_seed_sequence(job_seed, *key))


def partition_samples(total: int, per_shard: int) -> list[int]:
    """Split ``total`` samples into chunk sizes of at most ``per_shard``.

    The partition is the unit of seed derivation: chunk ``i`` of a cell draws
    from the stream keyed by chunk index ``i`` regardless of how chunks are
    assigned to workers.  ``per_shard`` must therefore be held fixed when
    comparing runs — it is part of the sampling plan, not a tuning knob that
    leaves results unchanged.
    """
    if per_shard < 1:
        raise ValueError(f"per_shard must be a positive integer, got {per_shard}")
    total = int(total)
    if total <= 0:
        return []
    sizes = [per_shard] * (total // per_shard)
    if total % per_shard:
        sizes.append(total % per_shard)
    return sizes
