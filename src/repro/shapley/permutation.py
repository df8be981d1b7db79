"""Permutation-sampling Shapley estimation for generic games.

The Shapley value equals the expected marginal contribution of a player over
a uniformly random permutation of the player set:

    Shap(a) = E_π [ v(pre_π(a) ∪ {a}) − v(pre_π(a)) ]

where ``pre_π(a)`` is the set of players preceding ``a`` in permutation π.
Sampling permutations therefore gives an unbiased estimator whose error
shrinks as ``1/√m``.  Two variance-reduction options are provided:

* **antithetic sampling** — each drawn permutation is also used reversed,
  which cancels part of the positional noise;
* **one-permutation-all-players** updates — a single permutation yields a
  marginal contribution for *every* player (the standard Castro et al.
  estimator), so the per-sample cost is ``n + 1`` evaluations amortised over
  ``n`` players.

This generic engine is used by the scaling/ablation benches and as an
alternative to exact enumeration for large DC sets; the *cell* estimator of
Example 2.5 (which also perturbs out-of-coalition values) lives in
:mod:`repro.shapley.sampling`.
"""

from __future__ import annotations

import pickle
import warnings
from typing import Iterable, Sequence

import numpy as np

from repro.config import make_rng
from repro.shapley.convergence import RunningMean
from repro.shapley.game import CooperativeGame, Player, ShapleyResult, validate_players


def _walk_permutations(
    game: CooperativeGame,
    all_players: Sequence[Player],
    n_permutations: int,
    rng: np.random.Generator,
    antithetic: bool,
) -> tuple[dict[Player, RunningMean], int, int]:
    """Walk ``n_permutations`` permutations drawn from ``rng``.

    The single evaluation core shared by the sequential estimator (one call,
    one stream) and the sharded one (one call per seeded chunk); returns the
    per-player accumulators plus the walk/evaluation counts.
    """
    n = len(all_players)
    trackers: dict[Player, RunningMean] = {player: RunningMean() for player in all_players}
    evaluations = 0
    n_walks = 0

    def walk(order: np.ndarray) -> None:
        nonlocal evaluations
        coalition: set[Player] = set()
        previous_value = game.value(frozenset())
        evaluations += 1
        for index in order:
            player = all_players[int(index)]
            coalition.add(player)
            current_value = game.value(frozenset(coalition))
            evaluations += 1
            trackers[player].update(current_value - previous_value)
            previous_value = current_value

    for _ in range(n_permutations):
        order = rng.permutation(n)
        walk(order)
        n_walks += 1
        if antithetic:
            walk(order[::-1])
            n_walks += 1
    return trackers, n_walks, evaluations


def _permutation_worker(game, chunks: Sequence[tuple[int, int]], job_seed: int,
                        antithetic: bool):
    """One worker task: walk the given ``(chunk_index, size)`` chunks.

    ``game`` arrives as pickled bytes on the multi-process path and as the
    live object in-process; each chunk draws from its own stream keyed by
    ``(job_seed, chunk_index)``, so results are assignment-invariant.
    """
    from repro.parallel.seeding import shard_rng

    if isinstance(game, (bytes, bytearray)):
        game = pickle.loads(bytes(game))
    all_players = game.players
    return [
        (chunk_index,
         _walk_permutations(game, all_players, size,
                            shard_rng(job_seed, chunk_index), antithetic))
        for chunk_index, size in chunks
    ]


def _sharded_permutation_shapley(
    game: CooperativeGame,
    n_permutations: int,
    requested: set[Player],
    rng,
    antithetic: bool,
    n_jobs: int,
    permutations_per_shard: int,
) -> ShapleyResult:
    """The ``n_jobs`` estimator: seeded permutation chunks, merged trackers.

    Bit-identical for every ``n_jobs >= 1``: chunk draws depend only on the
    job seed and the chunk index, and the per-player accumulators are merged
    in chunk order.  Games that cannot be pickled (closures, bound lambdas)
    degrade to in-process execution with a warning — same plan, same bits.
    Worker health is the pool's (:mod:`repro.parallel.pool`): a worker that
    fails mid-round has only *its* chunks re-run in-process — the seeded
    chunk streams make the re-execution bit-identical wherever it lands.
    """
    from repro.parallel.pool import run_worker_tasks
    from repro.parallel.seeding import partition_samples, resolve_job_seed

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be a positive integer or None, got {n_jobs}")
    job_seed = resolve_job_seed(rng)
    chunks = list(enumerate(partition_samples(n_permutations, permutations_per_shard)))
    n_jobs = max(1, min(n_jobs, len(chunks) or 1))
    assignments = [chunks[worker::n_jobs] for worker in range(n_jobs)]
    if n_jobs == 1:
        reports = [_permutation_worker(game, assignments[0], job_seed, antithetic)]
    else:
        try:
            payload = pickle.dumps(game, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # unpicklable game: same plan, one process
            warnings.warn(
                f"game is not picklable ({error}); running permutation shards "
                "in-process — estimates are identical, only slower",
                RuntimeWarning,
                stacklevel=3,
            )
            reports = [_permutation_worker(game, chunk_list, job_seed, antithetic)
                       for chunk_list in assignments]
        else:
            tasks = [(payload, chunk_list, job_seed, antithetic)
                     for chunk_list in assignments]
            reports = run_worker_tasks(_permutation_worker, tasks, n_jobs)

    all_players = game.players
    merged: dict[Player, RunningMean] = {player: RunningMean() for player in all_players}
    n_walks = 0
    evaluations = 0
    results = [entry for report in reports for entry in report]
    results.sort(key=lambda entry: entry[0])
    for _, (trackers, chunk_walks, chunk_evaluations) in results:
        for player, tracker in trackers.items():
            merged[player].merge(tracker)
        n_walks += chunk_walks
        evaluations += chunk_evaluations
    values = {p: merged[p].mean for p in all_players if p in requested}
    errors = {p: merged[p].standard_error for p in all_players if p in requested}
    return ShapleyResult(
        values=values,
        standard_errors=errors,
        n_samples=n_walks,
        n_evaluations=evaluations,
        method="permutation-sampling"
        + ("-antithetic" if antithetic else "") + "-sharded",
    )


def permutation_shapley(
    game: CooperativeGame,
    n_permutations: int = 200,
    players: Iterable[Player] | None = None,
    rng=None,
    antithetic: bool = False,
    n_jobs: int | None = None,
    permutations_per_shard: int = 64,
) -> ShapleyResult:
    """Estimate Shapley values from ``n_permutations`` random permutations.

    Parameters
    ----------
    game:
        The cooperative game to evaluate.
    n_permutations:
        Number of sampled permutations (each permutation contributes one
        marginal-contribution sample per player).
    players:
        Optional subset of players to estimate (all players are walked either
        way, since the permutation visit order determines every coalition).
    rng:
        Seed or :class:`numpy.random.Generator`.
    antithetic:
        Also evaluate each permutation reversed (doubling the per-permutation
        cost but reducing variance for monotone games).
    n_jobs:
        ``None`` (default) keeps the sequential single-stream estimator.  An
        integer shards the permutations into seeded chunks executed on that
        many worker processes (``1`` runs the plan in-process); estimates are
        bit-identical for every ``n_jobs >= 1`` but differ from the
        sequential stream.  The game must be picklable for real fan-out;
        otherwise the plan runs in-process with a warning.
    permutations_per_shard:
        Chunk granularity of the ``n_jobs`` plan; part of the seed partition,
        so hold it fixed when comparing runs.
    """
    requested = set(validate_players(game, players))
    if n_jobs is not None:
        return _sharded_permutation_shapley(
            game, n_permutations, requested, rng, antithetic,
            int(n_jobs), permutations_per_shard,
        )
    rng = make_rng(rng)
    all_players = game.players
    trackers, n_walks, evaluations = _walk_permutations(
        game, all_players, n_permutations, rng, antithetic
    )
    values = {p: trackers[p].mean for p in all_players if p in requested}
    errors = {p: trackers[p].standard_error for p in all_players if p in requested}
    return ShapleyResult(
        values=values,
        standard_errors=errors,
        n_samples=n_walks,
        n_evaluations=evaluations,
        method="permutation-sampling" + ("-antithetic" if antithetic else ""),
    )


def stratified_permutation_shapley(
    game: CooperativeGame,
    n_permutations_per_position: int = 20,
    player: Player | None = None,
    rng=None,
) -> ShapleyResult:
    """Stratified estimator: sample coalitions separately for each coalition size.

    The Shapley value is the average over coalition sizes of the expected
    marginal contribution at that size; sampling each size ("stratum")
    separately guarantees every size is represented, which plain permutation
    sampling only achieves in expectation.  Used by the sampling-strategy
    ablation (E10).
    """
    rng = make_rng(rng)
    all_players = game.players
    n = len(all_players)
    targets = [player] if player is not None else list(all_players)
    values: dict[Player, float] = {}
    errors: dict[Player, float] = {}
    evaluations = 0

    for target in targets:
        others = [p for p in all_players if p != target]
        stratum_means: list[float] = []
        stratum_vars: list[float] = []
        for size in range(n):
            tracker = RunningMean()
            for _ in range(n_permutations_per_position):
                if size and others:
                    chosen = rng.choice(len(others), size=min(size, len(others)), replace=False)
                    coalition = frozenset(others[int(i)] for i in chosen)
                else:
                    coalition = frozenset()
                marginal = game.value(coalition | {target}) - game.value(coalition)
                evaluations += 2
                tracker.update(marginal)
            stratum_means.append(tracker.mean)
            stratum_vars.append(tracker.variance / max(1, tracker.count))
        values[target] = float(np.mean(stratum_means))
        errors[target] = float(np.sqrt(np.sum(stratum_vars)) / n)

    return ShapleyResult(
        values=values,
        standard_errors=errors,
        n_samples=n_permutations_per_position * n,
        n_evaluations=evaluations,
        method="stratified-sampling",
    )
