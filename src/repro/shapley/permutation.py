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

from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from repro.config import make_rng
from repro.errors import ExplanationError
from repro.shapley.convergence import RunningMean
from repro.shapley.game import CooperativeGame, Player, ShapleyResult, validate_players


def _check_sample_budget(count, what: str) -> None:
    """Reject a sample budget that is not a positive integer (zero samples
    would estimate nothing, a fraction would fail inside the walk)."""
    if not isinstance(count, Integral) or count < 1:
        raise ExplanationError(
            f"the number of {what} must be an integer of at least 1, got {count!r}"
        )


def _walk_permutations(
    game: CooperativeGame,
    all_players: Sequence[Player],
    n_permutations: int,
    rng: np.random.Generator,
    antithetic: bool,
) -> tuple[dict[Player, RunningMean], int, int]:
    """Walk ``n_permutations`` permutations drawn from ``rng``.

    Returns the per-player accumulators plus the walk/evaluation counts.
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


def permutation_shapley(
    game: CooperativeGame,
    n_permutations: int = 200,
    players: Iterable[Player] | None = None,
    rng=None,
    antithetic: bool = False,
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
    """
    _check_sample_budget(n_permutations, "permutations")
    requested = set(validate_players(game, players))
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
    _check_sample_budget(n_permutations_per_position, "permutations per position")
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
