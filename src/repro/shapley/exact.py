"""Exact Shapley values by subset enumeration.

This is the computation the paper uses for denial constraints: "For
constraints, we can use the formula directly as their number is typically
small" (Section 2.3).  The cost is ``2^n`` characteristic-function
evaluations (with memoisation), so it is only appropriate for small player
sets — the benchmark ``bench_scaling_dcs`` measures exactly where the
exponential blow-up makes the permutation estimator preferable.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.shapley.game import (
    CooperativeGame,
    MemoisedGame,
    Player,
    ShapleyResult,
    shapley_weight,
    validate_players,
)


def exact_shapley_single(game: CooperativeGame, player: Player) -> float:
    """Exact Shapley value of one player, straight from the definition."""
    players = game.players
    if player not in players:
        raise KeyError(f"unknown player {player!r}")
    others = [p for p in players if p != player]
    n_players = len(players)
    total = 0.0
    for size in range(len(others) + 1):
        weight = shapley_weight(size, n_players)
        for subset in combinations(others, size):
            coalition = frozenset(subset)
            marginal = game.value(coalition | {player}) - game.value(coalition)
            total += weight * marginal
    return total


def exact_shapley(game: CooperativeGame, players: Iterable[Player] | None = None) -> ShapleyResult:
    """Exact Shapley values for all (or a subset of) players.

    The characteristic function is memoised, so the total number of distinct
    evaluations is at most ``2^n`` regardless of how many players are asked
    for.
    """
    memoised = MemoisedGame(game)
    requested = validate_players(game, players)
    values = {player: exact_shapley_single(memoised, player) for player in requested}
    return ShapleyResult(
        values=values,
        n_samples=0,
        n_evaluations=memoised.evaluations,
        method="exact-enumeration",
    )

