"""Cooperative games.

A cooperative game is a finite player set ``N`` and a characteristic function
``v : 2^N → R`` with ``v(∅) = 0``.  The Shapley value of player ``a`` is

    Shap(N, v, a) = Σ_{S ⊆ N\\{a}}  |S|! (|N| - |S| - 1)! / |N|!  · (v(S ∪ {a}) − v(S))

T-REx instantiates two such games (constraints as players with the table
fixed, and cells as players with the constraints fixed); the generic engines
in :mod:`repro.shapley.exact` and :mod:`repro.shapley.permutation` work for
any game expressed through the :class:`CooperativeGame` interface.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Sequence

from repro.errors import TRexError

Player = Hashable


class CooperativeGame(abc.ABC):
    """Abstract cooperative game: a player list plus a characteristic function."""

    @property
    @abc.abstractmethod
    def players(self) -> tuple[Player, ...]:
        """The ordered player set ``N``."""

    @abc.abstractmethod
    def value(self, coalition: frozenset[Player]) -> float:
        """The characteristic function ``v(coalition)``.

        Implementations must satisfy ``value(frozenset()) == 0`` for the
        Shapley axioms (efficiency in particular) to carry their usual
        interpretation; the engines do not enforce it.
        """

    @property
    def n_players(self) -> int:
        return len(self.players)

    def grand_coalition_value(self) -> float:
        return self.value(frozenset(self.players))


class CallableGame(CooperativeGame):
    """Adapter building a game from a player list and a plain function."""

    def __init__(self, players: Sequence[Player], value_function: Callable[[frozenset], float]):
        players = tuple(players)
        if len(set(players)) != len(players):
            raise TRexError(f"duplicate players in game: {players}")
        self._players = players
        self._value_function = value_function

    @property
    def players(self) -> tuple[Player, ...]:
        return self._players

    def value(self, coalition: frozenset[Player]) -> float:
        return float(self._value_function(frozenset(coalition)))


class MemoisedGame(CooperativeGame):
    """Wrap another game and memoise its characteristic function.

    The exact Shapley formula evaluates many coalitions repeatedly (once per
    player whose marginal contribution involves that coalition); memoisation
    makes the evaluation count exactly ``2^n`` instead of ``n · 2^(n-1)``.
    """

    def __init__(self, inner: CooperativeGame):
        self._inner = inner
        self._cache: dict[frozenset, float] = {}
        self.evaluations = 0

    @property
    def players(self) -> tuple[Player, ...]:
        return self._inner.players

    def value(self, coalition: frozenset[Player]) -> float:
        key = frozenset(coalition)
        if key not in self._cache:
            self._cache[key] = self._inner.value(key)
            self.evaluations += 1
        return self._cache[key]


@dataclass
class ShapleyResult:
    """Shapley values for every player, with optional uncertainty estimates.

    Attributes
    ----------
    values:
        Player → Shapley value.
    standard_errors:
        Player → standard error of the estimate (empty for exact methods).
    n_samples:
        Number of Monte-Carlo samples used (0 for exact methods).
    n_evaluations:
        Number of characteristic-function evaluations performed.
    method:
        Human-readable name of the computation method.
    completed:
        ``False`` when a wall-clock deadline expired before the sampling
        plan finished — the values are the merged *partial* estimates
        (``n_samples`` says how much sampling actually happened).  Exact
        methods and runs without a deadline are always ``True``.
    """

    values: dict[Player, float]
    standard_errors: dict[Player, float] = field(default_factory=dict)
    n_samples: int = 0
    n_evaluations: int = 0
    method: str = "exact"
    completed: bool = True

    def __getitem__(self, player: Player) -> float:
        return self.values[player]

    def __contains__(self, player: Player) -> bool:
        return player in self.values

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> float:
        """Sum of all Shapley values (equals ``v(N) − v(∅)`` for exact methods)."""
        return float(sum(self.values.values()))

    def ranking(self) -> list[tuple[Player, float]]:
        """Players sorted by decreasing value (ties broken by player repr)."""
        return sorted(self.values.items(), key=lambda item: (-item[1], repr(item[0])))

    def top(self, k: int = 1) -> list[Player]:
        return [player for player, _ in self.ranking()[:k]]

    def normalised(self) -> dict[Player, float]:
        """Values rescaled to sum to 1 (unchanged if the total is 0)."""
        total = self.total()
        if total == 0:
            return dict(self.values)
        return {player: value / total for player, value in self.values.items()}


def shapley_weight(coalition_size: int, n_players: int) -> float:
    """The combinatorial weight ``|S|! (n − |S| − 1)! / n!`` of one coalition."""
    if not 0 <= coalition_size <= n_players - 1:
        raise TRexError(
            f"coalition size {coalition_size} out of range for {n_players} players"
        )
    import math

    return (
        math.factorial(coalition_size)
        * math.factorial(n_players - coalition_size - 1)
        / math.factorial(n_players)
    )


def validate_players(game: CooperativeGame, players: Iterable[Player] | None) -> tuple[Player, ...]:
    """Resolve an optional player subset against the game's player list."""
    if players is None:
        return game.players
    players = tuple(players)
    unknown = [p for p in players if p not in game.players]
    if unknown:
        raise TRexError(f"unknown players requested: {unknown}")
    return players
