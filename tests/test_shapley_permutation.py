"""Unit tests for permutation-sampling Shapley estimation."""

import pytest

from repro.errors import ExplanationError
from repro.shapley.exact import exact_shapley
from repro.shapley.game import CallableGame
from repro.shapley.permutation import permutation_shapley, stratified_permutation_shapley


def glove_game():
    def value(coalition):
        lefts = len(coalition & {"a", "b"})
        rights = len(coalition & {"c"})
        return float(min(lefts, rights))

    return CallableGame(("a", "b", "c"), value)


def test_estimates_close_to_exact_values():
    game = glove_game()
    exact = exact_shapley(game)
    estimate = permutation_shapley(game, n_permutations=600, rng=1)
    for player in game.players:
        assert estimate[player] == pytest.approx(exact[player], abs=0.06)


def test_estimator_is_deterministic_given_seed():
    game = glove_game()
    first = permutation_shapley(game, n_permutations=50, rng=7)
    second = permutation_shapley(game, n_permutations=50, rng=7)
    assert first.values == second.values


def test_different_seeds_differ():
    game = glove_game()
    first = permutation_shapley(game, n_permutations=25, rng=1)
    second = permutation_shapley(game, n_permutations=25, rng=2)
    assert first.values != second.values


def test_per_permutation_efficiency_property():
    """Each permutation's marginals telescope, so the estimate sums to v(N) - v(∅)."""
    game = glove_game()
    estimate = permutation_shapley(game, n_permutations=40, rng=3)
    assert estimate.total() == pytest.approx(game.grand_coalition_value(), abs=1e-9)


def test_standard_errors_shrink_with_more_samples():
    game = glove_game()
    small = permutation_shapley(game, n_permutations=30, rng=5)
    large = permutation_shapley(game, n_permutations=500, rng=5)
    assert large.standard_errors["a"] <= small.standard_errors["a"]


def test_antithetic_option_runs_and_reports_double_samples():
    game = glove_game()
    plain = permutation_shapley(game, n_permutations=50, rng=9)
    anti = permutation_shapley(game, n_permutations=50, rng=9, antithetic=True)
    assert anti.n_samples == 2 * plain.n_samples
    assert "antithetic" in anti.method
    exact = exact_shapley(game)
    for player in game.players:
        assert anti[player] == pytest.approx(exact[player], abs=0.1)


def test_requested_player_subset_only_reported():
    game = glove_game()
    estimate = permutation_shapley(game, n_permutations=20, rng=2, players=["c"])
    assert set(estimate.values) == {"c"}


def test_dummy_player_estimated_at_zero():
    game = CallableGame(("a", "b", "dummy"), lambda s: 1.0 if {"a", "b"} <= s else 0.0)
    estimate = permutation_shapley(game, n_permutations=200, rng=4)
    assert estimate["dummy"] == pytest.approx(0.0, abs=1e-12)


def test_stratified_estimator_close_to_exact():
    game = glove_game()
    exact = exact_shapley(game)
    estimate = stratified_permutation_shapley(game, n_permutations_per_position=150, rng=6)
    for player in game.players:
        assert estimate[player] == pytest.approx(exact[player], abs=0.08)
    assert estimate.method == "stratified-sampling"


def test_stratified_single_player():
    game = glove_game()
    estimate = stratified_permutation_shapley(game, n_permutations_per_position=80, player="c", rng=6)
    assert set(estimate.values) == {"c"}


@pytest.mark.parametrize("n_permutations", [0, -3, 2.5])
def test_non_positive_or_fractional_permutation_budget_is_rejected(n_permutations):
    with pytest.raises(ExplanationError, match="at least 1"):
        permutation_shapley(glove_game(), n_permutations=n_permutations, rng=1)


@pytest.mark.parametrize("per_position", [0, -2])
def test_non_positive_stratified_budget_is_rejected(per_position):
    with pytest.raises(ExplanationError, match="at least 1"):
        stratified_permutation_shapley(
            glove_game(), n_permutations_per_position=per_position, rng=1)
