"""Smoke test of ``benchmarks/explain_recipe.py`` on a 60-row table."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "explain_recipe.py"


@pytest.mark.parametrize("algorithm,policy", [("simple", "sample"), ("greedy", "mode")])
def test_recipe_prints_ms_per_pair_and_three_values(algorithm, policy, capsys):
    spec = importlib.util.spec_from_file_location("explain_recipe", _SCRIPT)
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    assert recipe.main(["--rows", "60", "--algorithm", algorithm,
                        "--policy", policy]) == 0
    header, *values = capsys.readouterr().out.splitlines()
    assert header.startswith(f"60 rows, {algorithm}/{policy}, cell t")
    assert header.endswith(" ms/pair")
    # up to three key cells of the explained cell's row, 10 pairs each
    row = header.split("cell ")[1].split("[")[0]
    assert 1 <= len(values) <= 3 and all(line.strip().startswith(row + "[")
                                         for line in values)
    assert f" {10 * len(values)} pairs " in header
    # the key cells carry signal: at least one value is nonzero
    assert any(float(line.rsplit(": ", 1)[1]) != 0.0 for line in values)
