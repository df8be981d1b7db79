"""Time one cell-Shapley explanation on a generated hospital table.

The recipe: the hospital generator (seed 3) at ``--rows`` rows, 2% injected
errors (typo/swap/domain, seed 5) and its five FDs; ``TRexConfig(seed=7,
replacement_policy=--policy)`` around the ``--algorithm`` black box; the
first repaired cell, explained with 10 samples each through
``TRExExplainer.explain_cells`` over up to three cells of its row whose
attribute is an equality attribute of a constraint mentioning the repaired
attribute (the cells its repair reads, so the values are not all 0).  It prints
the wall time per with/without pair and the Shapley values, so two checkouts
can be compared on both speed and output::

    PYTHONPATH=src python benchmarks/explain_recipe.py --rows 1000 \\
        --algorithm simple --policy sample
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    ErrorInjector,
    ErrorSpec,
    GreedyHolisticRepair,
    HospitalGenerator,
    SimpleRuleRepair,
    TRexConfig,
    TRExExplainer,
    parse_dcs,
)
from repro.shapley.cells import relevant_cells  # noqa: E402

ALGORITHMS = {"simple": SimpleRuleRepair, "greedy": GreedyHolisticRepair}
SAMPLES = 10
CELLS = 3


def run(rows: int, algorithm: str, policy: str) -> dict:
    """Build the recipe's table and explain its first repaired cell.

    Returns the explained cell, the number of pairs, the explanation's wall
    seconds and its ``{cell: Shapley value}`` mapping.
    """
    dataset = HospitalGenerator(seed=3).generate(rows)
    dirty, _report = ErrorInjector(
        ErrorSpec(rate=0.02, error_types=("typo", "swap", "domain")), seed=5,
    ).inject(dataset.table)
    constraints = parse_dcs(list(dataset.constraint_texts))
    explainer = TRExExplainer(ALGORITHMS[algorithm](), constraints, dirty,
                              config=TRexConfig(seed=7, replacement_policy=policy))
    cell = explainer.repaired_cells()[0]
    keys = {attribute for constraint in constraints
            if cell.attribute in constraint.attributes()
            for attribute in constraint.equality_attributes()}
    cells = [c for c in relevant_cells(dirty, constraints, cell)
             if c.row == cell.row and c.attribute in keys][:CELLS]
    start = time.perf_counter()
    explanation = explainer.explain_cells(cell, n_samples=SAMPLES, cells=cells)
    seconds = time.perf_counter() - start
    return {"cell": cell, "pairs": SAMPLES * len(cells), "seconds": seconds,
            "values": dict(explanation.cell_shapley.values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=1000)
    parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="simple")
    parser.add_argument("--policy", choices=("mode", "null", "sample"), default="sample")
    args = parser.parse_args(argv)
    result = run(args.rows, args.algorithm, args.policy)
    print(f"{args.rows} rows, {args.algorithm}/{args.policy}, cell {result['cell']}: "
          f"{result['pairs']} pairs in {result['seconds']:.2f} s, "
          f"{1000 * result['seconds'] / result['pairs']:.1f} ms/pair")
    for cell, value in result["values"].items():
        print(f"  {cell}: {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
