"""Shapley-value computation — the paper's core machinery.

T-REx quantifies the contribution of each denial constraint and of each table
cell to the repair of a cell of interest using Shapley values (Section 2.2):

* for **constraints** the player set is the (small) set of DCs and the exact
  subset-enumeration formula is used (:mod:`repro.shapley.constraints`,
  backed by the generic engines in :mod:`repro.shapley.exact` and
  :mod:`repro.shapley.permutation`);
* for **cells** the player set is every cell of the dirty table, so the value
  is approximated with the permutation-sampling estimator of Strumbelj &
  Kononenko (Example 2.5 of the paper; :mod:`repro.shapley.cells` and
  :mod:`repro.shapley.sampling`).

All engines operate on the abstract :class:`~repro.shapley.game.CooperativeGame`
interface, so they are reusable beyond the repair-explanation setting and
are cross-checked against each other in the test-suite.

**One engine choice.**  The repair algorithm carries it
(:attr:`~repro.repair.base.RepairAlgorithm.engine`), and the oracle and the
explainers follow it.  On ``"fast"`` (the default) each sampled coalition
is a :class:`~repro.dataset.table.PerturbationView` copy-on-write delta on
the dirty table, the with/without pair of Example 2.5 is a one-cell
sub-delta, and the repair algorithms evaluate them through the incremental
violation detector (:mod:`repro.constraints.incremental`), which retracts
and re-checks only the touched rows against delta-maintained indexes.
``engine="reference"`` materialises every instance and rescans it, the
paper's definitions executed literally.  Estimates are identical for a fixed
seed (the ``bench_incremental_vs_full`` benchmark asserts this).
"""

from repro.shapley.game import CooperativeGame, CallableGame, ShapleyResult
from repro.shapley.exact import exact_shapley, exact_shapley_single
from repro.shapley.permutation import permutation_shapley
from repro.shapley.sampling import (
    CellCoalitionSampler,
    ReplacementPolicy,
    SampledShapleyEstimate,
)
from repro.shapley.constraints import ConstraintShapleyExplainer
from repro.shapley.cells import CellShapleyExplainer
from repro.shapley.convergence import RunningMean, ConvergenceTracker
from repro.shapley.interaction import (
    shapley_interaction_index,
    all_pairwise_interactions,
    banzhaf_values,
)

__all__ = [
    "CooperativeGame",
    "CallableGame",
    "ShapleyResult",
    "exact_shapley",
    "exact_shapley_single",
    "permutation_shapley",
    "CellCoalitionSampler",
    "ReplacementPolicy",
    "SampledShapleyEstimate",
    "ConstraintShapleyExplainer",
    "CellShapleyExplainer",
    "RunningMean",
    "ConvergenceTracker",
    "shapley_interaction_index",
    "all_pairwise_interactions",
    "banzhaf_values",
]
