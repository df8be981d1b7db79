"""T-REx: Table Repair Explanations — a full reproduction.

This package re-implements the system demonstrated in *"T-REx: Table Repair
Explanations"* (Deutch, Frost, Gilad, Sheffer — SIGMOD 2020): Shapley-value
explanations for the output of a *black-box* data-repair algorithm, together
with every substrate the demo depends on (an in-memory table engine, a denial
constraint language with violation detection, three repair algorithms
including a HoloClean-style probabilistic cleaner, exact and sampling-based
Shapley engines, datasets and error injection).

Quickstart
----------
>>> from repro import (
...     la_liga_dirty_table, la_liga_constraints, paper_algorithm_1,
...     TRExExplainer, CellRef,
... )
>>> explainer = TRExExplainer(paper_algorithm_1(), la_liga_constraints(),
...                           la_liga_dirty_table())
>>> explainer.repaired_cells()
[CellRef(row=4, attribute='City'), CellRef(row=4, attribute='Country')]
>>> explanation = explainer.explain_constraints(CellRef(4, "Country"))
>>> [(name, round(value, 4)) for name, value in explanation.constraint_ranking.scores().items()]
[('C3', 0.6667), ('C1', 0.1667), ('C2', 0.1667), ('C4', 0.0)]

See ``examples/`` for end-to-end scenarios and ``DESIGN.md`` for the mapping
between the paper's figures/examples and the modules here.
"""

from repro.config import TRexConfig, DEFAULT_SEED
from repro.errors import (
    TRexError,
    SchemaError,
    InputFileError,
    ConstraintError,
    ConstraintParseError,
    RepairError,
    ExplanationError,
    NotRepairedError,
)
from repro.dataset import (
    AttributeSpec,
    Schema,
    Table,
    CellRef,
    PerturbationView,
    RepairDelta,
    read_csv,
    write_csv,
    table_from_records,
    la_liga_clean_table,
    la_liga_dirty_table,
    la_liga_constraints,
    SoccerLeagueGenerator,
    HospitalGenerator,
    FlightsGenerator,
    TaxGenerator,
    ErrorInjector,
    ErrorSpec,
    InjectionReport,
)
from repro.constraints import (
    Operator,
    Predicate,
    DenialConstraint,
    parse_dc,
    parse_dcs,
    format_dc,
    find_violations,
    find_all_violations,
    find_all_violations_auto,
    IncrementalViolationDetector,
    RepairWalk,
    repair_walk_for,
    FunctionalDependency,
    ConditionalFunctionalDependency,
    discover_fds,
    discover_dcs,
)
from repro.repair import (
    RepairAlgorithm,
    RepairResult,
    BinaryRepairOracle,
    FunctionRepairAlgorithm,
    SimpleRuleRepair,
    RepairRule,
    paper_algorithm_1,
    GreedyHolisticRepair,
    HoloCleanRepair,
    BaseCellUpdate,
    BaseUpdateDelta,
    BaseUpdateLog,
)
from repro.shapley import (
    CooperativeGame,
    CallableGame,
    ShapleyResult,
    exact_shapley,
    permutation_shapley,
    ConstraintShapleyExplainer,
    CellShapleyExplainer,
    ReplacementPolicy,
    shapley_interaction_index,
    all_pairwise_interactions,
    banzhaf_values,
)
from repro.parallel import (
    ParallelExplainResult,
    ShardedExplainScheduler,
)
from repro.explain import (
    TRExExplainer,
    Explanation,
    ExplanationReport,
    RepairSession,
    Ranking,
    kendall_tau,
    ranking_overlap,
    minimal_constraint_counterfactuals,
    minimal_cell_counterfactuals,
    counterfactual_report,
    save_explanation,
    load_explanation,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration & errors
    "TRexConfig",
    "DEFAULT_SEED",
    "TRexError",
    "SchemaError",
    "InputFileError",
    "ConstraintError",
    "ConstraintParseError",
    "RepairError",
    "ExplanationError",
    "NotRepairedError",
    # dataset layer
    "AttributeSpec",
    "Schema",
    "Table",
    "CellRef",
    "PerturbationView",
    "RepairDelta",
    "read_csv",
    "write_csv",
    "table_from_records",
    "la_liga_clean_table",
    "la_liga_dirty_table",
    "la_liga_constraints",
    "SoccerLeagueGenerator",
    "HospitalGenerator",
    "FlightsGenerator",
    "TaxGenerator",
    "ErrorInjector",
    "ErrorSpec",
    "InjectionReport",
    # constraints
    "Operator",
    "Predicate",
    "DenialConstraint",
    "parse_dc",
    "parse_dcs",
    "format_dc",
    "find_violations",
    "find_all_violations",
    "find_all_violations_auto",
    "IncrementalViolationDetector",
    "RepairWalk",
    "repair_walk_for",
    "FunctionalDependency",
    "ConditionalFunctionalDependency",
    "discover_fds",
    "discover_dcs",
    # repair
    "RepairAlgorithm",
    "RepairResult",
    "BinaryRepairOracle",
    "FunctionRepairAlgorithm",
    "SimpleRuleRepair",
    "RepairRule",
    "paper_algorithm_1",
    "GreedyHolisticRepair",
    "HoloCleanRepair",
    "BaseCellUpdate",
    "BaseUpdateDelta",
    "BaseUpdateLog",
    # shapley
    "CooperativeGame",
    "CallableGame",
    "ShapleyResult",
    "exact_shapley",
    "permutation_shapley",
    "ConstraintShapleyExplainer",
    "CellShapleyExplainer",
    "ReplacementPolicy",
    "shapley_interaction_index",
    "all_pairwise_interactions",
    "banzhaf_values",
    # parallel execution
    "ParallelExplainResult",
    "ShardedExplainScheduler",
    # explanation layer
    "TRExExplainer",
    "Explanation",
    "ExplanationReport",
    "RepairSession",
    "Ranking",
    "kendall_tau",
    "ranking_overlap",
    "minimal_constraint_counterfactuals",
    "minimal_cell_counterfactuals",
    "counterfactual_report",
    "save_explanation",
    "load_explanation",
]
