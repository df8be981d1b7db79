"""Algorithm 1 of the paper: a simple rule-based repair algorithm.

Each denial constraint is associated with a :class:`RepairRule` describing
which attribute to modify when a tuple participates in a violation of that
constraint and how to pick the replacement value:

* ``"most_common"`` — the modal value of the attribute
  (``argmax_v P[A = v]``, rules 1 and 3 of Algorithm 1), or
* ``"conditional"`` — the most probable value given another attribute of the
  same tuple (``argmax_v P[A = v | B = t[B]]``, rules 2 and 4).

:func:`paper_algorithm_1` builds the exact four rules of the paper for the
La Liga schema; :func:`default_rules_for` derives a sensible rule for an
arbitrary FD-style constraint so the algorithm works on any dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.incremental import RepairWalk, find_violations_auto
from repro.dataset.table import CellRef, Table
from repro.engine.encoding import NULL_CODE
from repro.engine.storage import is_null
from repro.errors import RepairError
from repro.observability import trace as otrace
from repro.repair.base import (
    RepairAlgorithm,
    _engine_choice,
    _step_budget,
    _walk_repair_pair,
    _walk_repair_table,
)

MOST_COMMON = "most_common"
CONDITIONAL = "conditional"
_STRATEGIES = (MOST_COMMON, CONDITIONAL)


@dataclass(frozen=True)
class RepairRule:
    """How to fix a tuple that violates one constraint.

    Parameters
    ----------
    target:
        The attribute whose value is modified.
    strategy:
        ``"most_common"`` or ``"conditional"``.
    given:
        The conditioning attribute (required when ``strategy="conditional"``).
    """

    target: str
    strategy: str = MOST_COMMON
    given: str | None = None

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise RepairError(
                f"unknown repair strategy {self.strategy!r}; expected one of {_STRATEGIES}"
            )
        if self.strategy == CONDITIONAL and not self.given:
            raise RepairError("a conditional repair rule needs a 'given' attribute")

    def replacement_value(self, table: Table, row: int):
        """The replacement value for ``row``'s target attribute, or ``None`` to skip.

        Values are computed from the statistics of the *current* table
        snapshot, exactly as Algorithm 1 prescribes (``argmax_c P[...]``);
        ``None`` is returned when the statistics are insufficient (e.g. the
        conditioning value never co-occurs with a non-null target), in which
        case the tuple is left untouched.
        """
        if self.strategy == MOST_COMMON:
            return table.stats.most_common(self.target)
        given_value = table.value(row, self.given)
        if is_null(given_value):
            return None
        return table.stats.most_probable_given(self.target, self.given, given_value)

    def replacement_code(self, table: Table, given_code: int = NULL_CODE) -> int:
        """:meth:`replacement_value` in code space: the replacement's code
        for a row whose conditioning code is ``given_code`` (unused by
        ``most_common``), or :data:`~repro.engine.encoding.NULL_CODE` to skip."""
        if self.strategy == MOST_COMMON:
            return table.stats.marginal(self.target).mode_code()
        if not given_code:
            return NULL_CODE
        return table.stats.cooccurrence.pair(self.given, self.target).winner(given_code)


def default_rules_for(constraint: DenialConstraint) -> RepairRule | None:
    """Derive a repair rule from the shape of an FD-style denial constraint.

    For a constraint with predicates ``t1.X == t2.X ∧ ... ∧ t1.A != t2.A`` the
    rule modifies ``A``.  If the constraint has exactly one equality attribute
    the replacement is conditioned on it (``argmax P[A | X]``); otherwise the
    modal value of ``A`` is used.  Constraints without an inequality between
    the two tuples (e.g. purely order-based ones) get no rule and are ignored
    by :class:`SimpleRuleRepair`.
    """
    inequality_attributes = constraint.inequality_attributes()
    if not inequality_attributes:
        return None
    target = inequality_attributes[0]
    equality_attributes = [a for a in constraint.equality_attributes() if a != target]
    if len(equality_attributes) == 1:
        return RepairRule(target=target, strategy=CONDITIONAL, given=equality_attributes[0])
    return RepairRule(target=target, strategy=MOST_COMMON)


class SimpleRuleRepair(RepairAlgorithm):
    """The paper's Algorithm 1, generalised to arbitrary rule tables.

    Parameters
    ----------
    rules:
        Mapping from constraint name to :class:`RepairRule`.  Constraints
        without an entry fall back to :func:`default_rules_for` when
        ``derive_missing`` is true, otherwise they are ignored.
    derive_missing:
        Whether to derive rules for constraints not listed in ``rules``.
    max_iterations:
        Fixpoint bound: the rule passes repeat until no cell changes or this
        many passes have run.
    engine:
        ``"fast"`` (default) maintains violations *across* the fixpoint
        passes with a :class:`~repro.constraints.incremental.RepairWalk`
        (view→view deltas: each pass retracts and re-checks only the cells
        the previous pass wrote, and runs as one set operation); a plain
        input table is repaired on a zero-delta view.  ``"reference"`` runs
        the paper's per-row loop over a full rescan per pass, and makes the
        oracle stack above it materialise every instance.  Results are
        identical either way.
    """

    name = "simple-rules"

    def __init__(
        self,
        rules: Mapping[str, RepairRule] | None = None,
        derive_missing: bool = True,
        max_iterations: int = 10,
        engine: str = "fast",
    ):
        self.rules = dict(rules or {})
        self.derive_missing = derive_missing
        self.max_iterations = _step_budget("max_iterations", max_iterations)
        self.engine = _engine_choice(engine)
        self._derived_rules: dict[DenialConstraint, RepairRule | None] = {}

    def _rule_for(self, constraint: DenialConstraint) -> RepairRule | None:
        if constraint.name in self.rules:
            return self.rules[constraint.name]
        if self.derive_missing:
            # rule derivation is pure shape analysis; cache it per constraint
            # (the Shapley loop re-runs the repair thousands of times)
            if constraint not in self._derived_rules:
                self._derived_rules[constraint] = default_rules_for(constraint)
            return self._derived_rules[constraint]
        return None

    def repair_table(self, constraints: Sequence[DenialConstraint], table: Table) -> Table:
        return _walk_repair_table(self, constraints, table)

    def repair_pair(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_table: Table,
        differing_cells: Sequence[CellRef] = (),
    ) -> tuple[Table, Table]:
        """Repair the with/without pair of an oracle query in one shared walk
        (primed once, forked at the differing cells); outputs are identical
        to two independent :meth:`repair_table` calls."""
        return _walk_repair_pair(self, constraints, with_table, without_table,
                                 differing_cells)

    def repair_pair_group(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1): pairs are evaluated one at a time
        through :meth:`repair_pair`."""
        raise NotImplementedError("repair_pair_group is retired")

    def _repair_loop(self, constraints: list[DenialConstraint], current: Table,
                     walk: RepairWalk | None) -> Table:
        tracer = otrace.current()
        if tracer is None:
            return self._repair_passes(constraints, current, walk)
        with tracer.span("repair_pass", algorithm=self.name):
            return self._repair_passes(constraints, current, walk)

    def _repair_passes(self, constraints: list[DenialConstraint], current: Table,
                       walk: RepairWalk | None) -> Table:
        """The fixpoint: one rule pass per constraint, repeated until nothing changes.

        A pass collects the constraint's violating rows first, so a repair
        applied to one tuple does not hide the violations of tuples found
        later in the same pass.  Without a walk (the ``"reference"`` engine)
        the pass is the paper's per-row loop: detect by rescan,
        then per violating row compute the replacement and write it.

        On the walk path each pass is one set operation (:meth:`_pass_writes`
        + one :meth:`~repro.dataset.table.Table.set_values` batch), which is
        exact.  Within one constraint's pass the rule writes only its target
        column ``T``; it reads each row's conditioning value ``G`` (``G != T``,
        so the writes cannot change it) and ``T``'s statistics.  Writing the
        replacement ``w`` over ``old`` moves counts only toward ``w``:

        * ``most_common``: ``count(w)`` rises by one and ``count(old)`` falls
          by one, so ``w`` stays the strict mode;
        * ``conditional``: the pair counts of ``g_r`` gain ``w`` and lose
          ``old``, so ``w`` stays the argmax for ``g_r``; the counts of every
          other conditioning value do not move.

        So every replacement computed at the start of the pass equals the
        one the per-row loop computes after the earlier rows' writes, and
        writes to distinct rows commute.  A rule with ``given == target``
        never writes (the argmax of ``T`` given ``T = t`` is ``t``).

        The pass runs in code space: it reads the view's code arrays
        (:meth:`~repro.engine.view.OverlayStore.codes`), takes the winners
        from the argmaxes of the target's statistics, and writes one batch
        whose codes the store encodes once and hands on to the statistics.
        A batch of several rows drops the pair distributions over the
        column it wrote, so the next pass that reads one recounts it from
        the code arrays with all its argmaxes at once; a one-row batch
        moves them in place.
        """
        if walk is None:
            return self._reference_passes(constraints, current)
        for _ in range(self.max_iterations):
            changed = False
            for constraint in constraints:
                rule = self._rule_for(constraint)
                if rule is None or rule.target not in current.schema:
                    continue
                # the walk's array-built row list: no Violation or CellRef
                # objects are materialised
                rows = walk.violating_rows_for(constraint)
                if not rows:
                    continue
                write_rows, write_values = self._pass_writes(rule, current, rows)
                if write_rows:
                    current.set_values(rule.target, write_rows, write_values)
                    changed = True
            if not changed:
                break
        return current

    @staticmethod
    def _pass_writes(rule: RepairRule, current: Table,
                     rows: list[int]) -> tuple[list[int], list[Any]]:
        """The ``(rows, values)`` one rule pass writes, from the pre-pass state.

        One gather per column reads the rows' target (and conditioning)
        codes; :meth:`RepairRule.replacement_code` is asked once per
        distinct conditioning code (once for ``most_common``).  A row is
        written when its code differs from a non-null replacement's, i.e.
        when its value ``!=`` the replacement.
        """
        stats = current.stats
        target = rule.target
        index = np.asarray(rows)
        if rule.strategy == MOST_COMMON:
            winner = rule.replacement_code(current)
            if not winner:
                return [], []
            write_rows = index[stats.codes(target)[index] != winner].tolist()
            return write_rows, [stats.most_common(target)] * len(write_rows)
        # building the distribution first turns a column the encoding cannot
        # code into the statistics' SchemaError
        pair = stats.cooccurrence.pair(rule.given, target)
        givens = stats.codes(rule.given)[index]
        winner_of = np.zeros(int(givens.max()) + 1, dtype=np.int64)
        for given in dict.fromkeys(givens.tolist()):
            winner_of[given] = rule.replacement_code(current, given)
        winners = winner_of[givens]
        write = (winners != NULL_CODE) & (winners != stats.codes(target)[index])
        return index[write].tolist(), pair.target.decode_list(winners[write].tolist())

    def _reference_passes(self, constraints: list[DenialConstraint],
                          current: Table) -> Table:
        """The per-row loop of Algorithm 1 over full-rescan detection."""
        for _ in range(self.max_iterations):
            changed = False
            for constraint in constraints:
                rule = self._rule_for(constraint)
                if rule is None or rule.target not in current.schema:
                    continue
                violations = find_violations_auto(current, constraint)
                for row in sorted({row for v in violations for row in v.rows}):
                    replacement = rule.replacement_value(current, row)
                    if replacement is None:
                        continue
                    if current.value(row, rule.target) != replacement:
                        current.set_value(row, rule.target, replacement)
                        changed = True
            if not changed:
                break
        return current


def paper_algorithm_1(max_iterations: int = 10, engine: str = "fast") -> SimpleRuleRepair:
    """Algorithm 1 exactly as printed in the paper, for the La Liga schema.

    * C1 violation → ``City`` := most common city,
    * C2 violation → ``Country`` := most probable country given the city,
    * C3 violation → ``Country`` := most common country,
    * C4 violation → ``Place`` := most probable place given the team.
    """
    rules = {
        "C1": RepairRule(target="City", strategy=MOST_COMMON),
        "C2": RepairRule(target="Country", strategy=CONDITIONAL, given="City"),
        "C3": RepairRule(target="Country", strategy=MOST_COMMON),
        "C4": RepairRule(target="Place", strategy=CONDITIONAL, given="Team"),
    }
    algorithm = SimpleRuleRepair(rules=rules, derive_missing=True,
                                 max_iterations=max_iterations, engine=engine)
    algorithm.name = "algorithm-1"
    return algorithm
