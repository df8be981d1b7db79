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

from repro.constraints.dc import DenialConstraint
from repro.constraints.incremental import RepairWalk, find_violations_auto, repair_walk_for
from repro.dataset.table import CellRef, PerturbationView, Table
from repro.engine.storage import is_null
from repro.errors import RepairError
from repro.observability import trace as otrace
from repro.repair.base import (
    RepairAlgorithm,
    _padded_differing_lists,
    _step_budget,
    _walk_repair_table,
)

MOST_COMMON = "most_common"
CONDITIONAL = "conditional"
_STRATEGIES = (MOST_COMMON, CONDITIONAL)
_MISSING = object()


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
    second_order:
        Maintain violations *across* the fixpoint passes with a
        :class:`~repro.constraints.incremental.RepairWalk` (view→view deltas:
        each pass retracts and re-checks only the cells the previous pass
        wrote); a plain input table is repaired on a zero-delta view.
        ``False`` restores the first-order behaviour of re-deriving every pass
        from the base snapshot — on a plain table, the full-rescan reference.
        Results are identical either way.
    """

    name = "simple-rules"

    def __init__(
        self,
        rules: Mapping[str, RepairRule] | None = None,
        derive_missing: bool = True,
        max_iterations: int = 10,
        second_order: bool = True,
    ):
        self.rules = dict(rules or {})
        self.derive_missing = derive_missing
        self.max_iterations = _step_budget("max_iterations", max_iterations)
        self.second_order = bool(second_order)
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
        """Repair the with/without pair of an oracle query in one shared walk.

        The first instance's detection state is primed once (base→view) and
        forked at the differing cells for the second instance, so the second
        repair starts from an already-derived view state instead of from the
        base snapshot.  Outputs are identical to two independent
        :meth:`repair_table` calls.
        """
        clean_with, clean_withouts = self.repair_pair_group(
            constraints, with_table, [without_table], [differing_cells]
        )
        return clean_with, clean_withouts[0]

    def repair_pair_group(
        self,
        constraints: Sequence[DenialConstraint],
        with_table: Table,
        without_tables: Sequence[Table],
        differing_cells_lists: Sequence[Sequence[CellRef]] = (),
    ) -> tuple[Table, list[Table]]:
        """Repair one with-instance against several without-instances.

        The batch scheduler's grouped entry point: the shared with-instance's
        detection state is primed exactly once and forked per
        without-instance (all forks happen before any repair loop writes, as
        :meth:`~repro.constraints.incremental.RepairWalk.fork_onto` requires).
        When a shared statistics engine travels with the instances the
        per-pair statistics fork is skipped — the engine moves its one
        instance along the repairs transparently.
        """
        constraints = list(constraints)
        differing_cells_lists = _padded_differing_lists(
            differing_cells_lists, len(without_tables)
        )
        if not (self.second_order and isinstance(with_table, PerturbationView)):
            return (
                self.repair_table(constraints, with_table),
                [self.repair_table(constraints, without_table)
                 for without_table in without_tables],
            )
        with_work = with_table.mutable_snapshot(name=f"{with_table.name}_repaired")
        walk_with = repair_walk_for(with_work, constraints)
        walk_with.prime()
        self.shared_pair_walks += len(without_tables)
        without_works: list[Table] = []
        walks: list[RepairWalk] = []
        for without_table, differing_cells in zip(without_tables, differing_cells_lists):
            without_work = without_table.mutable_snapshot(
                name=f"{without_table.name}_repaired"
            )
            walk_without = walk_with.fork_onto(without_work, differing_cells)
            # The fork must happen now, before the with-instance's repair loop
            # writes: the two instances differ in one cell here, afterwards
            # they differ by every repair write.  (With a shared statistics
            # engine the fork source is the engine's leased instance — the
            # fork syncs it and produces a plain per-instance copy, so the
            # engine keeps tracking only the with-side chain across samples.)
            active_rules = self._active_pair_rules(constraints, walk_with, walk_without)
            # Statistics deltas are applied cell-by-cell against the second
            # instance's final store, which is only equivalent to sequential
            # application when no two differing cells share a row (the
            # sampling loop's pairs always differ in exactly one cell).
            differing_rows = [cell.row for cell in differing_cells]
            if active_rules and len(set(differing_rows)) == len(differing_rows):
                self._share_pair_statistics(
                    active_rules, with_work, without_work, differing_cells
                )
            without_works.append(without_work)
            walks.append(walk_without)
        return (
            self._repair_loop(constraints, with_work, walk_with),
            [self._repair_loop(constraints, without_work, walk_without)
             for without_work, walk_without in zip(without_works, walks)],
        )

    def _active_pair_rules(self, constraints: list[DenialConstraint],
                           walk_with, walk_without) -> list[RepairRule]:
        """Rules whose constraints have violations in either primed walk.

        Rules only read statistics for violating tuples, so a pair whose
        primed walks show no violations on a rule-bearing constraint never
        builds that rule's statistics — sharing them would only add cost.
        """
        rules = []
        for constraint in constraints:
            rule = self._rule_for(constraint)
            if rule is None or rule.target not in walk_with.view.schema:
                continue
            if walk_with.has_violations(constraint) or walk_without.has_violations(constraint):
                rules.append(rule)
        return rules

    def _share_pair_statistics(self, active_rules: Sequence[RepairRule],
                               with_work: Table, without_work: Table,
                               differing_cells: Sequence[CellRef]) -> None:
        """Fork the first instance's statistics onto the second.

        The rules only ever consult the marginals of their target attributes
        and the ``(given, target)`` pair distributions, so those are warmed on
        the first instance, forked, and moved to the second instance's content
        by applying the differing cells — O(|rules| + |differing|) instead of
        re-scanning columns for the second repair.
        """
        stats = with_work.stats
        for rule in active_rules:
            if rule.strategy == CONDITIONAL:
                stats.cooccurrence.warm(rule.given, rule.target)
            else:
                stats.marginal(rule.target)
        forked = stats.fork(without_work.store)
        for cell in differing_cells:
            forked.apply_cell_update(
                cell.row, cell.attribute,
                with_work.value(cell.row, cell.attribute),
                without_work.value(cell.row, cell.attribute),
            )
        without_work.adopt_statistics(forked)

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
        later in the same pass.  Without a walk (the ``second_order=False``
        reference) the pass is the paper's per-row loop: detect by rescan,
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

        Replacements are memoised across passes per (target, strategy,
        conditioning attribute and value).  The statistics only change
        through this loop's own writes, and a batch written to ``T`` moves
        exactly the marginal/pair counts of entries whose target or
        conditioning attribute is ``T``, so only those entries are dropped,
        once the pass has ended.  An unexpected version jump clears
        everything.
        """
        if walk is None:
            return self._reference_passes(constraints, current)
        memo: dict[tuple, Any] = {}
        memo_version = current.version
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
                if current.version != memo_version:
                    memo.clear()
                write_rows, write_values = self._pass_writes(rule, current, rows, memo)
                if write_rows:
                    target = rule.target
                    current.set_values(target, write_rows, write_values)
                    changed = True
                    for stale in [k for k in memo if k[0] == target or k[2] == target]:
                        del memo[stale]
                memo_version = current.version
            if not changed:
                break
        return current

    @staticmethod
    def _pass_writes(rule: RepairRule, current: Table, rows: list[int],
                     memo: dict[tuple, Any]) -> tuple[list[int], list[Any]]:
        """The ``(rows, values)`` one rule pass writes, from the pre-pass state.

        One gather per column reads the rows' target (and conditioning)
        values; one replacement is computed per distinct conditioning value.
        A row is written when its value ``!=`` its replacement.
        """
        target = rule.target
        current_values = current.column(target)[rows].tolist()
        if rule.strategy == MOST_COMMON:
            key = (target, MOST_COMMON, None, None)
            replacement = memo.get(key, _MISSING)
            if replacement is _MISSING:
                replacement = memo[key] = rule.replacement_value(current, rows[0])
            if replacement is None:
                return [], []
            write_rows = [row for row, value in zip(rows, current_values)
                          if value != replacement]
            return write_rows, [replacement] * len(write_rows)
        given = rule.given
        by_value: dict[Any, Any] = {}
        write_rows: list[int] = []
        write_values: list[Any] = []
        for row, value, given_value in zip(
                rows, current_values, current.column(given)[rows].tolist()):
            try:
                replacement = by_value[given_value]
            except KeyError:
                if is_null(given_value):
                    replacement = None
                else:
                    key = (target, CONDITIONAL, given, given_value)
                    replacement = memo.get(key, _MISSING)
                    if replacement is _MISSING:
                        replacement = memo[key] = rule.replacement_value(current, row)
                by_value[given_value] = replacement
            except TypeError:  # unhashable conditioning value
                replacement = rule.replacement_value(current, row)
            if replacement is not None and value != replacement:
                write_rows.append(row)
                write_values.append(replacement)
        return write_rows, write_values

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


def paper_algorithm_1(max_iterations: int = 10) -> SimpleRuleRepair:
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
    algorithm = SimpleRuleRepair(rules=rules, derive_missing=True, max_iterations=max_iterations)
    algorithm.name = "algorithm-1"
    return algorithm
