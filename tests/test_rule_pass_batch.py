"""The set-at-a-time rule pass of Algorithm 1 against the per-row reference.

``SimpleRuleRepair`` runs each constraint's rule pass on the walk path as one
set operation: replacements are computed once per distinct conditioning
value from the pre-pass statistics and the writes land in one
``Table.set_values`` batch.  The ``engine="reference"`` path keeps the
paper's per-row loop.  These tests check that the two agree on the repaired
table, that the batch-maintained statistics equal a from-scratch build, and
that the batch pass computes each replacement once.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constraints.incremental import RepairWalk
from repro.constraints.parser import parse_dcs
from repro.dataset.errors import inject_errors
from repro.dataset.generators import HospitalGenerator
from repro.dataset.table import CellRef, Table
from repro.engine.stats import TableStatistics
from repro.engine.storage import values_differ
from repro.repair.simple import CONDITIONAL, MOST_COMMON, RepairRule, SimpleRuleRepair

ATTRIBUTES = ("A", "B", "C", "D")
NAN = float("nan")
#: small domains so that FD violations, ties and repeated conditioning
#: values are common; None and NaN are the two null spellings
VALUES = ("x", "y", "z", None, NAN)

CONSTRAINTS = parse_dcs([
    "not(t1.A == t2.A and t1.B != t2.B)",
    "not(t1.B == t2.B and t1.C != t2.C)",
    "not(t1.C == t2.C and t1.D != t2.D)",
    "not(t1.D == t2.D and t1.A != t2.A)",
])
NAMES = [constraint.name for constraint in CONSTRAINTS]

#: the rule-table shapes the batch pass must get right, one per constraint:
#: two rules with target B (conditional and modal), a rule conditioning on
#: another rule's target (C given B), and a rule with given == target
FIXED_RULES = {
    NAMES[0]: RepairRule("B", CONDITIONAL, "A"),
    NAMES[1]: RepairRule("B", MOST_COMMON),
    NAMES[2]: RepairRule("C", CONDITIONAL, "B"),
    NAMES[3]: RepairRule("D", CONDITIONAL, "D"),
}


@st.composite
def rule_tables(draw):
    """One rule per constraint: any target, either strategy, any given."""
    rules = {}
    for name in NAMES:
        target = draw(st.sampled_from(ATTRIBUTES))
        if draw(st.booleans()):
            rules[name] = RepairRule(target, MOST_COMMON)
        else:
            rules[name] = RepairRule(target, CONDITIONAL, draw(st.sampled_from(ATTRIBUTES)))
    return rules


@st.composite
def tables_and_perturbations(draw):
    n_rows = draw(st.integers(min_value=2, max_value=12))
    cells = st.sampled_from(VALUES)
    rows = [[draw(cells) for _ in ATTRIBUTES] for _ in range(n_rows)]
    perturbation = draw(st.dictionaries(
        st.tuples(st.integers(0, n_rows - 1), st.sampled_from(ATTRIBUTES)),
        cells, max_size=n_rows))
    return rows, perturbation


class _Recording(SimpleRuleRepair):
    """Keeps the working table of every rule loop it runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.worked_on: list[Table] = []

    def _repair_passes(self, constraints, current, walk):
        self.worked_on.append(current)
        return super()._repair_passes(constraints, current, walk)


def _same_contents(left: Table, right: Table) -> bool:
    return all(
        not values_differ(left.value(row, attribute), right.value(row, attribute))
        for row in range(left.n_rows) for attribute in ATTRIBUTES
    )


def _assert_counts_from_scratch(stats: TableStatistics, store) -> None:
    """Every built marginal and pair table equals a fresh build over ``store``."""
    fresh = TableStatistics(store)
    for attribute, marginal in stats._marginals.items():
        expected = fresh.marginal(attribute)
        assert dict(marginal.items()) == dict(expected.items()), attribute
        assert marginal.total == expected.total, attribute
    for given_attr, target in stats.cooccurrence._pairs:
        assert stats.cooccurrence.counts(given_attr, target) == \
            fresh.cooccurrence.counts(given_attr, target), (given_attr, target)


def _check_batch_against_reference(rows, perturbation, rules, kind) -> None:
    table = Table(list(ATTRIBUTES), rows, name="T")
    sibling = None
    if kind == "plain":
        instance = table
    else:
        instance = table.perturbed(
            {CellRef(row, attribute): value
             for (row, attribute), value in perturbation.items()})
        if kind == "shared":
            # the input view builds every structure first, so the repair's
            # working snapshot of it reuses the derived marginals
            # copy-on-write and, over columns no view overrides, the pair
            # distributions the base caches; its batches and one-cell
            # writes must leave the input's alone
            sibling = instance
            for given_attr in ATTRIBUTES:
                sibling.stats.marginal(given_attr)
                for target in ATTRIBUTES:
                    if target != given_attr:
                        sibling.stats.cooccurrence.warm(given_attr, target)
    batched = _Recording(rules=rules, derive_missing=False, max_iterations=4)
    repaired = batched.repair_table(CONSTRAINTS, instance)
    (current,) = batched.worked_on
    # the statistics the batches maintained, before anything else moves them
    if current._stats is not None:
        _assert_counts_from_scratch(current._stats, current.store)
    if sibling is not None:
        _assert_counts_from_scratch(sibling.stats, sibling.store)

    reference = SimpleRuleRepair(rules=rules, derive_missing=False, max_iterations=4,
                                 engine="reference")
    expected = reference.repair_table(CONSTRAINTS, instance)
    assert _same_contents(repaired, expected)
    assert _same_contents(current, expected)


@pytest.mark.parametrize("kind", ["plain", "view", "shared"])
@settings(max_examples=60, deadline=None)
@given(data=tables_and_perturbations(), rules=rule_tables())
@example(
    data=([["a", "x", "p", "q"], ["a", "y", "p", "q"], ["a", "y", None, "r"],
           ["b", NAN, "p", "r"], [None, "x", "s", "q"]], {}),
    rules=FIXED_RULES,
)
def test_batched_pass_matches_per_row_reference(kind, data, rules):
    rows, perturbation = data
    _check_batch_against_reference(rows, perturbation, rules, kind)


@pytest.mark.parametrize("kind", ["plain", "view", "shared"])
@settings(max_examples=60, deadline=None)
@given(data=tables_and_perturbations())
def test_fixed_rule_shapes_match_per_row_reference(kind, data):
    rows, perturbation = data
    _check_batch_against_reference(rows, perturbation, FIXED_RULES, kind)


def test_set_values_equals_sequential_set_value():
    """One batch (with a repeated row) leaves what the single writes leave."""
    table = Table(list(ATTRIBUTES), [["x", "y", "z", None], ["y", "y", NAN, "x"],
                                     ["z", "x", "x", "x"]])
    writes = [(0, "y"), (2, None), (0, "z"), (1, "x")]
    for make in (lambda t: t.copy(), lambda t: t.perturbed({CellRef(1, "B"): "z"})):
        batched, single = make(table), make(table)
        for instance in (batched, single):
            instance.stats.marginal("B")
            instance.stats.cooccurrence.warm("A", "B")
            instance.stats.cooccurrence.warm("B", "C")
            instance.stats.cooccurrence.warm("B", "B")
        version = batched.version
        batched.set_values("B", [row for row, _ in writes], [value for _, value in writes])
        for row, value in writes:
            single.set_value(row, "B", value)
        assert batched.version == version + len(writes) == single.version
        assert _same_contents(batched, single)
        assert batched.fingerprint() == single.fingerprint()
        for instance in (batched, single):
            _assert_counts_from_scratch(instance.stats, instance.store)
        if hasattr(batched, "change_log"):
            assert batched.change_log == single.change_log


def test_marginal_batch_drops_emptied_values():
    table = Table(["A"], [["x"], ["x"], ["y"], [None]])
    marginal = table.stats.marginal("A")
    table.set_values("A", [0, 1, 3], ["y", "y", NAN])
    assert dict(marginal.items()) == {"y": 3}
    assert marginal.total == 3
    assert marginal.most_common() == "y"


# -- work guard ------------------------------------------------------------------


def test_walk_pass_computes_each_replacement_once(monkeypatch):
    """No (pass, rule, conditioning value) asks for its replacement twice.

    A heavily perturbed 300-row hospital view keeps many violating rows per
    conditioning value, so a loop that recomputes a replacement after each
    write asks for the same one many times per pass.
    """
    generated = HospitalGenerator(seed=3).generate(300)
    dirty, _ = inject_errors(generated.table, rate=0.02, seed=5)
    constraints = generated.constraints()
    rng = np.random.default_rng(11)
    perturbation = {}
    for attribute in dirty.attributes:
        column = dirty.column(attribute)
        for row in rng.choice(dirty.n_rows, size=dirty.n_rows // 3, replace=False):
            perturbation[CellRef(int(row), attribute)] = column[rng.integers(dirty.n_rows)]
    view = dirty.perturbed(perturbation)

    passes = [0]
    calls: Counter = Counter()
    original_rows_for = RepairWalk.violating_rows_for
    original_replacement = RepairRule.replacement_code

    def counting_rows_for(self, constraint):
        passes[0] += 1
        return original_rows_for(self, constraint)

    def counting_replacement(self, table, given_code=0):
        # the walk's pass asks in code space, by the conditioning code
        calls[(passes[0], self, given_code)] += 1
        return original_replacement(self, table, given_code)

    monkeypatch.setattr(RepairWalk, "violating_rows_for", counting_rows_for)
    monkeypatch.setattr(RepairRule, "replacement_code", counting_replacement)
    repaired = SimpleRuleRepair().repair_table(constraints, view)

    assert sum(calls.values()) > 20  # the guard has work to guard
    repeated = {key: n for key, n in calls.items() if n > 1}
    assert not repeated, f"{len(repeated)} replacements recomputed within a pass"
    reference = SimpleRuleRepair(engine="reference").repair_table(constraints, view)
    assert not repaired.diff(reference)
