"""Denial constraints (DCs) and violation detection.

A denial constraint over a pair of tuples has the form

    ∀ t1, t2 . ¬( p_1 ∧ p_2 ∧ ... ∧ p_k )

where each predicate ``p_i`` compares an attribute of ``t1``/``t2`` with an
attribute of the other tuple or with a constant using one of
``=, ≠, <, ≤, >, ≥``.  This subpackage provides the constraint language
(S3 in DESIGN.md), the violation detection engine (S4), functional
dependencies as syntactic sugar, and a small discovery module (S5).

Violation detection comes in two flavours:

* the **full-rescan reference path** (:mod:`~repro.constraints.violations`) —
  :func:`find_violations` / :func:`find_all_violations` rebuild indexes and
  scan every candidate pair from scratch; and
* the **incremental path** (:mod:`~repro.constraints.incremental`) — an
  :class:`IncrementalViolationDetector` per base snapshot that, given a
  sparse :class:`~repro.dataset.table.PerturbationView` delta, retracts the
  violations involving touched rows and re-checks only those rows against
  delta-maintained equality indexes.  :func:`find_all_violations_auto`
  dispatches between the two.  A repair algorithm built with
  ``engine="fast"`` (the default) runs the Shapley/repair hot loop almost
  entirely on the incremental path; ``engine="reference"`` runs it on the
  full rescan, and the test-suite checks the two agree.
"""

from repro.constraints.predicates import Operator, Predicate
from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import parse_dc, parse_dcs, format_dc
from repro.constraints.violations import (
    Violation,
    ViolationSet,
    find_violations,
    find_all_violations,
    violating_rows,
    cells_in_violations,
)
from repro.constraints.incremental import (
    IncrementalViolationDetector,
    RepairWalk,
    detector_for,
    repair_walk_for,
    find_violations_auto,
    find_all_violations_auto,
)
from repro.constraints.fd import FunctionalDependency, ConditionalFunctionalDependency
from repro.constraints.discovery import discover_fds, discover_dcs

__all__ = [
    "Operator",
    "Predicate",
    "DenialConstraint",
    "parse_dc",
    "parse_dcs",
    "format_dc",
    "Violation",
    "ViolationSet",
    "find_violations",
    "find_all_violations",
    "violating_rows",
    "cells_in_violations",
    "IncrementalViolationDetector",
    "RepairWalk",
    "detector_for",
    "repair_walk_for",
    "find_violations_auto",
    "find_all_violations_auto",
    "FunctionalDependency",
    "ConditionalFunctionalDependency",
    "discover_fds",
    "discover_dcs",
]
