"""Textual explanation reports.

The original system presents its results in a web GUI (Figure 3): the repair
screen highlights repaired cells, the explanation screen colours constraints
and cells green with darker shades for higher Shapley values.  This module is
the library equivalent: plain-text and Markdown renderings with a
shade-bucket column standing in for the colour intensity.
"""

from __future__ import annotations

from typing import Iterable

from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import format_dc
from repro.dataset.table import CellRef, Table
from repro.explain.explainer import Explanation
from repro.explain.ranking import Ranking, normalised_scores

#: Shade buckets mimicking the GUI's "darker green = more influential".
_SHADES = ("none", "light", "medium", "dark")


def _shade(normalised: float) -> str:
    if normalised <= 1e-12:
        return _SHADES[0]
    if normalised < 0.33:
        return _SHADES[1]
    if normalised < 0.66:
        return _SHADES[2]
    return _SHADES[3]


def render_table_with_highlights(table: Table, highlight: Iterable[CellRef],
                                 title: str = "") -> str:
    """Render a table with the given cells highlighted (``*value*``)."""
    header = f"{title}\n" if title else ""
    return header + table.to_text(highlight=highlight)


class ExplanationReport:
    """Render an :class:`~repro.explain.explainer.Explanation` as text/Markdown."""

    def __init__(self, explanation: Explanation, constraints: list[DenialConstraint] | None = None,
                 dirty_table: Table | None = None):
        self.explanation = explanation
        self.constraints = {c.name: c for c in (constraints or [])}
        self.dirty_table = dirty_table

    # -- constraint section ---------------------------------------------------------

    def _constraint_lines(self) -> list[str]:
        ranking = self.explanation.constraint_ranking
        if ranking is None:
            return []
        shades = normalised_scores(ranking.scores())
        lines = ["Constraint contributions (highest first):"]
        for entry in ranking:
            constraint = self.constraints.get(entry.item)
            rendered = format_dc(constraint, unicode_symbols=True) if constraint else ""
            lines.append(
                f"  {entry.rank}. {entry.item}: shapley={entry.score:.4f} "
                f"[{_shade(shades[entry.item])}]"
                + (f"  {rendered}" if rendered else "")
            )
        return lines

    # -- cell section ----------------------------------------------------------------

    def _cell_lines(self, top_k: int | None = 10) -> list[str]:
        ranking = self.explanation.cell_ranking
        if ranking is None:
            return []
        shades = normalised_scores(ranking.scores())
        entries = list(ranking)[: top_k if top_k is not None else len(ranking)]
        lines = [f"Cell contributions (top {len(entries)} of {len(ranking)}):"]
        for entry in entries:
            value_text = ""
            if self.dirty_table is not None:
                value_text = f" value={self.dirty_table[entry.item]!r}"
            lines.append(
                f"  {entry.rank}. {entry.item}: shapley={entry.score:.4f} "
                f"[{_shade(shades[entry.item])}]{value_text}"
            )
        return lines

    # -- oracle statistics section ----------------------------------------------------

    @staticmethod
    def _format_counters(counters: dict) -> str:
        """One compact ``key=value`` line from an oracle counter dict.

        Zero-valued batch/engine counters are dropped so runs that never
        queue pairs (the reference engine) stay short.  Nested
        telemetry groups (the ``encoding`` dict) are skipped here — they get
        a dedicated line from :meth:`_format_group`.
        """
        always = ("oracle_calls", "repair_runs", "cache_hits", "cache_misses")
        parts = [f"{key}={value}" for key, value in counters.items()
                 if not isinstance(value, dict) and (key in always or value)]
        return " ".join(parts)

    @staticmethod
    def _format_group(counters: dict) -> str:
        """One nested telemetry group (e.g. ``encoding``) on a compact line.

        Leaf dicts — the per-column ``dictionary_sizes`` — render inline as
        ``name:size`` pairs so the CLI report shows the whole code layer at a
        glance.
        """
        parts = []
        for key, value in counters.items():
            if isinstance(value, dict):
                inner = ",".join(f"{name}:{size}" for name, size in value.items())
                parts.append(f"{key}=[{inner}]")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)

    def _statistics_lines(self) -> list[str]:
        """Render the oracle's counters (cache, pair walks, pair queue).

        Surfacing ``BinaryRepairOracle.statistics()`` here makes perf
        regressions (cache thrash, vanished batching, silent pair fallbacks,
        vectorised checks falling back to the object path) visible in every
        CLI explain run without firing up the benchmark.
        """
        statistics = self.explanation.oracle_statistics
        if not statistics:
            return []
        lines = ["Oracle statistics:"]
        # explain() nests one counter dict per scope ("constraints"/"cells");
        # single-scope explanations carry a flat dict (plus nested telemetry
        # groups like "encoding", which are dicts but not scopes)
        scoped = all(isinstance(value, dict) for value in statistics.values())
        scopes = statistics.items() if scoped else [("", statistics)]
        for scope, counters in scopes:
            prefix = f"{scope:11s}: " if scope else ""
            lines.append(f"  {prefix}{self._format_counters(counters)}")
            for group, values in counters.items():
                if isinstance(values, dict):
                    label = f"{scope}.{group}" if scope else group
                    lines.append(f"    {label}: {self._format_group(values)}")
        return lines

    # -- full report -------------------------------------------------------------------

    def _incomplete_line(self) -> str | None:
        """A warning line when the cell sampling hit its deadline budget.

        ``ShapleyResult.completed`` is ``False`` only when a
        ``deadline_seconds`` budget expired mid-plan; the ranking below is
        then built from the merged *partial* estimates and must be read as
        a preview, not the converged explanation.
        """
        result = self.explanation.cell_shapley
        if result is None or result.completed:
            return None
        return (f"INCOMPLETE: deadline expired after {result.n_samples} "
                f"cell sample(s); cell values are partial estimates")

    def to_text(self, top_k_cells: int | None = 10) -> str:
        explanation = self.explanation
        lines = [
            "T-REx explanation",
            "=================",
            f"Cell of interest : {explanation.cell}",
            f"Repair           : {explanation.old_value!r} -> {explanation.new_value!r}",
        ]
        incomplete = self._incomplete_line()
        if incomplete:
            lines.append(f"!! {incomplete}")
        lines.extend(self._statistics_lines())
        constraint_lines = self._constraint_lines()
        if constraint_lines:
            lines.append("")
            lines.extend(constraint_lines)
        cell_lines = self._cell_lines(top_k=top_k_cells)
        if cell_lines:
            lines.append("")
            lines.extend(cell_lines)
        return "\n".join(lines)

    def to_markdown(self, top_k_cells: int | None = 10) -> str:
        explanation = self.explanation
        lines = [
            f"## T-REx explanation for `{explanation.cell}`",
            "",
            f"Repair: `{explanation.old_value!r}` → `{explanation.new_value!r}`",
            "",
        ]
        incomplete = self._incomplete_line()
        if incomplete:
            lines.append(f"> **{incomplete}**")
            lines.append("")
        statistics_lines = self._statistics_lines()
        if statistics_lines:
            lines.append("```")
            lines.extend(statistics_lines)
            lines.append("```")
            lines.append("")
        constraint_ranking = explanation.constraint_ranking
        if constraint_ranking is not None:
            shades = normalised_scores(constraint_ranking.scores())
            lines += ["| rank | constraint | Shapley | shade |", "| --- | --- | --- | --- |"]
            for entry in constraint_ranking:
                lines.append(
                    f"| {entry.rank} | {entry.item} | {entry.score:.4f} | {_shade(shades[entry.item])} |"
                )
            lines.append("")
        cell_ranking = explanation.cell_ranking
        if cell_ranking is not None:
            shades = normalised_scores(cell_ranking.scores())
            entries = list(cell_ranking)[: top_k_cells if top_k_cells is not None else len(cell_ranking)]
            lines += ["| rank | cell | Shapley | shade |", "| --- | --- | --- | --- |"]
            for entry in entries:
                lines.append(
                    f"| {entry.rank} | {entry.item} | {entry.score:.4f} | {_shade(shades[entry.item])} |"
                )
            lines.append("")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()


def repair_summary(dirty: Table, clean: Table) -> str:
    """A textual version of the repair screen (Figure 3b)."""
    delta = dirty.diff(clean)
    lines = [
        "Repair summary",
        "--------------",
        f"{len(delta)} cell(s) repaired.",
    ]
    for change in delta:
        lines.append(f"  {change}")
    lines.append("")
    lines.append(render_table_with_highlights(clean, delta.cells(), title="Repaired table:"))
    return "\n".join(lines)
