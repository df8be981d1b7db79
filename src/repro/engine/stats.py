"""Column and co-occurrence statistics.

The repair algorithms in the paper are statistics driven:

* Algorithm 1 repairs a violating ``City`` to ``argmax_c P[City = c]`` and a
  violating ``Country`` to ``argmax_c P[Country = c | City = t[City]]``.
* The HoloClean-style repairer scores candidate values by co-occurrence with
  the other cells of the tuple.
* The sampling-based cell-Shapley estimator (Example 2.5) replaces
  out-of-coalition cells with values drawn from the column distribution.

This module provides those three quantities over a :class:`ColumnStore`:
marginal distributions, conditional (pairwise) distributions and samplers.
Null cells are excluded from every count.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.config import make_rng
from repro.engine.storage import ColumnStore, is_null, null_mask, values_differ


_UNSET = object()
_NO_WINNER = object()  # memoised "no co-occurrence evidence" marker


class ColumnStatistics:
    """Marginal value distribution of a single column."""

    __slots__ = ("attribute", "_counts", "_total", "_most_common", "_draw",
                 "_ranking")

    def __init__(self, store: ColumnStore, attribute: str):
        self.attribute = attribute
        column = store.column(attribute)
        try:
            # one C-level null scan + Counter build instead of a per-cell loop;
            # Counter(iterable) keys in first-seen order, exactly like the loop
            counts = Counter(column[~null_mask(column)].tolist())
        except TypeError:  # exotic values where elementwise == misbehaves
            counts = Counter()
            for value in column:
                if not is_null(value):
                    counts[value] += 1
        self._counts = counts
        self._total = sum(counts.values())
        self._most_common = _UNSET
        self._draw = None
        self._ranking = None

    @property
    def total(self) -> int:
        return self._total

    def count(self, value: Any) -> int:
        return self._counts.get(value, 0)

    def frequency(self, value: Any) -> float:
        """P[A = value] over non-null cells (0.0 on an all-null column)."""
        if self._total == 0:
            return 0.0
        return self._counts.get(value, 0) / self._total

    def most_common(self, default: Any = None) -> Any:
        """The modal value, ties broken deterministically by string order.

        Memoised until the next :meth:`apply_update` — repair rules ask for
        the mode once per violating tuple.
        """
        if not self._counts:
            return default
        if self._most_common is _UNSET:
            best_count = max(self._counts.values())
            self._most_common = min(
                (value for value, count in self._counts.items() if count == best_count),
                key=repr,
            )
        return self._most_common

    def ranking(self) -> tuple[Any, ...]:
        """Distinct non-null values by descending count, ties by ``repr``.

        Memoised until the next move like :meth:`most_common`: greedy repair
        slices its candidate pool off this ranking for every top-degree cell
        of every step, while the column moves far less often.
        """
        if self._ranking is None:
            counts = self._counts
            self._ranking = tuple(
                sorted(counts, key=lambda value: (-counts[value], repr(value)))
            )
        return self._ranking

    def domain(self) -> list[Any]:
        """Distinct non-null values, deterministically ordered (by ``repr``)."""
        return list(self._distribution()[0])

    def _distribution(self) -> tuple[list[Any], np.ndarray]:
        """The ``repr``-sorted domain and its CDF, memoised until the next move.

        The CDF is computed exactly as ``Generator.choice(k, p=w)`` computes
        it from ``w`` = counts ÷ their sum: ``cumsum``, then divided by its
        last element.
        """
        if self._draw is None:
            values = sorted(self._counts, key=repr)
            cdf = np.array([self._counts[value] for value in values], dtype=float)
            if values:
                cdf /= cdf.sum()
                cdf = cdf.cumsum()
                cdf /= cdf[-1]
            self._draw = (values, cdf)
        return self._draw

    def sample(self, rng=None, size: int | None = None, *, uniforms=None):
        """Draw value(s) from the empirical column distribution.

        This is exactly the replacement distribution of Example 2.5: "values
        of cells that are not part of the coalition will be replaced with a
        sample value from their column distribution".

        Each draw maps one ``rng.random()`` double through the memoised CDF
        (:meth:`_distribution`) with ``searchsorted(side="right")`` — the
        very stream ``rng.choice(k, p=w)`` consumes and returns, one double
        per draw.  ``uniforms`` passes pre-drawn doubles instead (one value
        per double, returned as a list; ``rng`` and ``size`` are ignored), so
        a caller can draw a whole coalition's replacements with one
        ``rng.random(n)`` and map each column's slice in one call.  An
        all-null column draws nothing and yields ``None`` per draw.

        Values are ordered deterministically (by ``repr``, like
        :meth:`domain` and :meth:`most_common` tie-breaks) rather than by
        counter insertion order, so two statistics describing the same
        contents — one built from scratch, one delta-maintained through
        :meth:`apply_update` — map an RNG draw to the same value.  The live
        session's "update + explain ≡ fresh session" invariant needs exactly
        that.
        """
        values, cdf = self._distribution()
        if uniforms is not None:
            if not values:
                return [None] * len(uniforms)
            return [values[i] for i in cdf.searchsorted(uniforms, side="right").tolist()]
        if not values:
            return None if size is None else [None] * size
        rng = make_rng(rng)
        if size is None:
            return values[int(cdf.searchsorted(rng.random(), side="right"))]
        picks = cdf.searchsorted(rng.random(size), side="right")
        return [values[i] for i in picks.tolist()]

    def apply_update(self, old_value: Any, new_value: Any) -> None:
        """Delta-maintain the counts for one cell changing ``old -> new``."""
        self.apply_updates((old_value,), (new_value,))

    def apply_updates(self, old_values: Sequence[Any],
                      new_values: Sequence[Any]) -> None:
        """Delta-maintain the counts for many cells changing ``old -> new``.

        Counts are order-insensitive, so the batch is one C-level
        ``Counter`` update for the new values, then one decrement per old
        value.  Zero-count entries are removed so :meth:`domain`,
        :meth:`items` and :meth:`most_common` see exactly what a
        from-scratch rebuild would.
        """
        counts = self._counts
        added = [value for value in new_values if not is_null(value)]
        counts.update(added)
        total = self._total + len(added)
        for value in old_values:
            if is_null(value):
                continue
            count = counts.get(value, 0)
            if count:
                total -= 1
                if count == 1:
                    del counts[value]
                else:
                    counts[value] = count - 1
        self._total = total
        self._most_common = _UNSET
        self._draw = None
        self._ranking = None

    def apply_delta(self, updates: Iterable[tuple[Any, Any]]) -> None:
        """Apply many ``(old, new)`` cell updates at once.

        The pairwise form of :meth:`apply_updates`, mirroring
        :meth:`~repro.engine.index.MultiColumnIndex.apply_delta`: the shared
        statistics engine moves one instance onto a perturbed overlay by its
        sparse delta instead of rebuilding the counts per instance.
        """
        updates = list(updates)
        if updates:
            self.apply_updates([old for old, _ in updates], [new for _, new in updates])

    def revert_delta(self, updates: Iterable[tuple[Any, Any]]) -> None:
        """Undo a previous :meth:`apply_delta` with the same ``updates``."""
        self.apply_delta((new, old) for old, new in updates)

    def fork(self) -> "ColumnStatistics":
        """An independent copy (counts and memo included).

        Forked statistics diverge from the original through
        :meth:`apply_update` — the paired oracle forks the first instance's
        statistics onto the second instead of re-scanning its columns.
        """
        clone = ColumnStatistics.__new__(ColumnStatistics)
        clone.attribute = self.attribute
        clone._counts = Counter(self._counts)
        clone._total = self._total
        clone._most_common = self._most_common
        clone._draw = self._draw  # never mutated in place
        clone._ranking = self._ranking  # a tuple, never mutated
        return clone

    def entropy(self) -> float:
        """Shannon entropy of the column distribution (bits)."""
        if self._total == 0:
            return 0.0
        probabilities = np.array(
            [count / self._total for count in self._counts.values()], dtype=float
        )
        return float(-(probabilities * np.log2(probabilities)).sum())

    def items(self) -> Iterable[tuple[Any, int]]:
        return self._counts.items()


class CooccurrenceStatistics:
    """Pairwise conditional distributions ``P[B = b | A = a]``.

    Built lazily per attribute pair and cached, because the repair algorithms
    only ever condition on a handful of pairs (e.g. Country given City).
    """

    def __init__(self, store: ColumnStore):
        self._store = store
        self._pair_counts: dict[tuple[str, str], dict[Hashable, Counter]] = {}
        #: memo for most_probable, keyed (given, target, given_value);
        #: selectively invalidated by apply_cell_updates
        self._argmax_memo: dict[tuple, Any] = {}

    def _counts_for(self, given: str, target: str) -> dict[Hashable, Counter]:
        key = (given, target)
        if key not in self._pair_counts:
            counts: dict[Hashable, Counter] = defaultdict(Counter)
            given_column = self._store.column(given)
            target_column = self._store.column(target)
            try:
                # both null masks in one pass each; the compressed zip visits
                # the surviving rows in the same ascending order as the loop
                valid = ~(null_mask(given_column) | null_mask(target_column))
                pairs = zip(given_column[valid].tolist(),
                            target_column[valid].tolist())
            except TypeError:  # exotic values where elementwise == misbehaves
                pairs = ((g, t) for g, t in zip(given_column, target_column)
                         if not is_null(g) and not is_null(t))
            for given_value, target_value in pairs:
                counts[given_value][target_value] += 1
            self._pair_counts[key] = dict(counts)
        return self._pair_counts[key]

    def conditional_probability(
        self, target: str, target_value: Any, given: str, given_value: Any
    ) -> float:
        """Return ``P[target = target_value | given = given_value]``."""
        counts = self._counts_for(given, target).get(given_value)
        if not counts:
            return 0.0
        total = sum(counts.values())
        return counts.get(target_value, 0) / total

    def conditional_probability_many(
        self, target: str, target_values: Sequence[Any], given: str, given_value: Any
    ) -> list[float]:
        """``[conditional_probability(target, v, given, given_value) for v in
        target_values]`` with the counts dict and its total fetched once.

        Greedy candidate scoring conditions every candidate of one cell on the
        same sibling value; each element is the identical
        ``count / total`` division the scalar method performs, so scores are
        bit-identical.
        """
        counts = self._counts_for(given, target).get(given_value)
        if not counts:
            return [0.0] * len(target_values)
        total = sum(counts.values())
        counts_get = counts.get
        return [counts_get(value, 0) / total for value in target_values]

    def most_probable(
        self, target: str, given: str, given_value: Any, default: Any = None
    ) -> Any:
        """``argmax_v P[target = v | given = given_value]``.

        Falls back to ``default`` when the conditioning value never co-occurs
        with a non-null target (e.g. the city is itself an unseen typo).
        Ties are broken deterministically by string order.
        """
        memo_key = (given, target, given_value)
        winner = self._argmax_memo.get(memo_key, _UNSET)
        if winner is _UNSET:
            counts = self._counts_for(given, target).get(given_value)
            if not counts:
                winner = _NO_WINNER
            else:
                best = max(counts.values())
                winner = min(
                    (value for value, count in counts.items() if count == best), key=repr
                )
            self._argmax_memo[memo_key] = winner
        return default if winner is _NO_WINNER else winner

    def cooccurrence_count(
        self, attr_a: str, value_a: Any, attr_b: str, value_b: Any
    ) -> int:
        """Number of rows where both cells carry the given values."""
        counts = self._counts_for(attr_a, attr_b).get(value_a)
        if not counts:
            return 0
        return counts.get(value_b, 0)

    def warm(self, given: str, target: str) -> None:
        """Force the ``(given, target)`` pair distribution to be built now.

        Used before :meth:`fork` so the forked copy carries the pair tables
        the repair rules will need instead of re-scanning per instance.
        """
        self._counts_for(given, target)

    def fork(self, store: ColumnStore) -> "CooccurrenceStatistics":
        """An independent copy reading sibling cells from ``store``.

        Only the pair tables built so far are copied; unbuilt pairs are built
        lazily from ``store`` as usual.
        """
        clone = CooccurrenceStatistics.__new__(CooccurrenceStatistics)
        clone._store = store
        clone._pair_counts = {
            key: {given_value: Counter(counter) for given_value, counter in counts.items()}
            for key, counts in self._pair_counts.items()
        }
        clone._argmax_memo = dict(self._argmax_memo)
        return clone

    # -- delta maintenance -----------------------------------------------------

    @staticmethod
    def _adjust(counts: dict[Hashable, Counter], given_value: Any,
                target_value: Any, delta: int) -> None:
        if is_null(given_value) or is_null(target_value):
            return
        counter = counts.get(given_value)
        if delta > 0:
            if counter is None:
                counter = counts[given_value] = Counter()
            counter[target_value] += delta
            return
        if counter is None:
            return
        counter[target_value] += delta
        if counter[target_value] <= 0:
            del counter[target_value]
        if not counter:
            del counts[given_value]

    def apply_cell_updates(self, attribute: str, rows: Sequence[int],
                           old_values: Sequence[Any],
                           new_values: Sequence[Any]) -> None:
        """Delta-maintain every cached pair distribution touching ``attribute``.

        Must be called *after* the store has been updated: the changed
        cells' old/new values are passed in, all sibling cells are read from
        the (already-current) store.
        """
        for pair, counts in self._pair_counts.items():
            if attribute in pair:
                self._apply_cells_to_pair(pair, counts, attribute, rows,
                                          old_values, new_values)

    def _values_at(self, attribute: str, rows: Sequence[int]) -> list[Any]:
        """``attribute``'s current values at ``rows``.

        A batch is one gather from the store's column (an overlay caches it
        per column); a single write reads its one cell instead of
        materialising a whole overlay column.
        """
        if len(rows) == 1:
            return [self._store.value(rows[0], attribute)]
        return self._store.column(attribute)[list(rows)].tolist()

    def _apply_cells_to_pair(self, pair: tuple[str, str], counts: dict,
                             attribute: str, rows: Sequence[int],
                             old_values: Sequence[Any],
                             new_values: Sequence[Any]) -> None:
        """A batch of writes to one column routed into one cached pair distribution.

        The writes only touch ``attribute``, so the sibling of every written
        cell is fixed and the batch moves the counts by whole ``(given,
        target)`` multisets: one C-level ``Counter`` per side, then one
        adjustment per distinct pair (a single write skips the ``Counter``).
        """
        given, target = pair
        if given != attribute:  # the write moves target values under fixed givens
            old_givens = new_givens = self._values_at(given, rows)
            old_targets, new_targets = old_values, new_values
        else:
            old_givens, new_givens = old_values, new_values
            if target == attribute:
                old_targets, new_targets = old_values, new_values
            else:
                old_targets = new_targets = self._values_at(target, rows)
        adjust = self._adjust
        if len(rows) == 1:
            adjust(counts, new_givens[0], new_targets[0], 1)
            adjust(counts, old_givens[0], old_targets[0], -1)
        else:
            # repeated pairs are counted at C level and adjusted once
            for (given_value, target_value), n in Counter(zip(new_givens, new_targets)).items():
                adjust(counts, given_value, target_value, n)
            for (given_value, target_value), n in Counter(zip(old_givens, old_targets)).items():
                adjust(counts, given_value, target_value, -n)
        memo = self._argmax_memo
        if memo:
            for given_value in old_givens:
                memo.pop((given, target, given_value), None)
            if new_givens is not old_givens:
                for given_value in new_givens:
                    memo.pop((given, target, given_value), None)

    def apply_delta(self, changes: Mapping[tuple[int, str], tuple[Any, Any]],
                    store) -> None:
        """Move the cached pair distributions onto the contents of ``store``.

        ``store`` must differ from the contents the statistics currently
        describe at exactly the cells in ``changes``
        (``{(row, attribute): (old_value, new_value)}``).  Unlike repeated
        :meth:`apply_cell_updates` calls, the move is *row-wise*: when both
        cells of a cached pair change in the same row the old and new pair
        values come straight from ``changes``, so a multi-cell-per-row delta
        (a coalition overlay nulling several cells of one tuple) is applied
        exactly.  Affected argmax memo entries are invalidated; unaffected
        entries stay valid because their underlying counts did not move.

        After the call the statistics read sibling cells (and build new pair
        tables lazily) from ``store``.
        """
        if self._pair_counts and changes:
            by_attr: dict[str, dict[int, tuple[Any, Any]]] = {}
            for (row, attribute), update in changes.items():
                by_attr.setdefault(attribute, {})[row] = update
            self._move_rows(by_attr, store.value)
        self._store = store

    def _move_rows(self, by_attr: Mapping[str, Mapping[int, tuple[Any, Any]]],
                   sibling_of, pairs: Iterable[tuple[str, str]] | None = None) -> None:
        """Row-wise count moves for per-attribute change groups.

        ``sibling_of(row, attribute)`` must read the *new* contents; it is
        only consulted for cells not in ``by_attr`` (whose old and new values
        coincide).  ``pairs`` optionally restricts the move to a subset of the
        cached pair distributions — the shared statistics engine syncs one
        pair at a time, on demand.  Shared with the engine's lease path,
        which supplies a reader over override dicts + base columns instead of
        a store.
        """
        memo = self._argmax_memo
        adjust = self._adjust
        pair_items = (
            self._pair_counts.items() if pairs is None
            else [(pair, self._pair_counts[pair]) for pair in pairs]
        )
        for (given, target), counts in pair_items:
            given_changes = by_attr.get(given)
            target_changes = by_attr.get(target)
            if not given_changes and not target_changes:
                continue
            rows: set[int] = set()
            if given_changes:
                rows.update(given_changes)
            if target_changes:
                rows.update(target_changes)
            for row in rows:
                update = given_changes.get(row) if given_changes else None
                if update is not None:
                    old_given, new_given = update
                else:
                    old_given = new_given = sibling_of(row, given)
                update = target_changes.get(row) if target_changes else None
                if update is not None:
                    old_target, new_target = update
                else:
                    old_target = new_target = sibling_of(row, target)
                adjust(counts, old_given, old_target, -1)
                adjust(counts, new_given, new_target, +1)
                memo.pop((given, target, old_given), None)
                if new_given is not old_given:
                    memo.pop((given, target, new_given), None)

    def revert_delta(self, changes: Mapping[tuple[int, str], tuple[Any, Any]],
                     store) -> None:
        """Undo a previous :meth:`apply_delta`, rebinding back to ``store``.

        ``store`` is the store the statistics described *before* the apply
        (usually the base store).  Also correct for pair tables built while
        the delta was applied: their counts describe the perturbed contents,
        and the inverted updates move them to the base contents exactly.
        """
        self.apply_delta(
            {cell: (new_value, old_value) for cell, (old_value, new_value) in changes.items()},
            store,
        )


class TableStatistics:
    """Bundle of marginal + pairwise statistics for one table snapshot.

    Statistics are delta-maintained: when the owning table writes cells it
    calls :meth:`apply_cell_updates` (one batch per write call) instead of
    throwing the whole bundle away, so repair loops that interleave
    statistics lookups with cell writes (the Algorithm-1 fixpoint, the greedy
    repairer) pay O(pairs cached) per batch plus O(1) per written cell
    instead of an O(rows) rebuild per lookup.
    """

    def __init__(self, store: ColumnStore):
        self._store = store
        self._marginals: dict[str, ColumnStatistics] = {}
        self.cooccurrence = CooccurrenceStatistics(store)

    def apply_cell_update(self, row: int, attribute: str,
                          old_value: Any, new_value: Any) -> None:
        """Delta-maintain all built statistics for one cell changing values."""
        self.apply_cell_updates(attribute, (row,), (old_value,), (new_value,))

    def apply_cell_updates(self, attribute: str, rows: Sequence[int],
                           old_values: Sequence[Any],
                           new_values: Sequence[Any]) -> None:
        """Delta-maintain all built statistics for a batch of writes to one
        column (``rows[i]`` changed ``old_values[i] -> new_values[i]``)."""
        marginal = self._marginals.get(attribute)
        if marginal is not None:
            marginal.apply_updates(old_values, new_values)
        self.cooccurrence.apply_cell_updates(attribute, rows, old_values, new_values)

    def marginal(self, attribute: str) -> ColumnStatistics:
        if attribute not in self._marginals:
            self._marginals[attribute] = ColumnStatistics(self._store, attribute)
        return self._marginals[attribute]

    def fork(self, store: ColumnStore) -> "TableStatistics":
        """An independent copy of everything built so far, bound to ``store``.

        ``store`` must hold the same contents the forked statistics describe;
        divergence is then applied through :meth:`apply_cell_update`.  The
        paired oracle uses this to derive the second instance's statistics
        from the first's (the two differ in one cell) instead of re-scanning
        columns per instance; delta maintenance guarantees the fork equals a
        from-scratch rebuild at every point.
        """
        clone = TableStatistics.__new__(TableStatistics)
        clone._store = store
        clone._marginals = {
            attribute: marginal.fork() for attribute, marginal in self._marginals.items()
        }
        clone.cooccurrence = self.cooccurrence.fork(store)
        return clone

    def apply_delta(self, changes: Mapping[tuple[int, str], tuple[Any, Any]],
                    store) -> None:
        """Move every built statistic onto the contents of ``store``.

        ``changes`` is the sparse cell delta ``{(row, attribute): (old, new)}``
        separating the contents currently described from ``store``'s contents
        — the same shape :meth:`~repro.engine.index.MultiColumnIndex.apply_delta`
        consumes.  Cost is O(|changes| · built structures touching the changed
        attributes) instead of the O(rows) rebuild per structure a fresh
        :class:`TableStatistics` would pay; the result is exactly what a
        from-scratch build over ``store`` would produce (property-tested).
        """
        if changes:
            marginals = self._marginals
            by_attr: dict[str, list[tuple[Any, Any]]] = {}
            for (_row, attribute), update in changes.items():
                if attribute in marginals:
                    by_attr.setdefault(attribute, []).append(update)
            for attribute, updates in by_attr.items():
                marginals[attribute].apply_delta(updates)
        self.cooccurrence.apply_delta(changes, store)
        self._store = store

    def revert_delta(self, changes: Mapping[tuple[int, str], tuple[Any, Any]],
                     store) -> None:
        """Undo a previous :meth:`apply_delta`, rebinding back to ``store``."""
        self.apply_delta(
            {cell: (new_value, old_value) for cell, (old_value, new_value) in changes.items()},
            store,
        )

    def most_common(self, attribute: str, default: Any = None) -> Any:
        return self.marginal(attribute).most_common(default)

    def most_probable_given(
        self, target: str, given: str, given_value: Any, default: Any = None
    ) -> Any:
        return self.cooccurrence.most_probable(target, given, given_value, default)




# -- the shared revertible statistics engine ----------------------------------------


class _LeasedCooccurrenceStatistics(CooccurrenceStatistics):
    """Cooccurrence bundle whose pair tables sync lazily through the engine.

    Every read path funnels through :meth:`_counts_for` (or checks the argmax
    memo first, hence the :meth:`most_probable` override): before serving, the
    requested pair distribution is moved from whatever snapshot it last
    described onto the engine's current owner view.  Pairs the current
    instance never consults are left where they are — that laziness is the
    whole point: a repair pays only for the distributions it actually reads.
    """

    def __init__(self, store, engine: "SharedStatistics"):
        super().__init__(store)
        self._engine = engine
        #: the engine's clean-key set, shared by reference: the O(1) inline
        #: fast path for the per-read sync check on the hottest lookups
        self._clean = engine._clean

    def _counts_for(self, given: str, target: str):
        counts = self._pair_counts.get((given, target))
        if counts is not None and ("p", given, target) in self._clean:
            return counts
        engine = self._engine
        if engine is not None:
            engine._sync_pair(given, target)
        return super()._counts_for(given, target)

    def most_probable(self, target: str, given: str, given_value: Any,
                      default: Any = None) -> Any:
        # the memo consult precedes _counts_for, so sync must happen here too
        if ("p", given, target) not in self._clean:
            engine = self._engine
            if engine is not None:
                engine._sync_pair(given, target)
        return super().most_probable(target, given, given_value, default)

    def fork(self, store) -> CooccurrenceStatistics:
        engine = self._engine
        if engine is not None:
            engine._sync_all()
        return super().fork(store)


class _LeasedTableStatistics(TableStatistics):
    """The engine's single statistics instance.

    Reads route through the engine's per-structure sync; in-place cell writes
    (:meth:`apply_cell_updates`, called by
    :meth:`~repro.dataset.table.Table.set_values` on the owner view) are routed
    to the engine so only structures synced to the owner receive them —
    structures parked on older snapshots pick the writes up from the view
    deltas when they are next consulted.
    """

    def __init__(self, store, engine: "SharedStatistics"):
        self._store = store
        self._marginals = {}
        self.cooccurrence = _LeasedCooccurrenceStatistics(store, engine)
        self._engine = engine
        self._clean = engine._clean  # shared by reference (see cooccurrence)

    def marginal(self, attribute: str) -> ColumnStatistics:
        if ("m", attribute) in self._clean:
            marginal = self._marginals.get(attribute)
            if marginal is not None:
                return marginal
        engine = self._engine
        if engine is not None:
            engine._sync_marginal(attribute)
        return super().marginal(attribute)

    def apply_cell_update(self, row: int, attribute: str,
                          old_value: Any, new_value: Any) -> None:
        self.apply_cell_updates(attribute, (row,), (old_value,), (new_value,))

    def apply_cell_updates(self, attribute: str, rows: Sequence[int],
                           old_values: Sequence[Any],
                           new_values: Sequence[Any]) -> None:
        engine = self._engine
        if engine is None:
            super().apply_cell_updates(attribute, rows, old_values, new_values)
        else:
            engine._note_writes(attribute, rows, old_values, new_values)

    def fork(self, store) -> TableStatistics:
        engine = self._engine
        if engine is not None:
            engine._sync_all()
        return super().fork(store)

    def _detach(self) -> None:
        """Sever the engine link (the engine rebuilt after a base mutation).

        A detached instance keeps serving whatever it currently describes
        with plain per-instance behaviour, so stale holders degrade safely.
        """
        self._engine = None
        self.cooccurrence._engine = None


class SharedStatistics:
    """One revertible :class:`TableStatistics` instance shared by every
    perturbation view over one base table.

    The Shapley sampling loop repairs thousands of perturbed instances of the
    same dirty table, and each repair lazily rebuilds marginal and pair
    distributions from scratch (or forks a sibling's copy).  This engine keeps
    a *single* statistics bundle per explainer and **moves** it between
    instances: :meth:`lease` hands the bundle to a view, and each structure
    (one marginal, one pair distribution) is synced on first read by applying
    the sparse cell diff between the snapshot it last described and the
    owner's contents — built on the
    :meth:`~TableStatistics.apply_delta`/:meth:`~TableStatistics.revert_delta`
    protocol, with per-structure positions so unconsulted structures cost
    nothing.  Repair algorithms see the bundle transparently through
    :meth:`~repro.dataset.table.PerturbationView.stats`; in-place writes keep
    synced structures maintained exactly as a per-instance bundle would be.

    Moves are exact — counts after a sync equal a from-scratch rebuild over
    the new contents (property-tested) — which preserves the engine's
    never-changes-results invariant: the ``engine="reference"`` stack,
    which builds statistics per instance, gives bit-identical results.

    Position bookkeeping records, per structure, the view it describes and
    that view's write-log length.  If a parked view is written afterwards
    (its log grew), the structure can no longer be moved exactly and is
    dropped for a lazy rebuild — the always-correct escape hatch.  The base
    table must not be mutated while the engine is in use; if its mutation
    version moves, the engine rebuilds from scratch, mirroring the
    incremental violation detector.
    """

    __slots__ = ("_base", "_base_store", "_base_version", "_stats", "_owner",
                 "_columns", "_positions", "_clean", "leases", "cells_moved")

    def __init__(self, base_table):
        self._base = base_table
        self._owner = None
        self._stats = None
        #: lifetime count of ownership moves between snapshots
        self.leases = 0
        #: lifetime count of cell updates applied by structure syncs
        self.cells_moved = 0
        self._reset()

    def _reset(self) -> None:
        if self._stats is not None:
            self._stats._detach()
        if self._owner is not None:
            self._owner._stats = None
        self._base_store = self._base.store
        self._base_version = self._base.version
        self._owner = None  # the view the bundle is leased to (None = the base)
        self._columns: dict[str, Any] = {}  # base column arrays, fetched once
        #: per-structure position: ("m", attr) / ("p", given, target) ->
        #: (view-or-None, change-log length at sync time)
        self._positions: dict[tuple, tuple[Any, int]] = {}
        #: structure keys currently synced to the owner at its newest write —
        #: the O(1) fast path for the sync check on every statistics read.
        #: Invariant: a clean key's structure is exactly maintained for the
        #: owner's current contents (writes update it through _note_writes);
        #: its _positions entry is refreshed lazily when ownership moves.
        self._clean: set[tuple] = set()
        self._stats = _LeasedTableStatistics(self._base_store, self)

    def _column(self, attribute: str):
        column = self._columns.get(attribute)
        if column is None:
            column = self._columns[attribute] = self._base_store.column(attribute)
        return column

    # -- ownership ---------------------------------------------------------------

    def lease(self, view) -> TableStatistics:
        """Hand the shared bundle to ``view`` and return it.

        ``view`` must be a :class:`~repro.dataset.table.PerturbationView`
        rooted on this engine's base table.  The lease itself is O(1): no
        counts move until a structure is actually read.  The previous owner's
        cached ``stats`` reference is invalidated so it re-leases on next use.
        """
        if self._base.version != self._base_version:
            self._reset()
        owner = self._owner
        if owner is view:
            return self._stats
        self._park_clean_structures()
        stats = self._stats
        stats._store = view.store
        stats.cooccurrence._store = view.store
        if owner is not None:
            owner._stats = None
        self._owner = view
        self.leases += 1
        return stats

    def release(self) -> None:
        """Re-point the shared bundle at the unperturbed base contents.

        Structures stay parked on their current snapshots and move back
        lazily when next read.
        """
        if self._base.version != self._base_version:
            self._reset()
            return
        owner = self._owner
        if owner is None:
            return
        self._park_clean_structures()
        stats = self._stats
        stats._store = self._base_store
        stats.cooccurrence._store = self._base_store
        owner._stats = None
        self._owner = None
        self.leases += 1

    def _park_clean_structures(self) -> None:
        """Record where the clean structures are being left (pre-move hook).

        Clean structures track the owner implicitly; when ownership moves
        their positions must be pinned to the departing owner's snapshot so
        the next sync can diff from it.
        """
        clean = self._clean
        if not clean:
            return
        owner = self._owner
        position = (owner, self._owner_log_length())
        positions = self._positions
        for key in clean:
            positions[key] = position
        clean.clear()

    # -- per-structure sync --------------------------------------------------------

    def _owner_log_length(self) -> int:
        owner = self._owner
        return len(owner.change_log) if owner is not None else 0

    def _attr_changes(self, attribute: str,
                      old_columns: Mapping[str, Mapping[int, Any]],
                      new_columns: Mapping[str, Mapping[int, Any]]) -> dict | None:
        """Per-row ``(old, new)`` diff of one attribute between two snapshots.

        Both snapshots are given by their normalised per-column override dicts
        over the shared base, so a cell differs exactly when its override
        entries differ; values come from the override dicts or the base
        column array, never via per-cell store accessors.  Returns ``None``
        when the diff is at least as large as a from-scratch column rebuild —
        the caller then drops the structure instead of moving it (moving a
        statistic further than ``n_rows`` cells can never beat rebuilding it
        lazily from the already-materialised overlay column).
        """
        old_overrides = old_columns.get(attribute)
        new_overrides = new_columns.get(attribute)
        if not old_overrides and not new_overrides:
            return {}
        if old_overrides and new_overrides:
            try:
                # normalised dicts: a cell moved exactly when its override
                # entry differs — one C-level symmetric difference
                row_ids = {row for row, _ in
                           old_overrides.items() ^ new_overrides.items()}
            except TypeError:  # unhashable cell values
                row_ids = set(old_overrides)
                row_ids.update(new_overrides)
        elif old_overrides:
            row_ids = set(old_overrides)
        else:
            row_ids = set(new_overrides)
        if not row_ids:
            return {}
        if 2 * len(row_ids) >= self._base_store.n_rows:
            return None  # rebuilding is cheaper than moving this far
        column = self._column(attribute)
        rows: dict[int, tuple[Any, Any]] = {}
        for row in row_ids:
            if old_overrides is not None and row in old_overrides:
                old_value = old_overrides[row]
            else:
                old_value = column[row]
            if new_overrides is not None and row in new_overrides:
                new_value = new_overrides[row]
            else:
                new_value = column[row]
            if values_differ(old_value, new_value):
                rows[row] = (old_value, new_value)
        return rows

    def _source_columns(self, position) -> Mapping[str, Mapping[int, Any]] | None:
        """The override dicts of a structure's recorded position.

        Returns ``None`` when the parked snapshot was written after the
        structure left it (its change log grew) — the exact diff is lost and
        the caller must drop the structure for a lazy rebuild.
        """
        source_view, log_length = position
        if source_view is None:
            return {}
        if len(source_view.change_log) != log_length:
            return None
        return source_view.delta_by_column()

    def _sync_marginal(self, attribute: str) -> None:
        key = ("m", attribute)
        if key in self._clean:
            return
        owner = self._owner
        target_length = self._owner_log_length()
        position = self._positions.get(key)
        self._clean.add(key)
        if position is not None and position[0] is owner and position[1] == target_length:
            return
        marginals = self._stats._marginals
        if attribute not in marginals:
            return  # will be built lazily from the owner's store
        if position is None:
            position = (None, 0)
        old_columns = self._source_columns(position)
        if old_columns is not None:
            new_columns = owner.delta_by_column() if owner is not None else {}
            rows = self._attr_changes(attribute, old_columns, new_columns)
        else:
            rows = None  # parked snapshot moved on: rebuild lazily
        if rows is None:
            del marginals[attribute]
            return
        if rows:
            marginals[attribute].apply_delta(rows.values())
            self.cells_moved += len(rows)

    def _drop_pair(self, pair: tuple[str, str]) -> None:
        cooccurrence = self._stats.cooccurrence
        del cooccurrence._pair_counts[pair]
        memo = cooccurrence._argmax_memo
        given, target = pair
        for key in [k for k in memo if k[0] == given and k[1] == target]:
            del memo[key]

    def _sync_pair(self, given: str, target: str) -> None:
        key = ("p", given, target)
        if key in self._clean:
            return
        owner = self._owner
        target_length = self._owner_log_length()
        position = self._positions.get(key)
        self._clean.add(key)
        if position is not None and position[0] is owner and position[1] == target_length:
            return
        cooccurrence = self._stats.cooccurrence
        pair = (given, target)
        if pair not in cooccurrence._pair_counts:
            return  # will be built lazily from the owner's store
        if position is None:
            position = (None, 0)
        old_columns = self._source_columns(position)
        if old_columns is None:
            self._drop_pair(pair)  # parked snapshot moved on: rebuild lazily
            return
        new_columns = owner.delta_by_column() if owner is not None else {}
        changed: dict[str, dict[int, tuple[Any, Any]]] = {}
        moved = 0
        for attribute in {given, target}:
            rows = self._attr_changes(attribute, old_columns, new_columns)
            if rows is None:
                self._drop_pair(pair)  # further than a rebuild: rebuild lazily
                return
            if rows:
                changed[attribute] = rows
                moved += len(rows)
        if not changed:
            return
        column_of = self._column

        def sibling_of(row, attribute):
            overrides = new_columns.get(attribute)
            if overrides is not None and row in overrides:
                return overrides[row]
            return column_of(attribute)[row]

        cooccurrence._move_rows(changed, sibling_of, pairs=[pair])
        self.cells_moved += moved

    def _sync_all(self) -> None:
        """Bring every built structure onto the owner (pre-fork hook)."""
        for attribute in list(self._stats._marginals):
            self._sync_marginal(attribute)
        for given, target in list(self._stats.cooccurrence._pair_counts):
            self._sync_pair(given, target)

    # -- base-table updates ----------------------------------------------------------

    def begin_base_update(self) -> None:
        """Pre-mutation hook of an in-place base-table write.

        Brings every built structure onto the *pre-update* base contents
        while they are still readable: ownership returns to the base and all
        parked structures are synced (or dropped, the lazy escape hatch).
        If the engine was already stale against the base it resets — the
        post-update version check would have done the same, just later.
        """
        if self._base.version != self._base_version:
            self._reset()
            return
        self.release()
        self._sync_all()

    def complete_base_update(self, changes) -> None:
        """Post-mutation hook: move the bundle onto the new base contents.

        ``changes`` maps each written :class:`CellRef` to its ``(old, new)``
        pair.  :meth:`begin_base_update` left every built structure synced to
        the pre-update base, so one :meth:`TableStatistics.apply_delta` pass
        lands them exactly on the new contents; positions and the clean set
        are rebuilt around the new base version, keeping the engine live
        where the version check alone would force a full reset.
        """
        delta = {(cell.row, cell.attribute): values
                 for cell, values in changes.items()}
        if delta:
            self._stats.apply_delta(delta, self._base_store)
            self.cells_moved += len(delta)
        self._base_version = self._base.version
        # every built structure now describes the base's current contents
        self._positions.clear()
        self._clean.clear()
        for attribute in self._stats._marginals:
            self._clean.add(("m", attribute))
        for pair in self._stats.cooccurrence._pair_counts:
            self._clean.add(("p", *pair))

    # -- write routing -------------------------------------------------------------

    def _note_writes(self, attribute: str, rows: Sequence[int],
                     old_values: Sequence[Any], new_values: Sequence[Any]) -> None:
        """A batch of in-place writes to one column of the owner view.

        Structures synced to the owner receive the batch immediately, in one
        pass over the clean set (their recorded log position advances past
        the writes); parked structures are left alone — the writes are part
        of the owner's delta and reach them through their next sync diff.
        """
        if self._owner is None:
            return  # a write on a detached/stale holder: nothing to maintain
        stats = self._stats
        cooccurrence = stats.cooccurrence
        for key in self._clean:
            if key[0] == "m":
                if key[1] == attribute:
                    marginal = stats._marginals.get(attribute)
                    if marginal is not None:
                        marginal.apply_updates(old_values, new_values)
            elif key[1] == attribute or key[2] == attribute:
                pair = (key[1], key[2])
                counts = cooccurrence._pair_counts.get(pair)
                if counts is not None:
                    cooccurrence._apply_cells_to_pair(
                        pair, counts, attribute, rows, old_values, new_values
                    )

    # -- telemetry -----------------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        """Lease counters for the oracle's perf telemetry."""
        return {"stats_leases": self.leases, "stats_cells_moved": self.cells_moved}
