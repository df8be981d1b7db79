"""Column and co-occurrence statistics, counted over dictionary codes.

The repair algorithms in the paper are statistics driven:

* Algorithm 1 repairs a violating ``City`` to ``argmax_c P[City = c]`` and a
  violating ``Country`` to ``argmax_c P[Country = c | City = t[City]]``.
* The HoloClean-style repairer scores candidate values by co-occurrence with
  the other cells of the tuple.
* The sampling-based cell-Shapley estimator (Example 2.5) replaces
  out-of-coalition cells with values drawn from the column distribution.

This module provides those three quantities over a :class:`ColumnStore` or an
:class:`~repro.engine.view.OverlayStore`: marginal distributions, conditional
(pairwise) distributions and samplers.  Null cells are excluded from every
count.

Counts live in code space, over the base table's append-only
:class:`~repro.engine.encoding.ColumnDictionary` codes (NULL is code 0 and is
never counted):

* a marginal is an ``int64`` count array indexed by code;
* a pair distribution ``(given, target)`` is a sorted array of packed
  ``given_code << 32 | target_code`` keys with a parallel count array, so its
  memory follows the pairs that occur, never ``n_given × n_target``;
* queries are an argmax, a sort or a cumsum over counts, with ties broken by
  the column's ``repr`` rank (:meth:`ColumnDictionary.repr_ranks`) — the same
  winners, orders, ``count / total`` floats and CDFs as the value-space
  definition (``min``/``sorted`` by ``repr`` over a ``Counter``).

Where counts come from and how they move:

* a base store's structures are built lazily, one at a time, and cached on
  its :class:`~repro.engine.encoding.TableEncoding` next to the code arrays
  they are counted from (a base write drops them and replaces the arrays
  by updated copies);
* a view's marginal is the base's moved by the view's encoded delta
  (:meth:`~repro.engine.view.OverlayStore.encoded_delta_arrays`) with
  ``np.subtract.at``/``np.add.at`` on a copy-on-write array;
* a view's pair distribution is counted from its current code arrays
  (:meth:`~repro.engine.view.OverlayStore.codes`) by one ``np.unique``; a
  view that overrides neither column shares the base's cached one, which
  nothing writes;
* a :meth:`~repro.dataset.table.Table.set_values` batch moves every built
  marginal over the written column once, by the batch's old and new codes
  as the store wrote them (:meth:`TableStatistics.apply_cell_updates`), and
  drops every pair distribution over it, to be recounted on its next read.
  A one-cell write (every greedy step) is a few scalar updates instead: the
  pair's move goes into a child distribution of the built one, reading the
  sibling cell's code from the store's current code array, so nothing on
  the write path encodes a value, and there is no other write path.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.config import make_rng
from repro.engine.encoding import NULL_CODE
from repro.engine.view import OverlayStore
from repro.errors import SchemaError

_UNSET = object()
_SHIFT = 32
_LOW = (1 << _SHIFT) - 1


def _unhashable(attribute: str) -> SchemaError:
    return SchemaError(
        f"cannot count column {attribute!r}: statistics key on cell values, "
        f"and the column holds an unhashable one"
    )


def _base_of(store):
    return store.base if isinstance(store, OverlayStore) else store


def _base_codes(base, attribute: str) -> np.ndarray:
    codes = base.encoding().codes(base, attribute)
    if codes is None:
        raise _unhashable(attribute)
    return codes


def _delta(store, attribute: str):
    """``(rows, codes)`` of the store's overrides of ``attribute``, or ``None``."""
    if not isinstance(store, OverlayStore):
        return None
    arrays = store.encoded_delta_arrays(attribute)
    if arrays is None:
        raise _unhashable(attribute)
    return arrays if len(arrays[0]) else None


def _codes(store, attribute: str) -> np.ndarray:
    """The store's current codes of ``attribute`` (the one accessor a plain
    store and a view share)."""
    codes = store.codes(attribute)
    if codes is None:
        raise _unhashable(attribute)
    return codes


class ColumnStatistics:
    """Marginal value distribution of a single column."""

    __slots__ = ("attribute", "_dictionary", "_counts", "_owned", "_total",
                 "_mode", "_ranking", "_draw")

    def __init__(self, store, attribute: str):
        self.attribute = attribute
        base = _base_of(store)
        encoding = base.encoding()
        self._dictionary = encoding.dictionary(attribute)
        counts = encoding.counts.get(attribute)
        if counts is None:
            counts = np.bincount(_base_codes(base, attribute),
                                 minlength=len(self._dictionary) + 1)
            counts[NULL_CODE] = 0
            counts.flags.writeable = False
            encoding.counts[attribute] = counts
        self._counts = counts
        self._owned = False  # copy-on-write: the array may be the base's
        self._total = int(counts.sum())
        self._reset()
        delta = _delta(store, attribute)
        if delta is None:
            return
        # the last derivation is reused by a sibling view sharing the delta
        # arrays (a coalition's with- and without-instance differ in one cell)
        last = encoding.counts.get(("view", attribute))
        if last is not None and last[0] is delta:
            self._counts, self._total = last[1], last[2]
            return
        rows, codes = delta
        self._move(_base_codes(base, attribute)[rows], codes)
        self._owned = False
        encoding.counts[("view", attribute)] = (delta, self._counts, self._total)

    def _reset(self) -> None:
        self._mode = _UNSET
        self._ranking = None
        self._draw = None

    # -- moves -------------------------------------------------------------------

    def _writable(self, top: int) -> np.ndarray:
        """The count array, owned and long enough to index code ``top``."""
        counts = self._counts
        if top >= len(counts):
            grown = np.zeros(len(self._dictionary) + 1, dtype=np.int64)
            grown[: len(counts)] = counts
            counts = grown
        elif not self._owned:
            counts = counts.copy()
        self._counts = counts
        self._owned = True
        return counts

    def _move(self, old_codes: np.ndarray, new_codes: np.ndarray) -> None:
        """Uncount the ``old_codes`` cells and count the ``new_codes`` cells."""
        counts = self._writable(int(new_codes.max()) if len(new_codes) else 0)
        np.subtract.at(counts, old_codes, 1)
        np.add.at(counts, new_codes, 1)
        counts[NULL_CODE] = 0
        self._total += int(np.count_nonzero(new_codes)) - int(np.count_nonzero(old_codes))
        self._reset()

    def _move_codes(self, olds: Sequence[int], news: Sequence[int]) -> None:
        if len(olds) != 1:
            self._move(np.asarray(olds), np.asarray(news))
            return
        old, new = olds[0], news[0]  # a one-cell write: two scalar updates
        if old == new:
            return
        counts = self._writable(new)
        if old:
            counts[old] -= 1
            self._total -= 1
        if new:
            counts[new] += 1
            self._total += 1
        self._reset()

    # -- queries -----------------------------------------------------------------

    @property
    def total(self) -> int:
        return self._total

    def count(self, value: Any) -> int:
        code = self._dictionary.lookup(value)
        counts = self._counts
        return int(counts[code]) if code < len(counts) else 0

    def frequency(self, value: Any) -> float:
        """P[A = value] over non-null cells (0.0 on an all-null column)."""
        if self._total == 0:
            return 0.0
        return self.count(value) / self._total

    def _present(self) -> np.ndarray:
        """Codes with a positive count, ascending."""
        return np.flatnonzero(self._counts)

    def mode_code(self) -> int:
        """The code of :meth:`most_common` (:data:`NULL_CODE` on an all-null
        column), memoised until the next move."""
        if self._mode is _UNSET:
            counts = self._counts
            if self._total == 0:
                self._mode = NULL_CODE
            else:
                best = np.flatnonzero(counts == counts.max())
                if len(best) > 1:
                    best = best[np.argmin(self._dictionary.repr_ranks()[best])]
                else:
                    best = best[0]
                self._mode = int(best)
        return self._mode

    def most_common(self, default: Any = None) -> Any:
        """The modal value, ties broken deterministically by ``repr`` order."""
        code = self.mode_code()
        return self._dictionary.decode(code) if code else default

    def ranking(self) -> tuple[Any, ...]:
        """Distinct non-null values by descending count, ties by ``repr``.

        Memoised until the next move like :meth:`most_common`: greedy repair
        slices its candidate pool off this ranking for every top-degree cell
        of every step, while the column moves far less often.
        """
        if self._ranking is None:
            codes = self._present()
            order = np.lexsort((self._dictionary.repr_ranks()[codes],
                                -self._counts[codes]))
            self._ranking = tuple(self._dictionary.decode_list(codes[order].tolist()))
        return self._ranking

    def domain(self) -> list[Any]:
        """Distinct non-null values, deterministically ordered (by ``repr``)."""
        return list(self._distribution()[0])

    def _distribution(self) -> tuple[list[Any], np.ndarray, np.ndarray]:
        """The ``repr``-sorted domain, its codes and its CDF, memoised until
        the next move.

        The CDF is computed exactly as ``Generator.choice(k, p=w)`` computes
        it from ``w`` = counts ÷ their sum: ``cumsum``, then divided by its
        last element.
        """
        if self._draw is None:
            codes = self._present()
            codes = codes[np.argsort(self._dictionary.repr_ranks()[codes], kind="stable")]
            cdf = self._counts[codes].astype(float)
            if len(codes):
                cdf /= cdf.sum()
                cdf = cdf.cumsum()
                cdf /= cdf[-1]
            self._draw = (self._dictionary.decode_list(codes.tolist()), codes, cdf)
        return self._draw

    def sample_codes(self, uniforms: np.ndarray) -> np.ndarray:
        """The codes of :meth:`sample` ``(uniforms=...)``'s draws
        (:data:`NULL_CODE` per draw on an all-null column)."""
        _, codes, cdf = self._distribution()
        if not len(codes):
            return np.zeros(len(uniforms), dtype=np.int64)
        return codes[cdf.searchsorted(uniforms, side="right")]

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

        Values are ordered by ``repr`` (like :meth:`domain` and the
        :meth:`most_common` tie-break), never by code, so two statistics
        describing the same contents — one built from scratch, one moved by
        deltas and writes — map an RNG draw to the same value.  The live
        session's "update + explain ≡ fresh session" invariant needs exactly
        that.
        """
        values, _, cdf = self._distribution()
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

    def entropy(self) -> float:
        """Shannon entropy of the column distribution (bits)."""
        if self._total == 0:
            return 0.0
        probabilities = np.array(
            [count / self._total for count in self._counts[self._present()].tolist()],
            dtype=float,
        )
        return float(-(probabilities * np.log2(probabilities)).sum())

    def items(self) -> list[tuple[Any, int]]:
        """``(value, count)`` of every value with a positive count."""
        codes = self._present()
        return list(zip(self._dictionary.decode_list(codes.tolist()),
                        self._counts[codes].tolist()))


class _PairCounts:
    """One ``(given, target)`` distribution over packed code keys.

    A *built* distribution is counted once from a store's current code
    arrays (:func:`_pair_counts`): ascending packed keys and their counts.
    Its arrays and its per-given rows, row totals and argmaxes (filled on
    first read) are never written afterwards, so one built distribution is
    shared by the base store's statistics and every view that overrides
    neither of its columns.  A one-cell write moves a child made by
    :meth:`derive` instead: the built distribution plus a per-given
    ``{target: change}`` table.  A given the child never moved is answered
    by its base; a moved given's row is the base row plus its changes,
    updated in place by every further one-cell move, its argmax recomputed
    on read.
    """

    __slots__ = ("given", "target", "keys", "counts", "_base", "_changes",
                 "_rows", "_totals", "_winners", "_filled")

    def __init__(self, given, target, keys: np.ndarray, counts: np.ndarray,
                 base: "_PairCounts | None" = None):
        self.given = given      # the two columns' dictionaries
        self.target = target
        self.keys = keys
        self.counts = counts
        self._base = base
        #: moved counts: given -> target -> change against ``base``
        self._changes: dict[int, dict[int, int]] = {}
        self._rows: dict[int, dict[int, int]] = {}
        self._totals: dict[int, int] = {}
        self._winners: dict[int, int] = {}
        self._filled = False

    def derive(self) -> "_PairCounts":
        """A movable distribution starting from this built one."""
        return _PairCounts(self.given, self.target, self.keys, self.counts, self)

    # -- moves -------------------------------------------------------------------

    def move1(self, old_given: int, old_target: int,
              new_given: int, new_target: int) -> None:
        """One cell's move (a derived distribution only)."""
        if old_given and old_target:
            self._move_pair(old_given, old_target, -1)
        if new_given and new_target:
            self._move_pair(new_given, new_target, 1)

    def _move_pair(self, given: int, target: int, change: int) -> None:
        changes = self._changes.get(given)
        if changes is None:
            changes = self._changes[given] = {}
            self._rows.pop(given, None)  # was the base's row
        changes[target] = changes.get(target, 0) + change
        row = self._rows.get(given)
        if row is not None:
            count = row.get(target, 0) + change
            if count:
                row[target] = count
            else:
                del row[target]
        total = self._totals.get(given)
        if total is not None:
            self._totals[given] = total + change
        self._winners.pop(given, None)

    # -- queries -----------------------------------------------------------------

    def row(self, given: int) -> dict[int, int]:
        """``{target code: count}`` of one given code (cached)."""
        row = self._rows.get(given)
        if row is None:
            base = self._base
            if base is not None:
                row = base.row(given)
                changes = self._changes.get(given)
                if changes is None:
                    # the base's, shared (a move of ``given`` drops it first)
                    self._rows[given] = row
                    return row
                row = dict(row)
                for target, change in changes.items():
                    count = row.get(target, 0) + change
                    if count:
                        row[target] = count
                    else:
                        row.pop(target, None)
            else:
                keys = self.keys
                low, high = keys.searchsorted(
                    (given << _SHIFT, (given + 1) << _SHIFT)).tolist()
                row = dict(zip((keys[low:high] & _LOW).tolist(),
                               self.counts[low:high].tolist()))
            self._rows[given] = row
        return row

    def total(self, given: int) -> int:
        """The sum of :meth:`row` ``(given)``'s counts (cached; a built
        distribution's is shared with the children that never moved
        ``given``)."""
        total = self._totals.get(given)
        if total is None:
            base = self._base
            if base is not None and given not in self._changes:
                total = base.total(given)
            else:
                total = sum(self.row(given).values())
            self._totals[given] = total
        return total

    def winner(self, given: int) -> int:
        """The most frequent target code under ``given`` (ties by ``repr``),
        or :data:`NULL_CODE` when ``given`` co-occurs with no target."""
        winner = self._winners.get(given)
        if winner is None:
            base = self._base
            if base is None:
                if not self._filled:
                    self._fill()
                return self._winners.get(given, NULL_CODE)
            if given not in self._changes:
                return base.winner(given)
            row = self.row(given)
            ranks = self.target.repr_ranks()
            winner = min(row, key=lambda code: (-row[code], ranks[code])) if row \
                else NULL_CODE
            self._winners[given] = winner
        return winner

    def _fill(self) -> None:
        """A base's argmax for every given at once: one ``lexsort`` by
        (given, count descending, target ``repr`` rank), first per given."""
        keys = self.keys
        givens = keys >> _SHIFT
        targets = keys & _LOW
        order = np.lexsort((self.target.repr_ranks()[targets], -self.counts, givens))
        givens = givens[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = givens[1:] != givens[:-1]
        self._winners = dict(zip(givens[first].tolist(), targets[order][first].tolist()))
        self._filled = True

    def items(self) -> dict[tuple[int, int], int]:
        """``{(given code, target code): count}`` of every co-occurring pair."""
        base = self._base if self._base is not None else self
        counts = dict(zip(base.keys.tolist(), base.counts.tolist()))
        for given, changes in self._changes.items():
            for target, change in changes.items():
                key = given << _SHIFT | target
                counts[key] = counts.get(key, 0) + change
        return {(key >> _SHIFT, key & _LOW): count for key, count in counts.items() if count}


def _pair_counts(store, given: str, target: str) -> _PairCounts:
    """The ``(given, target)`` distribution of ``store``'s current contents,
    counted from its code arrays by one ``np.unique`` over the packed keys
    of the rows where both codes are non-null.

    A base store's is cached on its encoding (a base write drops it), and a
    view that overrides neither column (its code arrays are the base's)
    shares that cached one.
    """
    base = _base_of(store)
    encoding = base.encoding()
    given_codes = _codes(store, given)
    target_codes = _codes(store, target)
    shared = given_codes is _base_codes(base, given) \
        and target_codes is _base_codes(base, target)
    if shared:
        cached = encoding.counts.get((given, target))
        if cached is not None:
            return cached
    valid = (given_codes != NULL_CODE) & (target_codes != NULL_CODE)
    keys, counts = np.unique(
        (given_codes[valid].astype(np.int64) << _SHIFT) | target_codes[valid],
        return_counts=True)
    keys.flags.writeable = counts.flags.writeable = False
    pair = _PairCounts(encoding.dictionary(given), encoding.dictionary(target),
                       keys, counts)
    if shared:
        encoding.counts[(given, target)] = pair
    return pair


class CooccurrenceStatistics:
    """Pairwise conditional distributions ``P[B = b | A = a]``.

    Built lazily per attribute pair, because the repair algorithms only ever
    condition on a handful of pairs (e.g. Country given City).
    """

    def __init__(self, store):
        self._store = store
        self._pairs: dict[tuple[str, str], _PairCounts] = {}
        #: attribute -> the ``(given, target)`` keys of the held pairs over it
        self._touching: dict[str, list[tuple[str, str]]] = {}

    def pair(self, given: str, target: str) -> _PairCounts:
        """The ``(given, target)`` distribution in code space (counted on
        first use; raises :class:`~repro.errors.SchemaError` over a column
        the encoding cannot code)."""
        key = (given, target)
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = _pair_counts(self._store, given, target)
            for attribute in {given, target}:
                self._touching.setdefault(attribute, []).append(key)
        return pair

    def _drop(self, attribute: str) -> None:
        """Forget every pair over ``attribute``; its next read recounts it."""
        touching = self._touching
        for key in touching.pop(attribute, ()):
            del self._pairs[key]
            for side in key:
                if side != attribute:
                    keys = touching[side]
                    keys.remove(key)
                    if not keys:
                        del touching[side]

    def _row(self, given: str, target: str, given_value: Any):
        pair = self.pair(given, target)
        code = pair.given.lookup(given_value)
        return pair, (pair.row(code) if code else {})

    def conditional_probability(
        self, target: str, target_value: Any, given: str, given_value: Any
    ) -> float:
        """Return ``P[target = target_value | given = given_value]``."""
        return self.conditional_probability_many(target, (target_value,), given,
                                                 given_value)[0]

    def conditional_probability_many(
        self, target: str, target_values: Sequence[Any], given: str, given_value: Any
    ) -> list[float]:
        """``[conditional_probability(target, v, given, given_value) for v in
        target_values]`` with the given value's row and its total fetched once.

        Greedy candidate scoring conditions every candidate of one cell on the
        same sibling value; each element is the ``count / total`` division of
        two Python ints, so scores are bit-identical to the value-space
        definition.  The total is the row's cached :meth:`_PairCounts.total`.
        """
        pair = self.pair(given, target)
        code = pair.given.lookup(given_value)
        total = pair.total(code) if code else 0
        if not total:
            return [0.0] * len(target_values)
        row = pair.row(code)
        lookup = pair.target.lookup
        return [row.get(lookup(value), 0) / total for value in target_values]

    def most_probable(
        self, target: str, given: str, given_value: Any, default: Any = None
    ) -> Any:
        """``argmax_v P[target = v | given = given_value]``.

        Falls back to ``default`` when the conditioning value never co-occurs
        with a non-null target (e.g. the city is itself an unseen typo).
        Ties are broken deterministically by string order.
        """
        pair = self.pair(given, target)
        code = pair.given.lookup(given_value)
        winner = pair.winner(code) if code else NULL_CODE
        return pair.target.decode(winner) if winner else default

    def cooccurrence_count(
        self, attr_a: str, value_a: Any, attr_b: str, value_b: Any
    ) -> int:
        """Number of rows where both cells carry the given values."""
        pair, row = self._row(attr_a, attr_b, value_a)
        return row.get(pair.target.lookup(value_b), 0)

    def counts(self, given: str, target: str) -> dict[tuple[Any, Any], int]:
        """``{(given value, target value): count}`` of every co-occurring pair."""
        pair = self.pair(given, target)
        return {(pair.given.decode(given_code), pair.target.decode(target_code)): count
                for (given_code, target_code), count in pair.items().items()}

    def warm(self, given: str, target: str) -> None:
        """Build the ``(given, target)`` pair distribution now."""
        self.pair(given, target)

    # -- delta maintenance -----------------------------------------------------

    def _move_cells(self, attribute: str, rows: Sequence[int],
                    old_codes: Sequence[int], new_codes: Sequence[int]) -> None:
        """Follow a write batch of ``attribute`` (already in the store).

        A batch of several rows drops every pair over ``attribute``.  A
        one-cell write moves each of them by one scalar update, reading the
        sibling cell's code from the store; a built pair (which may be
        shared) is first replaced by its child (:meth:`_PairCounts.derive`).
        """
        touching = self._touching.get(attribute)
        if not touching:
            return
        if len(rows) != 1:
            self._drop(attribute)
            return
        row, old, new = rows[0], old_codes[0], new_codes[0]
        pairs = self._pairs
        for key in touching:
            pair = pairs[key]
            if pair._base is None:
                pair = pairs[key] = pair.derive()
            given, target = key
            if given != attribute:
                sibling = _codes(self._store, given).item(row)
                pair.move1(sibling, old, sibling, new)
            elif target != attribute:
                sibling = _codes(self._store, target).item(row)
                pair.move1(old, sibling, new, sibling)
            else:
                pair.move1(old, old, new, new)


class TableStatistics:
    """Bundle of marginal + pairwise statistics for one table snapshot.

    Statistics are delta-maintained: when the owning table writes cells it
    calls :meth:`apply_cell_updates` (one batch per write call) instead of
    throwing the bundle away, so repair loops that interleave statistics
    lookups with cell writes (the Algorithm-1 fixpoint, the greedy repairer)
    pay one move per built marginal over the written column per batch, and
    recount only the pair distributions over it that they read again.
    """

    def __init__(self, store):
        self._store = store
        self._marginals: dict[str, ColumnStatistics] = {}
        self.cooccurrence = CooccurrenceStatistics(store)

    def apply_cell_updates(self, attribute: str, rows: Sequence[int],
                           old_codes: Sequence[int] | None,
                           new_codes: Sequence[int] | None) -> None:
        """Follow one write batch of ``attribute``: move its built marginal
        and move or drop the pairs over it
        (:meth:`CooccurrenceStatistics._move_cells`).

        ``rows[i]`` changed from code ``old_codes[i]`` to ``new_codes[i]`` (the
        codes :meth:`~repro.engine.view.OverlayStore.set_values` returns;
        ``None``: the batch could not be coded, which raises
        :class:`~repro.errors.SchemaError` when a built structure reads the
        column).  Must be called after the store is written: sibling cells'
        codes are read from it.
        """
        marginal = self._marginals.get(attribute)
        if old_codes is None and (marginal is not None
                                  or attribute in self.cooccurrence._touching):
            raise _unhashable(attribute)
        if marginal is not None:
            marginal._move_codes(old_codes, new_codes)
        self.cooccurrence._move_cells(attribute, rows, old_codes, new_codes)

    def codes(self, attribute: str) -> np.ndarray:
        """The described contents' current codes of ``attribute`` (read-only;
        raises :class:`~repro.errors.SchemaError` when the column cannot be
        coded)."""
        return _codes(self._store, attribute)

    def marginal(self, attribute: str) -> ColumnStatistics:
        marginal = self._marginals.get(attribute)
        if marginal is None:
            marginal = self._marginals[attribute] = ColumnStatistics(self._store, attribute)
        return marginal

    def most_common(self, attribute: str, default: Any = None) -> Any:
        return self.marginal(attribute).most_common(default)

    def most_probable_given(
        self, target: str, given: str, given_value: Any, default: Any = None
    ) -> Any:
        return self.cooccurrence.most_probable(target, given, given_value, default)

    def apply_delta(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1): statistics move by
        :meth:`apply_cell_updates` only."""
        raise NotImplementedError("TableStatistics.apply_delta is retired")

    def revert_delta(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("TableStatistics.revert_delta is retired")

    def apply_cell_update(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1): :meth:`apply_cell_updates` takes
        one-cell batches."""
        raise NotImplementedError("TableStatistics.apply_cell_update is retired")


class _LeasedTableStatistics:
    """Retired (ROADMAP item 1): a view's statistics are a plain TableStatistics."""

    def apply_cell_update(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("_LeasedTableStatistics is retired")


class SharedStatistics:
    """Retired (ROADMAP item 1): a view's statistics are a plain TableStatistics."""

    def lease(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("SharedStatistics is retired")

    def release(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("SharedStatistics is retired")

    def begin_base_update(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("SharedStatistics is retired")

    def complete_base_update(self, *args, **kwargs):
        """Retired stub (ROADMAP item 1)."""
        raise NotImplementedError("SharedStatistics is retired")
