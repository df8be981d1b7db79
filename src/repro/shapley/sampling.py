"""Cell-coalition sampling (Example 2.5 of the paper).

To estimate the Shapley value of a cell ``t_i[B]`` for the repair of the cell
of interest ``t_d[A]``, the paper adapts the Strumbelj–Kononenko sampling
scheme:

1. vectorise the table into the cell vector
   ``x_T = (t1[A_1], ..., t1[A_m], t2[A_1], ..., t_n[A_m])``;
2. draw a random permutation of the cells; the coalition is the set of cells
   preceding ``t_i[B]`` in that permutation;
3. cells outside the coalition are replaced with a value drawn from their
   column distribution (or nulled / set to the modal value, depending on the
   replacement policy);
4. build two table instances — one keeping the original value of ``t_i[B]``
   and one where that value too is replaced — and add the difference of the
   binary oracle on the two instances to the running estimate;
5. repeat ``m`` times and report the average.

This module owns steps 1–4; :class:`repro.shapley.cells.CellShapleyExplainer`
drives the loop and aggregates estimates for many cells.  On the incremental
path the pair of step 4 is one coalition view plus a one-cell sub-delta, which
is exactly the shape :meth:`repro.repair.base.BinaryRepairOracle.query_pairs`
exploits to evaluate both instances of each pair in one primed repair walk
forked at the differing cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.config import make_rng
from repro.dataset.table import CellRef, PerturbationView, Table
from repro.engine.storage import NULL, values_differ
from repro.errors import TRexError


class ReplacementPolicy(enum.Enum):
    """How out-of-coalition cells are filled before querying the black box.

    ``SAMPLE``
        Draw a replacement from the cell's column distribution — the paper's
        algorithm (Example 2.5).
    ``NULL``
        Null the cell out — the paper's formal definition of the cell
        characteristic function (Section 2.2, ``S ⊆ T^d``).
    ``MODE``
        Use the column's most frequent value — a deterministic baseline used
        by the replacement-policy ablation (E10).
    """

    SAMPLE = "sample"
    NULL = "null"
    MODE = "mode"

    @classmethod
    def from_name(cls, name: "str | ReplacementPolicy") -> "ReplacementPolicy":
        if isinstance(name, ReplacementPolicy):
            return name
        try:
            return cls(name.lower())
        except ValueError as exc:
            valid = ", ".join(policy.value for policy in cls)
            raise TRexError(f"unknown replacement policy {name!r}; expected one of {valid}") from exc


@dataclass
class SampledShapleyEstimate:
    """The Monte-Carlo estimate for one cell.

    With fewer than two samples no spread can be estimated:
    ``standard_error`` is reported as ``0.0`` (never a division-by-near-zero
    ``nan``/``inf`` artifact) and :meth:`confidence_interval` degenerates to
    the point estimate itself.
    """

    cell: CellRef
    value: float
    standard_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2 or self.standard_error != self.standard_error:
            self.standard_error = 0.0

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation interval; degenerate with < 2 samples."""
        if self.n_samples < 2 or not math.isfinite(self.standard_error):
            return (self.value, self.value)
        half_width = z * self.standard_error
        return (self.value - half_width, self.value + half_width)


class CellCoalitionSampler:
    """Builds the perturbed table instances of the sampling algorithm.

    Parameters
    ----------
    table:
        The dirty table ``T^d``.
    policy:
        Replacement policy for out-of-coalition cells.
    rng:
        Seed or generator for reproducible sampling.
    materialize:
        When ``False`` (the default, the incremental path) each instance is a
        :class:`~repro.dataset.table.PerturbationView` — a sparse copy-on-write
        delta on the dirty table, with the second instance of each pair built
        as a one-cell sub-delta of the first.  When ``True`` instances are
        full materialised :class:`Table` copies (the full-rescan reference
        path).  Both paths consume the RNG identically and produce identical
        cell contents, so estimates agree bit-for-bit for a fixed seed.  On
        the view path a coalition is a boolean mask over the cell vector and
        the with-instance's delta is selected from arrays: the ``SAMPLE``
        draws of the replaced cells, or, for the deterministic
        ``NULL``/``MODE`` policies, a precomputed everything-replaced overlay
        masked per sample; that changes nothing but construction cost.
    """

    def __init__(self, table: Table, policy: ReplacementPolicy | str = ReplacementPolicy.SAMPLE,
                 rng=None, materialize: bool = False):
        self.table = table
        self.policy = ReplacementPolicy.from_name(policy)
        self.materialize = bool(materialize)
        self._rng = make_rng(rng)
        #: the vectorised cell order of Example 2.5 (row-major)
        self.cells: tuple[CellRef, ...] = tuple(table.cells())
        self._cell_index = {cell: i for i, cell in enumerate(self.cells)}
        #: the cells as an object array, so a mask selects delta keys in bulk
        self._cell_array = np.fromiter(self.cells, dtype=object, count=len(self.cells))
        self._order = np.arange(len(self.cells))
        #: the deterministic policies' everything-replaced overlay, computed
        #: once (see :meth:`_replacement_overlay`)
        self._overlay: "tuple | None" = None
        #: optional provenance record: while not ``None``, every drawn sample
        #: ORs in the bitmask (bit ``i`` is ``self.cells[i]``) of the base
        #: cells whose *original* values the built instances expose (the
        #: coalition plus the kept target) — the touched-cell fingerprint the
        #: live session's selective invalidation tests against base updates.
        #: Recording never consumes the RNG.
        self.touched: "int | None" = None

    # -- seeding -------------------------------------------------------------------

    def reseed(self, rng) -> None:
        """Swap the sampler's RNG stream (seed, generator, or ``None``).

        The sharded scheduler (:mod:`repro.parallel`) partitions a job seed
        into one independent stream per ``(cell, sample-chunk)`` shard and
        installs each stream here before drawing the shard's permutations, so
        the draws for a given shard are identical no matter which worker —
        or how many workers — execute the plan.  Policy-precomputed state
        (the deterministic replacement overlay) is RNG-free and survives the
        swap.
        """
        self._rng = make_rng(rng)

    # -- cell addressing -------------------------------------------------------------

    def _index_of(self, cell: CellRef) -> int:
        index = self._cell_index.get(cell)
        if index is None:
            raise TRexError(f"cell {cell} is not part of the table")
        return index

    def cell_mask(self, cells: Iterable[CellRef]) -> int:
        """The bitmask of ``cells`` over the cell vector (unknown cells are
        skipped) — the form :attr:`touched` records."""
        index = self._cell_index
        mask = 0
        for cell in cells:
            position = index.get(cell)
            if position is not None:
                mask |= 1 << position
        return mask

    # -- replacement values --------------------------------------------------------

    def replacement_value(self, cell: CellRef):
        """A replacement value for ``cell`` according to the policy."""
        if self.policy is ReplacementPolicy.NULL:
            return NULL
        marginal = self.table.stats.marginal(cell.attribute)
        if self.policy is ReplacementPolicy.MODE:
            return marginal.most_common()
        return marginal.sample(rng=self._rng)

    def _drawn_view(self, kept: np.ndarray) -> PerturbationView:
        """The ``SAMPLE`` with-instance: every cell outside ``kept`` drawn.

        One ``rng.random(n)`` covers the replaced cells in row-major order
        (cells of all-null columns draw nothing) and each column's draws are
        mapped in one
        :meth:`~repro.engine.stats.ColumnStatistics.sample_codes` call.  That
        is the very stream, and the very values, of one
        :meth:`replacement_value` per cell in row-major order — which the
        ``materialize=True`` reference still makes.  A drawn cell enters the
        delta exactly when its code differs from the base cell's (the view's
        null-aware normalisation, by codes), and the view adopts each
        column's ``(rows, codes)`` so neither it nor the views forked off it
        re-encode their delta.  A view table goes through
        :meth:`Table.perturbed`'s value loop instead.
        """
        table = self.table
        attributes = table.attributes
        n_attributes = len(attributes)
        replaced = ~kept.reshape(-1, n_attributes)
        stats = table.stats
        marginals = [stats.marginal(attribute) for attribute in attributes]
        drawn = replaced & np.array([marginal.total > 0 for marginal in marginals])
        uniforms = np.zeros(replaced.shape)
        uniforms[drawn] = self._rng.random(int(np.count_nonzero(drawn)))
        plain = not isinstance(table, PerturbationView)
        # the draws are codes of the root table's dictionaries
        encoding = (table if plain else table.base).store.encoding()
        values = np.empty(kept.size, dtype=object)
        enters = np.zeros(replaced.shape, dtype=bool)
        encoded = {}
        for column, attribute in enumerate(attributes):
            rows = np.flatnonzero(replaced[:, column])
            if not len(rows):
                continue
            codes = marginals[column].sample_codes(uniforms[rows, column])
            if plain:
                keep = codes != encoding.codes(table.store, attribute)[rows]
                rows, codes = rows[keep], codes[keep].astype(np.int32)
                rows.flags.writeable = codes.flags.writeable = False
                encoded[attribute] = (rows, codes)
            enters[rows, column] = True
            decoded = encoding.dictionary(attribute).decode_list(codes.tolist())
            values[rows * n_attributes + column] = np.fromiter(
                decoded, dtype=object, count=len(decoded))
        selected = np.flatnonzero(enters.ravel())
        delta = dict(zip(self._cell_array[selected].tolist(), values[selected].tolist()))
        if not plain:
            return table.perturbed(delta, trusted=True)
        view = table.perturbed(delta, trusted=True, prenormalized=True)
        for attribute, (rows, codes) in encoded.items():
            view._store.adopt_encoded_delta(attribute, rows, codes)
        return view

    def _replacement_overlay(self) -> tuple:
        """The normalised delta replacing *every* cell, for deterministic policies.

        The ``NULL`` and ``MODE`` policies assign each cell the same
        replacement on every sample and never consume the RNG, so the
        "replace everything" overlay is computed once, as arrays aligned
        over its cells (row-major): their cell indexes, the cells and the
        replacement values, plus per encodable column the positions of its
        cells in those arrays and their bulk-encoded ``(rows, codes)``
        (:meth:`~repro.engine.encoding.TableEncoding.encode_delta`).  Per
        sample one mask over these arrays selects the with-instance's delta
        and each column's encoded delta, so the delta is born in code space
        and the built view never re-encodes it.  Unencodable columns are
        simply absent from the per-column part (their views fall back to the
        lazy per-view path).  Codes stay valid for the sampler's lifetime
        (dictionaries are append-only).
        """
        if self._overlay is None:
            table = self.table
            indexes, values = [], []
            for index, cell in enumerate(self.cells):
                replacement = self.replacement_value(cell)
                if values_differ(table[cell], replacement):
                    indexes.append(index)
                    values.append(replacement)
            where = np.asarray(indexes, dtype=np.int64)
            n_attributes = len(table.attributes)
            encoding = table.store.encoding()
            columns: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
            for column, name in enumerate(table.attributes):
                positions = np.flatnonzero(where % n_attributes == column)
                if not len(positions):
                    continue
                overrides = dict(zip((where[positions] // n_attributes).tolist(),
                                     [values[position] for position in positions.tolist()]))
                encoded = encoding.encode_delta(name, overrides)
                if encoded is not None:
                    columns[name] = (positions, *encoded)
            self._overlay = (
                where, self._cell_array[where],
                np.fromiter(values, dtype=object, count=len(values)), columns,
            )
        return self._overlay

    def _overlay_view(self, kept: np.ndarray) -> PerturbationView:
        """The deterministic-policy with-instance: the precomputed overlay
        minus the kept cells, its delta and per-column encoding selected by
        one mask (see :meth:`_replacement_overlay`)."""
        where, cells, values, columns = self._replacement_overlay()
        replaced = ~kept[where]
        selected = np.flatnonzero(replaced)
        view = self.table.perturbed(
            dict(zip(cells[selected].tolist(), values[selected].tolist())),
            trusted=True, prenormalized=True)
        # the view (and, via cache inheritance, its sub-delta sibling and the
        # repairers' working snapshots) never re-encodes its delta
        store = view._store
        for name, (positions, rows, codes) in columns.items():
            keep = replaced[positions]
            if keep.all():
                store.adopt_encoded_delta(name, rows, codes)
            else:
                store.adopt_encoded_delta(name, rows[keep], codes[keep])
        return view

    # -- permutation / coalition sampling -----------------------------------------------

    def sample_permutation(self) -> np.ndarray:
        """A uniformly random permutation of the cell indexes."""
        return self._rng.permutation(len(self.cells))

    def coalition_before(self, target_cell: CellRef, permutation: np.ndarray) -> set[CellRef]:
        """The coalition: every cell preceding ``target_cell`` in the permutation.

        The per-cell reference of :meth:`sample_pair`'s rank comparison.
        """
        target_index = self._index_of(target_cell)
        coalition: set[CellRef] = set()
        for index in permutation:
            if int(index) == target_index:
                break
            coalition.add(self.cells[int(index)])
        return coalition

    # -- instance construction ---------------------------------------------------------------

    def build_instances(self, target_cell: CellRef, coalition: Iterable[CellRef]) -> tuple[Table, Table]:
        """The two table instances whose oracle difference is one sample.

        Both instances replace every cell outside ``coalition ∪ {target}``
        with a policy-generated value; the first keeps the original value of
        ``target_cell``, the second replaces it too.  The same replacement
        values are used in both instances so the only difference between them
        is the target cell (paired sampling, which reduces variance).

        On the incremental path the first instance is a copy-on-write view of
        the dirty table and the second is the same view plus a one-cell
        sub-delta — no columns are ever copied.
        """
        if self.materialize:
            coalition = set(coalition)
            replacements = {cell: self.replacement_value(cell) for cell in self.cells
                            if cell != target_cell and cell not in coalition}
            with_original = self.table.with_values(replacements)
            replacements_without = dict(replacements)
            replacements_without[target_cell] = self.replacement_value(target_cell)
            without_original = self.table.with_values(replacements_without)
            return with_original, without_original
        kept = np.zeros(len(self.cells), dtype=bool)
        kept[self._index_of(target_cell)] = True
        index = self._cell_index
        kept[[index[cell] for cell in coalition if cell in index]] = True
        return self._instances(target_cell, kept)

    def _instances(self, target_cell: CellRef, kept: np.ndarray) -> tuple[Table, Table]:
        """:meth:`build_instances` on the view path, for the cells ``kept``
        (a mask over :attr:`cells`: the coalition plus the target)."""
        if self.policy is ReplacementPolicy.SAMPLE:
            with_original = self._drawn_view(kept)
        elif not isinstance(self.table, PerturbationView):
            with_original = self._overlay_view(kept)
        else:
            cells = self.cells
            with_original = self.table.perturbed(
                {cells[index]: self.replacement_value(cells[index])
                 for index in np.flatnonzero(~kept).tolist()}, trusted=True)
        without_original = with_original.perturbed(
            {target_cell: self.replacement_value(target_cell)}, trusted=True
        )
        return with_original, without_original

    def sample_pair(self, target_cell: CellRef) -> tuple[Table, Table]:
        """Draw one permutation and return the corresponding instance pair.

        On the view path the coalition is ``rank < rank[target]``, where
        ``rank`` inverts the drawn permutation: the cells preceding the
        target, the very set :meth:`coalition_before` walks to.  The mask of
        kept cells adds the target itself (``<=``).
        """
        permutation = self.sample_permutation()
        if self.materialize:
            coalition = self.coalition_before(target_cell, permutation)
            if self.touched is not None:
                self.touched |= self.cell_mask(coalition | {target_cell})
            return self.build_instances(target_cell, coalition)
        target = self._index_of(target_cell)
        rank = np.empty(len(permutation), dtype=np.intp)
        rank[permutation] = self._order
        kept = rank <= rank[target]
        if self.touched is not None:
            # the with-instance shows the base's own value at every coalition
            # cell and at the kept target — exactly the cells whose base
            # content this sample's answer depends on
            self.touched |= int.from_bytes(
                np.packbits(kept, bitorder="little").tobytes(), "little")
        return self._instances(target_cell, kept)

    # -- base-update maintenance ---------------------------------------------------

    def invalidate_overlay(self) -> None:
        """Drop policy-precomputed state after a base-table update.

        The deterministic replacement overlay is normalised against base
        values (``MODE`` additionally reads column modes), so a base write
        can both stale its entries and change which cells it covers; its
        arrays and per-column encoding are rebuilt lazily on the next
        sample.  Dictionary codes themselves are append-only and stay valid.
        """
        self._overlay = None

    # -- exhaustive enumeration (tiny tables only) ------------------------------------------------

    def enumerate_coalitions(self, target_cell: CellRef) -> Sequence[frozenset]:
        """All coalitions of the other cells — only sensible for tiny tables.

        Used by the test-suite to cross-check the sampled estimator against
        exact enumeration under the ``NULL`` policy.
        """
        others = [cell for cell in self.cells if cell != target_cell]
        if len(others) > 20:
            raise TRexError(
                f"refusing to enumerate 2^{len(others)} coalitions; "
                "exact cell Shapley is only supported for tiny tables"
            )
        from itertools import combinations

        coalitions: list[frozenset] = []
        for size in range(len(others) + 1):
            coalitions.extend(frozenset(c) for c in combinations(others, size))
        return coalitions
