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
is exactly the shape :meth:`repro.repair.base.BinaryRepairOracle.query_pair`
exploits to evaluate both instances in a single shared repair walk.
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
        the view path the deterministic ``NULL``/``MODE`` policies build each
        coalition from a precomputed everything-replaced overlay (one dict
        copy minus the coalition per sample) instead of re-deriving every
        cell's replacement per sample; that changes nothing but construction
        cost.
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
        #: precomputed normalised everything-replaced overlay for the
        #: deterministic policies (see :meth:`_replacement_overlay`)
        self._overlay: dict[CellRef, object] | None = None
        #: the overlay's per-column encoded arrays ``{attr: (rows, codes)}``
        #: and each overlay cell's position within its column's arrays —
        #: coalition deltas are born in code space as one masked slice per
        #: column (see :meth:`_overlay_encoding`)
        self._overlay_arrays: "dict[str, tuple[np.ndarray, np.ndarray]] | None" = None
        self._overlay_pos: dict[CellRef, int] = {}
        #: optional provenance sink: while set, every drawn sample records
        #: the base cells whose *original* values the built instances expose
        #: (the coalition plus the kept target) into this set — the
        #: touched-cell fingerprint the live session's selective invalidation
        #: intersects with base updates.  Recording never consumes the RNG.
        self.touched_sink: "set[CellRef] | None" = None

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

    # -- replacement values --------------------------------------------------------

    def replacement_value(self, cell: CellRef):
        """A replacement value for ``cell`` according to the policy."""
        if self.policy is ReplacementPolicy.NULL:
            return NULL
        marginal = self.table.stats.marginal(cell.attribute)
        if self.policy is ReplacementPolicy.MODE:
            return marginal.most_common()
        return marginal.sample(rng=self._rng)

    def _drawn_codes(self, target_cell: CellRef, coalition: set[CellRef]
                     ) -> tuple[list[int], np.ndarray, np.ndarray]:
        """``SAMPLE`` draws for every cell outside ``coalition ∪ {target}``.

        Returns the replaced cells' indexes (row-major), their column indexes
        and the drawn codes.  One ``rng.random(n)`` covers the replaced cells
        in row-major order (cells of all-null columns draw nothing) and each
        column's slice is mapped in one
        :meth:`~repro.engine.stats.ColumnStatistics.sample_codes` call.  That
        is the very stream, and the very values, of one
        :meth:`replacement_value` per cell in row-major order — which the
        ``materialize=True`` reference still makes.
        """
        cells = self.cells
        replaced = [i for i, cell in enumerate(cells)
                    if cell != target_cell and cell not in coalition]
        if not replaced:
            return replaced, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        stats = self.table.stats
        marginals = [stats.marginal(attribute) for attribute in self.table.attributes]
        columns = np.asarray(replaced, dtype=np.int64) % len(marginals)
        drawn = np.array([marginal.total > 0 for marginal in marginals])[columns]
        uniforms = np.zeros(len(replaced))
        uniforms[drawn] = self._rng.random(int(drawn.sum()))
        codes = np.zeros(len(replaced), dtype=np.int64)
        for column, marginal in enumerate(marginals):
            positions = np.flatnonzero(columns == column)
            if len(positions):
                codes[positions] = marginal.sample_codes(uniforms[positions])
        return replaced, columns, codes

    def _drawn_view(self, target_cell: CellRef, coalition: set[CellRef]) -> PerturbationView:
        """The ``SAMPLE`` with-instance, born in code space.

        A drawn cell enters the delta exactly when its code differs from the
        base cell's (the view's null-aware normalisation, by codes), and the
        view adopts each column's ``(rows, codes)`` so neither it nor the
        views forked off it re-encode their delta.  A view table goes through
        :meth:`Table.perturbed`'s value loop instead.
        """
        replaced, columns, codes = self._drawn_codes(target_cell, coalition)
        table, cells = self.table, self.cells
        values: list = [None] * len(replaced)
        kept = np.zeros(len(replaced), dtype=bool)
        encoded = {}
        plain = not isinstance(table, PerturbationView)
        # the draws are codes of the root table's dictionaries
        encoding = (table if plain else table.base).store.encoding()
        rows = np.asarray(replaced, dtype=np.int64) // len(table.attributes)
        for column, attribute in enumerate(table.attributes):
            positions = np.flatnonzero(columns == column)
            if not len(positions):
                continue
            column_rows, column_codes = rows[positions], codes[positions]
            if plain:
                keep = column_codes != encoding.codes(table.store, attribute)[column_rows]
                positions, column_rows, column_codes = (
                    positions[keep], column_rows[keep], column_codes[keep])
                column_codes = column_codes.astype(np.int32)
                column_rows.flags.writeable = column_codes.flags.writeable = False
                encoded[attribute] = (column_rows, column_codes)
            kept[positions] = True
            decoded = encoding.dictionary(attribute).decode_list(column_codes.tolist())
            for position, value in zip(positions.tolist(), decoded):
                values[position] = value
        delta = {cells[replaced[position]]: values[position]
                 for position in np.flatnonzero(kept).tolist()}
        if not plain:
            return table.perturbed(delta, trusted=True)
        view = table.perturbed(delta, trusted=True, prenormalized=True)
        for attribute, (column_rows, column_codes) in encoded.items():
            view._store.adopt_encoded_delta(attribute, column_rows, column_codes)
        return view

    def _replacement_overlay(self) -> dict[CellRef, object] | None:
        """Normalised delta replacing *every* cell, for deterministic policies.

        The ``NULL`` and ``MODE`` policies assign each cell the same
        replacement on every sample and never consume the RNG, so the
        "replace everything" overlay can be computed once; per sample the
        coalition's cells are simply dropped from a copy.  ``SAMPLE`` draws
        fresh values per sample and returns ``None`` (per-cell path).
        """
        if self.policy is ReplacementPolicy.SAMPLE:
            return None
        if self._overlay is None:
            overlay: dict[CellRef, object] = {}
            for cell in self.cells:
                replacement = self.replacement_value(cell)
                if values_differ(self.table[cell], replacement):
                    overlay[cell] = replacement
            self._overlay = overlay
        return self._overlay

    def _overlay_encoding(self) -> "dict[str, tuple[np.ndarray, np.ndarray]]":
        """The deterministic overlay encoded column-wise, computed once.

        For each column the full overlay's override set is bulk-encoded into
        ``(rows, codes)`` arrays
        (:meth:`~repro.engine.encoding.TableEncoding.encode_delta`) and every
        overlay cell's position within its column's arrays is recorded.  Per
        sample a coalition delta's encoded form is then one boolean mask per
        column over these arrays — the delta is born in code space and the
        built view never re-encodes it.  Unencodable columns are simply
        absent (their views fall back to the lazy per-view path).  The
        encoding is RNG-free and codes stay valid for the sampler's lifetime
        (dictionaries are append-only).
        """
        if self._overlay_arrays is None:
            by_column: dict[str, dict[int, object]] = {}
            for cell, value in self._replacement_overlay().items():
                by_column.setdefault(cell.attribute, {})[cell.row] = value
            encoding = self.table.store.encoding()
            arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
            positions: dict[CellRef, int] = {}
            for name, overrides in by_column.items():
                encoded = encoding.encode_delta(name, overrides)
                if encoded is None:
                    continue
                arrays[name] = encoded
                for position, row in enumerate(encoded[0].tolist()):
                    positions[CellRef(row, name)] = position
            self._overlay_arrays = arrays
            self._overlay_pos = positions
        return self._overlay_arrays

    # -- permutation / coalition sampling -----------------------------------------------

    def sample_permutation(self) -> np.ndarray:
        """A uniformly random permutation of the cell indexes."""
        return self._rng.permutation(len(self.cells))

    def coalition_before(self, target_cell: CellRef, permutation: np.ndarray) -> set[CellRef]:
        """The coalition: every cell preceding ``target_cell`` in the permutation."""
        if target_cell not in self._cell_index:
            raise TRexError(f"cell {target_cell} is not part of the table")
        target_index = self._cell_index[target_cell]
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
        coalition = set(coalition)
        if not self.materialize and not isinstance(self.table, PerturbationView):
            overlay = self._replacement_overlay()
            if overlay is not None:
                # deterministic policies: copy the precomputed normalised
                # overlay and drop the coalition instead of re-deriving every
                # replacement per sample
                delta = dict(overlay)
                arrays = self._overlay_encoding()
                positions = self._overlay_pos
                drops: dict[str, list[int]] = {}
                delta.pop(target_cell, None)
                position = positions.get(target_cell)
                if position is not None:
                    drops.setdefault(target_cell.attribute, []).append(position)
                for cell in coalition:
                    delta.pop(cell, None)
                    position = positions.get(cell)
                    if position is not None:
                        drops.setdefault(cell.attribute, []).append(position)
                with_original = self.table.perturbed(delta, trusted=True,
                                                     prenormalized=True)
                # the delta is born in code space: one masked slice of the
                # precomputed per-column arrays per overridden column — the
                # view (and, via cache inheritance, its sub-delta sibling and
                # the repairers' working snapshots) never re-encodes it
                store = with_original._store
                for name, (rows, codes) in arrays.items():
                    dropped = drops.get(name)
                    if not dropped:
                        store.adopt_encoded_delta(name, rows, codes)
                    else:
                        keep = np.ones(len(rows), dtype=bool)
                        keep[dropped] = False
                        store.adopt_encoded_delta(name, rows[keep], codes[keep])
                without_original = with_original.perturbed(
                    {target_cell: self.replacement_value(target_cell)}, trusted=True
                )
                return with_original, without_original

        if self.materialize:
            replacements = {cell: self.replacement_value(cell) for cell in self.cells
                            if cell != target_cell and cell not in coalition}
            with_original = self.table.with_values(replacements)
            replacements_without = dict(replacements)
            replacements_without[target_cell] = self.replacement_value(target_cell)
            without_original = self.table.with_values(replacements_without)
            return with_original, without_original

        if self.policy is ReplacementPolicy.SAMPLE:
            with_original = self._drawn_view(target_cell, coalition)
        else:
            with_original = self.table.perturbed(
                {cell: self.replacement_value(cell) for cell in self.cells
                 if cell != target_cell and cell not in coalition}, trusted=True)
        without_original = with_original.perturbed(
            {target_cell: self.replacement_value(target_cell)}, trusted=True
        )
        return with_original, without_original

    def sample_pair(self, target_cell: CellRef) -> tuple[Table, Table]:
        """Draw one permutation and return the corresponding instance pair."""
        permutation = self.sample_permutation()
        coalition = self.coalition_before(target_cell, permutation)
        if self.touched_sink is not None:
            # the with-instance shows the base's own value at every coalition
            # cell and at the kept target — exactly the cells whose base
            # content this sample's answer depends on
            self.touched_sink.update(coalition)
            self.touched_sink.add(target_cell)
        return self.build_instances(target_cell, coalition)

    # -- base-update maintenance ---------------------------------------------------

    def invalidate_overlay(self) -> None:
        """Drop policy-precomputed state after a base-table update.

        The deterministic replacement overlay is normalised against base
        values (``MODE`` additionally reads column modes), so a base write
        can both stale its entries and change which cells it covers; the
        encoded arrays and positions are derived from it.  All three are
        rebuilt lazily on the next sample.  Dictionary codes themselves are
        append-only and stay valid.
        """
        self._overlay = None
        self._overlay_arrays = None
        self._overlay_pos = {}

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
