"""Independent verification of coverage.

``full_check`` and ``orbit_check`` are the trusted base of the package.
They share no coverage-counting code with ``construct`` and use other
formulations than its rank-and-scatter kernel, so a bug on one side shows
as a disagreement that the test suite's cross-checks catch.

``full_check`` is the standard column-bitset check. ``bits[c, s]`` is the
set of rows holding symbol ``s`` in column ``c``, packed 64 rows to a word
from chunks of rows whose bools fit ``limits.working_bytes()``.
A t-way interaction is covered iff the AND of its t row sets is nonempty.
In colex order the t-sets sharing a suffix ``(c2, ..., ct)`` are
contiguous and ordered by the first column, so each suffix's ``v**(t-1)``
row sets are ANDed once. ``bits[:c2]`` flattened, the ``(first column,
symbol)`` row sets in t-set then rank order, is ANDed with them in one
flat run of blocks, each as many row sets as ``limits.working_bytes()``
holds (at least one, so a byte alphabet is checked too), written into
one buffer. The test suite holds a plain row loop, one bitmap per column
t-set, as the reference oracle for it.

``orbit_check`` is a plain row loop filling one orbit bitmap per column
t-set.

``exhaustive_can`` is a ground-truth oracle for tiny parameters: a
backtracking search over canonical-form arrays (first row all zeros, rows
strictly increasing, per-column symbols introduced in order) that finds the
exact minimum array size or proves none exists within a row limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import limits
from .core import (
    CAParams,
    ColumnSet,
    Interaction,
    SymbolArray,
    colex_combinations,
    symbols_unrank,
)
from .errors import BudgetExceededError
from .groups import OrbitTable

__all__ = [
    "CoverageReport",
    "OrbitCoverageReport",
    "full_check",
    "orbit_check",
    "exhaustive_can",
]


@dataclass(frozen=True)
class CoverageReport:
    is_covering: bool
    uncovered_count: int
    first_witness: Interaction | None


@dataclass(frozen=True)
class OrbitCoverageReport:
    all_covered: bool
    first_uncovered: tuple[ColumnSet, int] | None


def _tuple_index(row: tuple[int, ...], cols: tuple[int, ...], v: int) -> int:
    idx = 0
    for c in cols:
        idx = idx * v + row[c]
    return idx


def _row_bitsets(cells: np.ndarray, v: int, words: int) -> np.ndarray:
    """bits[c, s]: the rows holding symbol s in column c, as uint64 words.

    A column is packed in chunks of rows, a multiple of 8 so each chunk
    fills whole bytes, whose v x rows bool table fits the working budget.
    """
    n, k = cells.shape
    packed = np.zeros((k, v, 8 * words), dtype=np.uint8)
    symbols = np.arange(v)[:, None]
    step = max(8, limits.working_bytes() // v // 8 * 8)
    for c in range(k):
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            # no name holds the bool table, so it is freed before the next
            chunk = np.packbits(cells[lo:hi, c] == symbols, axis=-1)
            packed[c, :, lo // 8 : (hi + 7) // 8] = chunk
    return packed.view(np.uint64)


def full_check(array: SymbolArray) -> CoverageReport:
    """Count the uncovered interactions and find the first in rank order."""
    params = array.params
    t, k, v = params.t, params.k, params.v
    limits.check_column_sets(k, t, "full_check")
    words = (array.n_rows + 63) // 64
    limits.check_table_bytes(k * v, 8 * words, "verifier row bitsets")
    # (first column, symbol) row sets per AND block, each ANDed with a
    # suffix's v**(t-1): as many as fit the working budget, at least one
    tail = v ** (t - 1)
    limits.check_table_bytes(tail, 8 * words, "verifier AND block")
    per = max(1, limits.working_bytes() // (tail * 8 * words)) if words else k * v
    bits = _row_bitsets(array.cells, v, words)
    flat = bits.reshape(k * v, words)
    block = np.empty((min(per, (k - 1) * v), tail, words), dtype=np.uint64)

    uncovered = 0
    first: Interaction | None = None
    for suffix in colex_combinations(k, t - 1):
        c2 = suffix[0]
        if c2 == 0:
            continue  # no first column below it
        rows = bits[c2]
        for c in suffix[1:]:
            rows = (rows[:, None, :] & bits[c]).reshape(rows.shape[0] * v, words)
        for lo in range(0, c2 * v, per):
            hi = min(lo + per, c2 * v)
            # (first column, symbol, suffix rank): colex-set order, then rank order
            anded = np.bitwise_and(flat[lo:hi, None, :], rows, out=block[: hi - lo])
            covered = np.bitwise_or.reduce(anded, axis=-1)
            missing = covered.size - int(np.count_nonzero(covered))
            if missing == 0:
                continue
            uncovered += missing
            if first is None:
                c1, rank = divmod(lo * tail + int(covered.argmin()), v * tail)
                first = Interaction((c1,) + suffix, symbols_unrank(rank, t, v))
    return CoverageReport(uncovered == 0, uncovered, first)


def orbit_check(
    array: SymbolArray, table: OrbitTable, *, full_only: bool = False
) -> OrbitCoverageReport:
    """Check that every orbit (each of ``table.full_orbit_ids``, if full_only)
    is hit on every column t-set: some row's tuple on those columns lies in it."""
    params = array.params
    t, v = params.t, params.v
    if table.action.degree != v:
        raise ValueError(
            f"orbit table degree {table.action.degree} does not match v={v}"
        )
    if table.t != t:
        raise ValueError(f"orbit table strength {table.t} does not match t={t}")
    required = table.full_orbit_ids if full_only else range(table.n_orbits)
    rows = [tuple(int(x) for x in r) for r in array.cells]
    for cols in colex_combinations(params.k, t):
        seen = bytearray(table.n_orbits)
        for row in rows:
            seen[int(table.orbit_id_of[_tuple_index(row, cols, v)])] = 1
        for oid in required:
            if not seen[oid]:
                return OrbitCoverageReport(False, (ColumnSet(cols), oid))
    return OrbitCoverageReport(True, None)


def exhaustive_can(
    params: CAParams, n_max: int, *, node_budget: int = 5_000_000
) -> int | None:
    """Smallest N <= n_max admitting a covering array, by exhaustive search.

    Returns None when no covering array with at most n_max rows exists.
    Raises BudgetExceededError when the node budget runs out first, which is
    a distinct outcome from a proven "none".

    Symmetry reductions, each reachable by column symbol renaming and row
    sorting: the first row is all zeros, rows are strictly increasing as
    tuples, and within each column a symbol s > 0 may appear only after
    s - 1 has appeared above.
    """
    t, k, v = params.t, params.k, params.v
    if v**k > 1 << 16:
        raise BudgetExceededError(
            f"row space v**k = {v**k} is beyond exhaustive search"
        )
    all_rows = list(product(range(v), repeat=k))
    subsets = list(colex_combinations(k, t))
    vt = v**t

    # bit i*vt + j  <=>  column set i covers symbol tuple j
    row_masks = []
    for row in all_rows:
        mask = 0
        for i, cols in enumerate(subsets):
            mask |= 1 << (i * vt + _tuple_index(row, cols, v))
        row_masks.append(mask)
    target = (1 << (len(subsets) * vt)) - 1
    per_row_gain = len(subsets)

    budget = [node_budget]

    def admissible(row: tuple[int, ...], colmax: tuple[int, ...]) -> bool:
        return all(s <= m + 1 for s, m in zip(row, colmax))

    def search(n_remaining: int, last: int, covered: int, colmax: tuple[int, ...]) -> bool:
        if covered == target:
            return True
        if n_remaining == 0:
            return False
        if (target & ~covered).bit_count() > n_remaining * per_row_gain:
            return False
        for idx in range(last + 1, len(all_rows)):
            if budget[0] <= 0:
                raise BudgetExceededError("exhaustive search budget exhausted")
            budget[0] -= 1
            row = all_rows[idx]
            if not admissible(row, colmax):
                continue
            new_colmax = tuple(max(m, s) for m, s in zip(colmax, row))
            if search(n_remaining - 1, idx, covered | row_masks[idx], new_colmax):
                return True
        return False

    effective_max = min(n_max, v**k)
    for n in range(vt, effective_max + 1):
        if search(n - 1, 0, row_masks[0], tuple(0 for _ in range(k))):
            return n
    return None
