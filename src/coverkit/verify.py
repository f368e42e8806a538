"""Independent verification of coverage.

``full_check`` and ``orbit_check`` are the trusted base of the package.
They share no coverage-counting code with ``construct`` and use other
formulations than its rank-and-scatter kernel, so a bug on one side shows
as a disagreement that the test suite's cross-checks catch.

``full_check`` is the standard column-bitset check, word-major.
``bits[w, c, s]`` is word ``w`` of the set of rows holding symbol ``s``
in column ``c``, 64 rows to a uint64 word, packed in chunks of rows
that take every column in one ``packbits`` call.  A t-way interaction is
covered iff the AND of its t row sets is nonempty.  The check goes over
groups of t-sets.  For t >= 3 a group is one middle ``(c2, ..., c_{t-1})``
in colex order, with every first column below it and every last column
above it; for t = 2 the middle is empty and a group is one last column
c2, with every first column below it.  For a group the check builds the
middle's ``v**(t-2)`` row sets, its tuple in rank order; ANDs them in one
call with the row sets of every last column, the middle innermost; ANDs
that with the ``(first column, symbol)`` row sets below c2, one
contiguous slice of each word's row; ORs the block over the word axis and
counts its zeros.

``full_check`` reads one ``limits.Budget`` when it is called, and
beyond its row bitsets holds at most the budget's working bytes (32 MiB
by default).  Every block and buffer is a 1/32 share of them (1 MiB by
default), priced with ``Budget.check_table_bytes`` before it is made and
reused by every group, and the bitsets are packed within what the six
shares leave.  A block over the share is cut on the word axis
first, down to ``_WORDS`` words whose ORs are accumulated with ``|=``,
then on the first-column row sets, then on the word axis down to one
word; the last-column row sets, the long inner axis, are cut only when
one word's block over all of them is over the share.  Groups are not
visited in colex order, so the first witness is the least (colex set
rank, tuple rank) over the misses of the blocks that have any.  The check
runs with ufunc buffers of ``_BUFSIZE`` elements: under numpy's default
of 8192, an AND that broadcasts an operand over an inner axis shorter
than a third of the buffer is copied through it first, about 3x slower.
The test suite holds a plain row loop, one bitmap per column t-set, as
the reference oracle for it.

``orbit_check`` is a plain row loop filling one orbit bitmap per column
t-set.  It returns its first miss, the ``(ColumnSet, orbit id)`` pair of
the first column t-set in colex order with a required orbit that no row
hits, or None when every required orbit is hit on every t-set.

``exhaustive_can`` is a ground-truth oracle for tiny parameters: a
backtracking search over canonical-form arrays (first row all zeros, rows
strictly increasing, per-column symbols introduced in order) that finds the
exact minimum array size or proves none exists within a row limit.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import (
    CAParams,
    ColumnSet,
    Interaction,
    SymbolArray,
    colex_combinations,
    colex_rank,
    symbols_rank,
    symbols_unrank,
)
from .errors import BudgetExceededError
from .groups import OrbitTable
from .limits import Budget

_SHARE = 32  # each of full_check's blocks and buffers: 1/32 of the working budget
_WORDS = 8  # words per AND block that full_check keeps before it cuts the first columns
_BUFSIZE = 256  # ufunc buffer elements while full_check runs

__all__ = [
    "CoverageReport",
    "full_check",
    "orbit_check",
    "exhaustive_can",
]


@dataclass(frozen=True)
class CoverageReport:
    uncovered_count: int
    first_witness: Interaction | None

    @property
    def is_covering(self) -> bool:
        return self.uncovered_count == 0


def _row_bitsets(cells: np.ndarray, v: int, words: int, budget: int) -> np.ndarray:
    """bits[w, c, s]: word w of the set of rows holding symbol s in column
    c, word-major, 64 rows to a uint64 word.

    The columns are packed together in chunks of rows, a multiple of 64 so
    each chunk fills whole words: one ``np.equal`` of the chunk's cells,
    transposed, against every symbol, one ``np.packbits`` and one
    transposed store.  A chunk's v x k x rows bools, priced at 5/4 bytes
    each with their packed bits, fit ``budget`` bytes with at least 64
    rows; the columns are cut only when 64 rows of all of them do not fit.
    """
    n, k = cells.shape
    bits = np.zeros((words, k, v), dtype=np.uint64)
    # columns, then rows, per chunk, at 5/4 bytes a bool: its packed bit,
    # and room for the few KiB of packbits' own iterators
    cut = max(1, min(k, budget * 4 // (5 * 64 * v)))
    step = max(64, budget * 4 // (5 * v * cut) // 64 * 64)
    table = np.empty(v * cut * min(step, 64 * words), dtype=bool)
    for c, lo in product(range(0, k, cut), range(0, n, step)):
        rows = cells.T[c : c + cut, lo : lo + step]  # the chunk's cells, column-major
        # a contiguous table, which packbits reads without a copy
        part = _view(table, v, len(rows), -(-rows.shape[1] // 64) * 64)
        # symbols of the cells' dtype: no cast, so no ufunc buffer
        np.equal(rows, np.arange(v, dtype=rows.dtype)[:, None, None], out=part[..., : rows.shape[1]])
        part[..., rows.shape[1] :] = False  # the last chunk: its last word's padding
        # the packed words, bound to no name, so no chunk outlives its store
        bits[lo // 64 : lo // 64 + part.shape[2] // 64, c : c + cut] = np.packbits(
            part, axis=-1).view(np.uint64).transpose(2, 1, 0)
    return bits


def _groups(k: int, t: int) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
    """full_check's groups as (c2, middle, lo, hi): the t-sets whose first
    column lies below c2, whose middle columns (c2, ..., c_{t-1}) are
    ``middle`` and whose last column is one of lo..hi-1.  For t >= 3 a
    group is a middle, in colex order, with every last column above it;
    for t = 2 the middle is empty and a group is one last column c2."""
    if t == 2:
        for c in range(1, k):
            yield c, (), c, c + 1
        return
    for middle in colex_combinations(k, t - 2):
        if 0 < middle[0] and middle[-1] < k - 1:
            yield middle[0], middle, middle[-1] + 1, k


def _buffer(entries: int, what: str, budget: Budget) -> np.ndarray:
    """A flat uint64 buffer, priced against the memory cap before it is made."""
    budget.check_table_bytes(entries, 8, what)
    return np.empty(entries, dtype=np.uint64)


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The first prod(shape) entries of a flat buffer, in that shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _block_steps(
    n_first: int, n_last: int, width: int, words: int, budget: int
) -> tuple[int, int, int]:
    """(first, last, words) per AND block of a group of ``n_first`` first
    and ``n_last`` last row sets, each last one ANDed with ``width`` middle
    row sets, in blocks of at most ``budget`` entries (at least ``width``).
    The word axis is cut first, to ``_WORDS`` words, then the first row
    sets, then the word axis to one word, and the last row sets, the long
    inner axis, only when one word's block over all of them is over the
    budget."""
    last = min(n_last, budget // width)
    first = min(n_first, max(1, budget // (min(max(words, 1), _WORDS) * last * width)))
    return first, last, max(1, min(words, budget // (first * last * width)))


def full_check(array: SymbolArray) -> CoverageReport:
    """Count the uncovered interactions and find the first in rank order."""
    bufsize = np.setbufsize(_BUFSIZE)
    try:
        return _full_check(array, Budget.from_env())
    finally:
        np.setbufsize(bufsize)


def _full_check(array: SymbolArray, budget: Budget) -> CoverageReport:
    params = array.params
    t, k, v = params.t, params.k, params.v
    budget.check_column_sets(k, t, "full_check")
    words = (array.n_rows + 63) // 64
    budget.check_table_bytes(k * v, 8 * words, "verifier row bitsets")
    width = v ** (t - 2)  # the row sets of one middle
    # the entries of one AND block, at least one middle's row sets
    share = max(width, budget.working // _SHARE // 8)
    block = _buffer(share, "verifier AND block", budget)
    covered = _buffer(share, "verifier coverage words", budget)
    more = _buffer(share, "verifier coverage words", budget)
    lasts = _buffer(share, "verifier last-column row sets", budget)
    middles = _buffer(2 * share, "verifier middle row sets", budget)
    # the packing works within what the shares leave of the working budget
    spent = sum(b.nbytes for b in (block, covered, more, lasts, middles))
    bits = _row_bitsets(array.cells, v, words, max(0, budget.working - spent))
    flat = bits.reshape(words, k * v)
    every = np.broadcast_to(~np.uint64(0), (words, 1))  # the empty middle's one row set

    uncovered = 0
    first: tuple[tuple[int, int], Interaction] | None = None
    for c2, middle, lo, hi in _groups(k, t):
        # the (column, symbol) row sets: 0..f_hi-1 of the first columns,
        # l_lo..l_hi-1 of the last
        f_hi, l_lo, l_hi = c2 * v, lo * v, hi * v
        f_step, l_step, w_step = _block_steps(f_hi, l_hi - l_lo, width, words, share)
        for l0 in range(l_lo, l_hi, l_step):
            ls = min(l_step, l_hi - l0)
            for f0 in range(0, f_hi, f_step):
                fs = min(f_step, f_hi - f0)
                acc = _view(covered, fs, ls * width)
                for w0 in range(0, max(words, 1), w_step):
                    rows = flat[w0 : w0 + w_step]
                    ws = len(rows)
                    # the middle's row sets, its tuple in rank order: each
                    # column, from the last, is ANDed in as the new leading
                    # symbol, so the inner axis is the longer operand
                    mid = rows[:, middle[-1] * v : (middle[-1] + 1) * v] if middle else every[:ws]
                    for i, c in enumerate(reversed(middle[:-1])):
                        out = _view(middles[(i % 2) * share :], ws, v, mid.shape[1])
                        np.bitwise_and(rows[:, c * v : (c + 1) * v, None], mid[:, None, :], out=out)
                        mid = out.reshape(ws, v * out.shape[2])
                    # (last column, symbol, middle tuple), middle innermost
                    last = _view(lasts, ws, 1, ls * width)
                    np.bitwise_and(rows[:, l0 : l0 + ls, None], mid[:, None, :],
                                   out=last.reshape(ws, ls, width))
                    # and (first column, symbol) outermost
                    anded = _view(block, ws, fs, ls * width)
                    np.bitwise_and(rows[:, f0 : f0 + fs, None], last, out=anded)
                    if w0 == 0:
                        np.bitwise_or.reduce(anded, axis=0, out=acc)
                    else:  # accumulate the word chunks
                        acc |= np.bitwise_or.reduce(anded, axis=0, out=_view(more, *acc.shape))
                missing = acc.size - int(np.count_nonzero(acc))
                if missing == 0:
                    continue
                uncovered += missing
                # the least (set rank, tuple rank): by last column, first
                # column, then the tuple's symbols (first, middle, last)
                at_first, at_last, m = np.nonzero(acc.reshape(fs, ls, width) == 0)
                c1, s1 = np.divmod(at_first + f0, v)
                ct, st = np.divmod(at_last + l0, v)
                i = np.lexsort((st, m, s1, c1, ct))[0]
                columns = (int(c1[i]),) + middle + (int(ct[i]),)
                symbols = (int(s1[i]),) + symbols_unrank(int(m[i]), t - 2, v) + (int(st[i]),)
                key = (colex_rank(columns), symbols_rank(symbols, v))
                if first is None or key < first[0]:
                    first = key, Interaction(columns, symbols)
    return CoverageReport(uncovered, None if first is None else first[1])


def orbit_check(
    array: SymbolArray, table: OrbitTable, *, full_only: bool = False
) -> tuple[ColumnSet, int] | None:
    """The first miss, as (column t-set, orbit id), of the check that every
    orbit (each of ``table.full_orbit_ids``, if full_only) is hit on every
    column t-set: some row's tuple on those columns lies in it.  None when
    every required orbit is hit."""
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
            seen[int(table.orbit_id_of[symbols_rank([row[c] for c in cols], v)])] = 1
        for oid in required:
            if not seen[oid]:
                return ColumnSet(cols), oid
    return None


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
            mask |= 1 << (i * vt + symbols_rank([row[c] for c in cols], v))
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
