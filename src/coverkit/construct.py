"""Randomized covering array construction.

Two builders realize the bound families constructively:

* ``two_stage_build``    - draw random arrays of the optimal stage-1 size
  until the uncovered count is within target, then patch the surviving
  uncovered interactions: one row each, or by first-fit colouring, which
  puts each into the first patch row that agrees with it.  The scan that
  accepts an attempt also lists its leftovers, so stage 2 patches from
  that listing without a second pass.
* ``moser_tardos_build`` - the orbit builder for the cyclic, Frobenius
  and PGL actions (``pgl_build`` for short): maintain a random n x k
  array and, scanning column t-sets in a fixed order, resample the
  columns of the first set missing a full orbit (one the action's local
  lemma bound counts) until none remains; then develop over the group and
  cover the short orbits with constant rows and, under PGL, a binary
  covering array mapped onto every symbol pair.

``density_build`` adds greedy density rows (Bryce & Colbourn) to any
array; it is the ``density`` strategy from the empty array.

``STRATEGIES`` is the one table of ``build --strategy`` choices: each
name's builder, which returns the array and its ``BuildLog``, and the
``BuildConfig`` fields it reads besides the seed.  Every builder is
deterministic given (params, config): the seed fully drives all random
draws.  Each builder, ``count_uncovered``, ``random_array`` and
``density_build`` reads one ``limits.Budget`` when it is called and
passes it to every helper that prices a table or runs in a loop, so its
attempts, resamples and scans read nothing from the environment.  Every
row table a builder allocates (stage-1 rows, the leftover listing, the
colour classes, stage-2 patch rows, developed and pair rows) is checked
against that budget's memory cap first.  All coverage questions -
the uncovered scan, the density state and the resampling scan - go
through one kernel, ``_Kernel``, planned once per build: its tables are
priced and allocated when it is made, and every scan of the build (each
stage-1 attempt, each rescan after a resample) reuses them.  It yields
the column t-sets in colex order, in blocks of consecutive set ranks:
whole last columns while they fit its rank buffer, and a larger column
alone.  A tuple's
rank is its (t-1)-prefix's rank times v plus its last symbol, so a
block's ranks take one gather from a window of top prefix ranks, filled
from the columns and shared by the blocks, and one from the columns; the
kernel keeps what is in flight within the budget's working bytes.  A set
of at most 64 slots (v**t tuples, or the orbits of an action) keeps its
seen table as the bits of one word while its block is ranked: each row's
rank becomes a bit, the bits are ORed along the rows, and the block's
words unpack into the seen table.  Past 64 slots the ranks are scattered
into the table itself.
A block is a pair (lo, seen): its first set's colex rank and its seen
table, one row per set from lo on.  It holds no sets: each consumer
unranks only the sets it reads.  The resampling scan unranks one set per
resample and starts each rescan at the first set ending at the lowest
column it resampled, the uncovered scan unranks the sets of its listing,
and the density state, the one consumer that reads them all, unranks all
C(k,t) at once before its pass.  The uncovered scan counts and lists in
one pass: the exact count, and the uncovered interactions in rank order
while that count stays within a cap (the stage-1 target), so a two-stage
build never holds a table of all interactions.  The density state is the
one table of all C(k,t) * v**t interactions: a mask of the uncovered
ones and its prefix counts (per set, the uncovered tuples by their first
l symbols), built by one kernel pass, updated as each row is added, and
checked against the memory cap before it is allocated.  A density row
takes one gather per column, into the counts below the prefix each set
holding the column has so far.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import bounds
from .errors import ResourceLimitError
from .core import CAParams, CELL_DTYPE, CELL_MAX, SymbolArray, _integer, colex_unrank, place_values
from .limits import Budget
from .groups import (
    GroupAction,
    OrbitTable,
    constant_rows,
    develop,
    enumerate_orbits,
    make_cyclic,
    make_frobenius,
    make_pgl,
)

__all__ = [
    "DEFAULT_SEED",
    "MAX_STAGE1_ATTEMPTS",
    "RESAMPLE_CAP",
    "BuildConfig",
    "BuildLog",
    "random_array",
    "count_uncovered",
    "two_stage_build",
    "density_build",
    "moser_tardos_build",
    "pgl_build",
    "STRATEGIES",
]

DEFAULT_SEED = 1729
# a two-stage build that misses its stage-1 target this many times patches its best draw
MAX_STAGE1_ATTEMPTS = 1000
# an orbit build still missing a full orbit after this many resamples fails
RESAMPLE_CAP = 10_000

# BuildConfig field -> its choices, which `coverkit build` offers too
_CONFIG_CHOICES = {
    "dependence_estimate": bounds.DEPENDENCE_ESTIMATES,
    "second_stage": ("one_row_each", "colour"),
}


@dataclass(frozen=True)
class BuildConfig:
    """The four choices that shape a built array.  The seed fully
    determines all draws.  ``seed`` and ``n_override`` must be nonnegative
    integers (numpy's too, no bool), and are held as Python ints
    (``core._integer``); ``n_override`` may be None.
    ``dependence_estimate`` and ``second_stage`` are strings, each one of
    its ``_CONFIG_CHOICES``.  Where a build gives up is no choice:
    ``MAX_STAGE1_ATTEMPTS`` and ``RESAMPLE_CAP``."""

    seed: int = DEFAULT_SEED
    dependence_estimate: str = "simple"
    second_stage: str = "one_row_each"
    n_override: int | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "n_override"):
            value = getattr(self, name)
            if value is None and name == "n_override":
                continue
            value = _integer(name, value)
            object.__setattr__(self, name, value)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        for name, choices in _CONFIG_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {', '.join(choices)}, got {getattr(self, name)!r}"
                )


@dataclass
class BuildLog:
    """What a builder did: row accounting, attempts, resamples, timings.
    Each phase is timed by ``timed``, under its name in ``elapsed``.
    ``resample_witness`` holds the scan positions of the column sets the
    last 16 resamples redrew, oldest first; ``resample_count`` counts all.
    A build fails by setting ``failure_reason``; ``success`` is derived
    from it, as ``total_rows`` is from the row counts."""

    strategy: str
    stage1_rows: int = 0
    stage1_attempts: int = 0
    uncovered_after_stage1: int = 0
    resample_count: int = 0
    stage2_rows: int = 0
    short_orbit_rows: int = 0
    group_order: int = 1
    failure_reason: str | None = None
    elapsed: dict[str, float] = field(default_factory=dict)
    resample_witness: deque[int] = field(default_factory=lambda: deque(maxlen=16))

    @property
    def total_rows(self) -> int:
        return self.stage1_rows * self.group_order + self.short_orbit_rows + self.stage2_rows

    @property
    def success(self) -> bool:
        return self.failure_reason is None

    @contextmanager
    def timed(self, phase: str) -> Iterator[None]:
        start = time.perf_counter()
        yield
        self.elapsed[phase] = time.perf_counter() - start

    def summary_lines(self) -> list[str]:
        lines = [
            f"strategy           {self.strategy}",
            f"stage1 rows        {self.stage1_rows} x{self.group_order} (attempts {self.stage1_attempts})",
            f"uncovered after s1 {self.uncovered_after_stage1}",
            f"resamples          {self.resample_count}",
            f"stage2 rows        {self.stage2_rows}",
            f"short-orbit rows   {self.short_orbit_rows}",
            f"total rows         {self.total_rows}",
            f"success            {self.success}"
            + (f" ({self.failure_reason})" if self.failure_reason else ""),
        ]
        for stage, secs in self.elapsed.items():
            lines.append(f"elapsed {stage:<10} {secs:.3f}s")
        return lines


def random_array(params: CAParams, n: int, seed: int) -> SymbolArray:
    """n x k array with cells i.i.d. uniform on 0..v-1, deterministic in
    seed.  n and seed are integers, as ``BuildConfig`` requires."""
    n, seed = _integer("n", n), _integer("seed", seed)
    if n < 0:
        raise ValueError("row count must be nonnegative")
    rng = np.random.default_rng(seed)
    return SymbolArray(params, _random_rows(rng, params, n, "random rows", Budget.from_env()))


def _random_rows(
    rng: np.random.Generator, params: CAParams, n: int, what: str, budget: Budget
) -> np.ndarray:
    """n x k cells i.i.d. uniform on 0..v-1, checked against the memory cap
    and the largest symbol an array holds before they are drawn."""
    if params.v - 1 > CELL_MAX:
        raise ValueError(f"v={params.v}: symbols past {CELL_MAX}, the largest symbol an array holds")
    budget.check_table_bytes(n * params.k, np.dtype(CELL_DTYPE).itemsize, what)
    return rng.integers(0, params.v, size=(n, params.k), dtype=CELL_DTYPE)


def _colex_unrank(
        ranks: np.ndarray, binomials: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``core.colex_unrank`` of each rank, one subset per row of ``out`` (a
    new intp array by default), reducing the ranks, a new array, in place.
    binomials[i - 1, c] is C(c, i), capped at any bound above the ranks."""
    ranks = np.asarray(ranks, dtype=np.intp)
    sets = np.empty((len(ranks), len(binomials)), dtype=np.intp) if out is None else out
    for i in range(len(binomials), 1, -1):  # the largest c with C(c, i) <= rank
        sets[:, i - 1] = binomials[i - 1].searchsorted(ranks, side="right") - 1
        ranks -= binomials[i - 1, sets[:, i - 1]]
    sets[:, 0] = ranks  # C(c, 1) = c
    return sets


def _block_ranges(
    t: int, k: int, column: int, sub: int, span: int, group: int
) -> Iterator[tuple[int, int, int]]:
    """The kernel's blocks from C(column, t), the first set ending at
    ``column``, as (lo, hi, step): set ranks lo..hi-1, ranked ``step`` sets
    at a time.  A block holds whole consecutive last columns while they
    fit ``sub`` sets, the rank buffer, and ``span`` prefixes, the window;
    it is ranked whole.  A column of more is a block alone, cut in parts
    of ``group`` sets, and ranked at most ``sub`` and ``span`` at a time."""
    step = min(sub, span)
    lo = hi = math.comb(column, t)
    for c in range(column, k):
        count = math.comb(c, t - 1)
        if hi > lo and (hi - lo + count > sub or count > step):
            yield lo, hi, sub
            lo = hi
        if count > step:
            for a in range(hi, hi + count, group):
                yield a, min(a + group, hi + count), step
            lo = hi + count
        hi += count
    if hi > lo:
        yield lo, hi, sub


class _Kernel:
    """The coverage kernel, planned once per build for its n x k cell
    matrices and reused by every scan the build makes, one scan at a time.
    ``tables`` yields blocks that together hold every column t-set once, in
    colex order, from C(column, t) on: the first set ending at ``column``,
    the very first by default.  A block is a pair (lo, seen): the colex
    rank of its first set, and its seen table, one row per set of rank lo,
    lo+1, ...: seen[j, i] is True iff some row's symbol tuple on set lo + j
    has rank i or, given ``orbits``, lies in orbit i.  The kernel unranks
    no set: set lo + j is the colex unrank of lo + j, and each consumer
    unranks only the sets it reads.

    The t-sets ending at column c are the first C(c, t-1) (t-1)-prefixes
    in colex order plus c, and a tuple's rank is its prefix's rank times v
    plus its symbol in c: a block's ranks take one gather from a window of
    prefix ranks and one from the columns.  With ``slots`` (v**t, or the
    orbits) over 64 they are scattered into one flat table.  Up to 64,
    each set's table is the bits of one word, uint32 up to 32 slots and
    uint64 up to 64: each rank becomes its bit, by a shift, or by a gather
    from a table of each tuple's orbit's bit, the bits are ORed along the
    rows into the set's word, and the block's words, little-endian, unpack
    into its seen table.
    The window is one row chunk's: ``columns[c]`` holds the chunk's
    symbols in column c, and ``ranks`` the ranks of the (t-1)-prefixes of
    colex rank first..end-1, at most ``span``, one row each.  A prefix's
    rank is its symbols read in base v, first column first, so a range of
    prefixes is filled from the columns alone: one colex unrank, then one
    gather and t-2 multiply-adds in place, ``piece`` prefixes at a time.
    The last piece's unrank is kept: a block's row chunks fill the same
    pieces, and so do a build's scans.

    Of the working budget, ``budget.working``, a row chunk's columns and
    window take up to half; a window fill's temporaries an eighth; a
    block's seen table, its sets when a consumer unranks them, its colex
    split and its sets' offsets or words a quarter; and the rank buffer of
    ``sub`` sets, 1/128 in the bytes of its entries (intp, or the word, so
    uint32 words step twice the sets), which keeps it in cache, with the
    sets' tuple ranks beside it in a dtype that holds v**t.  A block holds
    whole consecutive last columns while they fit the rank buffer, and is
    ranked whole; a larger column is a block alone, cut in parts when it
    is over that quarter, and ranked up to ``sub`` sets at a time.

    When the columns and all C(k-1, t-1) top prefixes of all rows do not
    fit, the rows go in chunks whose tables are ORed, and a block fills
    each chunk's window only as far as it reads; one chunk of all the rows
    (every bench shape) keeps its window for the whole scan and fills it
    once.  When one row's do not fit, the window holds part of the top
    prefixes, starts again at a block's first prefix when it cannot reach
    it, and ranks a column whose prefixes it cannot hold a window at a
    time.  The column-set cap and every table (the words and the orbit
    bits, the columns and window, the fill's temporaries, the seen table,
    the block's sets, split and offsets, the rank buffers) are priced
    against the caller's ``budget`` when the kernel is planned, before the
    first is allocated, and the window, rank buffers and orbit bits are
    allocated then, once: a scan reads no cap and allocates only its
    blocks.

    Scans take the raw cell matrix rather than a SymbolArray, whose buffer
    is frozen, so that the resampling loop can rewrite columns between
    scans.
    """

    def __init__(
        self, params: CAParams, n: int, budget: Budget, orbits: OrbitTable | None = None
    ) -> None:
        t, k, v = params.t, params.k, params.v
        slots = params.tuple_count if orbits is None else orbits.n_orbits
        budget.check_column_sets(k, t, "coverage scan")
        dtype = np.min_scalar_type(v ** (t - 1) - 1)
        m, size = math.comb(k, t), math.comb(k - 1, t - 1)  # the sets and the top prefixes
        entries = budget.working // 2 // dtype.itemsize  # column and window entries it holds
        chunk = max(1, min(n, entries // (k + size), budget.working // 1024))
        span = max(1, min(size, entries // chunk - k))
        fill = 8 * (t + 3) + chunk * dtype.itemsize  # a prefix's unrank and its gather
        piece = max(1, min(span, budget.working // 8 // fill))
        group = max(1, min(m, budget.working // 4 // (slots + 8 * (t + 3))))
        # a set's seen slots as the bits of one word, little-endian so that
        # its bytes unpack in slot order; past 64 slots, a bool row
        word = None if slots > 64 else np.dtype("<u4" if slots <= 32 else "<u8")
        lane = 8 if word is None else word.itemsize  # a rank buffer entry's bytes
        sub = max(1, min(group, budget.working // 128 // (lane * chunk)))
        if word is not None:
            budget.check_table_bytes(group, word.itemsize, "coverage words")
            if orbits is not None:
                budget.check_table_bytes(v**t, word.itemsize, "coverage orbit bits")
        budget.check_table_bytes(chunk * (k + span), dtype.itemsize, "coverage prefix window")
        budget.check_table_bytes(piece, fill, "coverage window fill")
        budget.check_table_bytes(group * slots, 1, "coverage mask")
        budget.check_table_bytes(group * (t + 3), 8, "coverage column sets")
        tuples = np.min_scalar_type(v**t - 1)  # a tuple rank's dtype
        budget.check_table_bytes(sub * chunk, lane + tuples.itemsize, "coverage rank buffer")
        self.params, self.budget, self.orbits, self.slots = params, budget, orbits, slots
        self.size, self.chunk, self.span, self.piece, self.group = size, chunk, span, piece, group
        # the colex table: binomials[i - 1, c] is C(c, i), capped at m, above every set rank
        self.binomials = np.array([[min(math.comb(c, i), m) for c in range(k)]
                                   for i in range(1, t + 1)])
        self.store = np.empty(chunk * (k + span), dtype=dtype)  # flat: each load contiguous
        self.prefixes = np.empty((t - 1, piece), dtype=np.intp)
        self.buffer = np.empty((sub, chunk), dtype=np.intp if word is None else word)
        self.tuple_buffer = np.empty((sub, chunk), dtype=tuples)
        self.word, self.lookup = word, None if orbits is None else orbits.orbit_id_of
        if word is None:
            self.offsets = np.arange(group, dtype=np.intp)[:, None] * slots  # a set's place
        elif orbits is not None:  # each tuple rank's orbit as a bit
            self.lookup = np.left_shift(word.type(1), orbits.orbit_id_of.astype(word))
        self.unranked = self.first = self.end = 0  # the kept piece's range, and the window's

    def load(self, rows: np.ndarray) -> None:
        """Start on a new row chunk, its window empty at the same first."""
        n, k = len(rows), self.params.k
        self.columns = self.store[: k * n].reshape(k, n)
        self.columns[...] = rows.T
        self.ranks = self.store[k * n : (k + self.span) * n].reshape(self.span, n)
        self.end = self.first

    def hold(self, lo: int, hi: int, reach: int) -> None:
        """Make the window hold the prefixes lo..hi-1, filled on toward
        ``reach``, past the last prefix the chunk's next blocks read: it
        extends from its end when that reaches hi, else starts again at lo."""
        first, end = self.first, self.end
        if lo < first or lo > end or hi > first + self.span:
            first = end = self.first = lo
        self.end = max(end, min(first + self.span, reach))
        for a in range(end, self.end, self.piece):
            b = min(a + self.piece, self.end)
            prefixes = self.prefixes[:, : b - a]
            if self.unranked != (a, b):
                self.unranked = a, b
                # C(c, i) for i < t
                _colex_unrank(np.arange(a, b), self.binomials[:-1], out=prefixes.T)
            out = self.ranks[a - first : b - first]
            self.columns.take(prefixes[0], axis=0, out=out, mode="clip")
            for c in prefixes[1:]:
                out *= self.params.v
                out += self.columns[c]

    def tables(self, cells: np.ndarray, column: int = 0) -> Iterator[tuple[int, np.ndarray]]:
        """The blocks (lo, seen) of ``cells`` from C(column, t) on."""
        t, k, v = self.params.t, self.params.k, self.params.v
        n, chunk, slots, word = len(cells), self.chunk, self.slots, self.word
        self.load(cells[:chunk])  # one chunk of all the rows is loaded once
        for lo, hi, step in _block_ranges(t, k, column, len(self.buffer), self.span, self.group):
            if word is None:
                seen = np.zeros((hi - lo) * slots, dtype=bool)
            else:
                words = np.zeros(hi - lo, dtype=word)
            parents = np.arange(lo, hi)  # the colex split: each set's prefix and last column
            last = self.binomials[t - 1, 1:].searchsorted(parents, side="right")  # C(0, t) = 0
            parents -= self.binomials[t - 1, last]
            reach = self.size if chunk >= n else parents[-1] + 1  # past the block's last prefix
            for start in range(0, n, chunk):
                if chunk < n:  # of several, each block loads each again
                    self.load(cells[start : start + chunk])
                for a in range(lo, hi, step):
                    b = min(a + step, hi)
                    # a step's prefixes run from its first set's to its last set's
                    self.hold(parents[a - lo], parents[b - 1 - lo] + 1, reach)
                    ranks = self.buffer[: b - a, : self.ranks.shape[1]]
                    tuple_ranks = self.tuple_buffer[: b - a, : ranks.shape[1]]
                    np.multiply(self.ranks[parents[a - lo : b - lo] - self.first], v,
                                out=tuple_ranks, dtype=tuple_ranks.dtype)
                    tuple_ranks += self.columns[last[a - lo : b - lo]]
                    if self.orbits is not None:  # each rank's orbit, or its orbit's bit
                        # every rank is below v**t, so "clip" clips none; it
                        # writes straight to out, where "raise" buffers it
                        np.take(self.lookup, tuple_ranks, out=ranks, mode="clip")
                    if word is None:  # each rank's place in the block's flat table
                        if self.orbits is None:
                            np.add(tuple_ranks, self.offsets[a - lo : b - lo], out=ranks)
                        else:
                            ranks += self.offsets[a - lo : b - lo]
                        seen[ranks] = True
                    else:  # a bit per row, ORed along the rows into its set's word
                        if self.orbits is None:
                            ranks[...] = tuple_ranks
                            np.left_shift(1, ranks, out=ranks)
                        words[a - lo : b - lo] |= np.bitwise_or.reduce(ranks, axis=1)
            if word is not None:
                seen = np.unpackbits(words.view(np.uint8).reshape(hi - lo, word.itemsize),
                                     axis=1, count=slots, bitorder="little").view(bool)
            yield lo, seen.reshape(hi - lo, slots)


def _uncovered_scan(kernel: _Kernel, cells: np.ndarray, keep: int) -> tuple[int, np.ndarray]:
    """One kernel pass: the exact uncovered count and, if that count is at
    most ``keep``, the uncovered interactions as rows (columns..., tuple
    rank) in rank order.  Past ``keep`` the listing is empty (t+1 columns,
    no rows) and only the count goes on.  The listing's largest size is
    checked against the kernel's memory cap before the pass."""
    kernel.budget.check_table_bytes(keep * (kernel.params.t + 1), 8, "uncovered listing")
    count = 0
    found = []  # (set rank, tuple rank) rows
    for lo, seen in kernel.tables(cells):
        missing = seen.size - int(np.count_nonzero(seen))
        count += missing
        if missing and count <= keep:
            which, ranks = np.nonzero(~seen)
            found.append(np.column_stack([lo + which, ranks]))
    if not count or count > keep:  # nothing listed
        return count, np.empty((0, kernel.params.t + 1), dtype=np.int64)
    found = np.vstack(found, dtype=np.int64)
    # the set ranks are sorted: each set is unranked once, in one call for
    # the scan, and repeated for its uncovered tuples
    sets, counts = np.unique(found[:, 0], return_counts=True)
    columns = np.repeat(_colex_unrank(sets, kernel.binomials), counts, axis=0)
    return count, np.column_stack([columns, found[:, 1]])


def count_uncovered(array: SymbolArray) -> int:
    """Exact number of uncovered interactions, streamed block by block
    through the kernel (never a global interaction list)."""
    kernel = _Kernel(array.params, array.n_rows, Budget.from_env())
    return _uncovered_scan(kernel, array.cells, 0)[0]


def _stage1_rows(params: CAParams, method: str, config: BuildConfig) -> int:
    """The override, else the stage-1 rows of the bound ``method`` names in
    ``bounds.METHODS``: the two-stage minimizer, or the local lemma
    threshold under an action's kind."""
    if config.n_override is not None:
        return config.n_override
    return bounds.METHODS[method](params, config.dependence_estimate).stage1_rows


def two_stage_build(
    params: CAParams, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """Random stage-1 array of the optimal size, retried until its uncovered
    count meets the target, at most ``MAX_STAGE1_ATTEMPTS`` times (read
    when the build runs; past it the build fails and patches its best
    draw), then one patch step: each leftover, in the
    listing's rank order, is given a patch row, all patch rows are drawn
    uniformly at random at once, and each leftover's symbols are written
    into its row.  ``one_row_each`` gives leftover i row i; ``colour``
    gives it the first row whose fixed cells agree with it, else a new one
    (``_first_fit_rows``)."""
    config = config or BuildConfig()
    n = _stage1_rows(params, "two_stage", config)
    target = bounds.two_stage_objective(params, n) - n  # the leftovers the bound prices
    rng = np.random.default_rng(config.seed)
    budget = Budget.from_env()
    log = BuildLog(strategy="two_stage", stage1_rows=n)

    with log.timed("stage1"):
        best = None
        for attempt in range(1, MAX_STAGE1_ATTEMPTS + 1):
            cells = _random_rows(rng, params, n, "stage-1 rows", budget)
            if attempt == 1:  # the first draw's check, its listing's, then the kernel's
                budget.check_table_bytes(target * (params.t + 1), 8, "uncovered listing")
                kernel = _Kernel(params, n, budget)
            u, leftovers = _uncovered_scan(kernel, cells, target)
            if best is None or u < best[1]:
                best = cells, u, leftovers
            if u <= target:
                break
        else:
            log.failure_reason = f"stage 1 missed target {target} in {MAX_STAGE1_ATTEMPTS} attempts"
        best_cells, best_uncovered, leftovers = best
        log.stage1_attempts = attempt
        log.uncovered_after_stage1 = best_uncovered

    with log.timed("stage2"):
        if best_uncovered > target:  # missed: list the best attempt's leftovers
            leftovers = _uncovered_scan(kernel, best_cells, best_uncovered)[1]
        del kernel  # its tables are not held through the patch rows
        cols = leftovers[:, :-1]
        symbols = leftovers[:, -1:] // place_values(params.t, params.v) % params.v
        if config.second_stage == "colour":
            rows = _first_fit_rows(params, cols, symbols, budget)
        else:
            rows = np.arange(len(cols))
        patches = _random_rows(
            rng, params, int(rows.max(initial=-1)) + 1, "stage-2 patch rows", budget)
        patches[rows[:, None], cols] = symbols
        log.stage2_rows = len(patches)
    return SymbolArray(params, np.vstack([best_cells, patches])), log


def _first_fit_rows(
    params: CAParams, cols: np.ndarray, symbols: np.ndarray, budget: Budget
) -> np.ndarray:
    """Greedy first-fit colouring of the leftovers (Sarkar & Colbourn,
    "Two-stage algorithms for covering array construction"): the patch row
    of each leftover in turn, the first row whose fixed cells agree with it
    on its t columns, else a new row.  Rows are bits of Python integers:
    ``free[c]`` has the rows whose column c is not yet fixed (every row not
    yet opened too, as it starts at -1, all ones) and ``holds[c * v + s]``
    those that hold s in column c.  A leftover's row is the lowest bit set
    in every one of its columns' free | holds.  The bitsets, at most k plus
    one per (column, symbol) the leftovers name, each of at most one bit
    per leftover, are checked against the memory cap first."""
    k, v = params.k, params.v
    budget.check_table_bytes(k + min(k * v, cols.size), len(cols) // 8 + 1, "stage-2 colour classes")
    free, holds, rows = [-1] * k, defaultdict(int), []
    for c, key in zip(cols.tolist(), (cols * v + symbols).tolist()):
        fits = -1
        for col, x in zip(c, key):
            fits &= free[col] | holds[x]
        bit = fits & -fits
        rows.append(bit.bit_length() - 1)
        for col, x in zip(c, key):
            free[col] &= ~bit
            holds[x] |= bit
    return np.array(rows, dtype=np.intp)


class _DensityState:
    """The coverage state of the density algorithm: the C(k,t) x v**t mask
    of uncovered interactions and its prefix counts, built by one pass of
    the coverage kernel and then updated one added row at a time, never
    rescanned.

    ``sets`` is the m x t column-set matrix in colex order (m = C(k,t)).
    ``levels[l - 1][i, r]``, for l = 1..t, counts the uncovered tuples on
    ``sets[i]`` whose first l symbols have rank r.  Level t is the mask
    itself: ``levels[-1][i, r]`` is nonzero iff the tuple of rank r on
    ``sets[i]`` is in no row yet.  The levels are one flat table,
    ``counts``, level after level, in the smallest unsigned dtype that
    holds v**(t-1): about v/(v-1) times the mask.  Each level's entries go
    set by set, so a prefix's entry at flat index x - m (or set i's empty
    prefix, x = i) has the entries of its v extensions at x*v .. x*v + v-1,
    row x of ``counts`` viewed as v columns: a set's running index x moves
    one level down with one multiply-add, whatever its level.
    ``_held[j]`` lists the sets holding column j and ``_weights[j]`` their
    v**(p+1), p the column's position in each.  The mask, the whole count
    table, the column index (the set matrix and its unrank's temporaries,
    ``_held``, ``_weights`` and the running indices) and the exact-integer
    score range are checked before anything is allocated.
    """

    def __init__(self, params: CAParams, cells: np.ndarray, budget: Budget) -> None:
        t, k, v = params.t, params.k, params.v
        m = math.comb(k, t)
        dtype = np.min_scalar_type(v ** (t - 1))
        sizes = [m * v**l for l in range(1, t + 1)]  # levels 1..t
        budget.check_table_bytes(sizes[-1], dtype.itemsize, "density coverage mask")
        budget.check_table_bytes(sum(sizes), dtype.itemsize, "density count table")
        budget.check_table_bytes(3 * m * t + m, np.dtype(np.intp).itemsize, "density column index")
        if m * v ** (2 * t) >= 2**63:  # so counts are at most uint32, and scores int64
            raise ResourceLimitError(
                f"density scores for {params} could exceed the int64 range"
            )
        self.params = params
        kernel = _Kernel(params, len(cells), budget)  # dropped after its one pass
        self.sets = _colex_unrank(np.arange(m), kernel.binomials)
        self.counts = np.empty(sum(sizes), dtype=dtype)
        starts = np.cumsum([0] + sizes)
        self.levels = [self.counts[a:b].reshape(m, -1) for a, b in zip(starts, starts[1:])]
        for lo, seen in kernel.tables(cells):
            self.levels[-1][lo : lo + len(seen)] = ~seen
        for l in range(t - 1, 0, -1):  # level l sums level l+1 over its last symbol
            self.levels[l].reshape(m, v**l, v).sum(axis=2, dtype=dtype, out=self.levels[l - 1])
        self.remaining = int(np.count_nonzero(self.levels[-1]))
        self._places = place_values(t, v)  # v**(t-l) for l = 1..t: a level's rank divisor
        self._starts = starts[:-1, None]
        order = np.argsort(self.sets, axis=None, kind="stable")  # by column, then set
        cuts = np.searchsorted(self.sets.ravel()[order], np.arange(k + 1))
        held = order // t
        order %= t  # each set's position of the column, then its weight
        order += 1
        np.power(v, order, out=order)
        self._held = [held[a:b] for a, b in zip(cuts, cuts[1:])]
        self._weights = [order[a:b] for a, b in zip(cuts, cuts[1:])]

    def choose_row(self) -> np.ndarray:
        """Fix cells left to right, each maximizing its exact score.

        A set holding column j at position p adds v**(p+1) to symbol s for
        each uncovered tuple with s at p that matches the cells already
        fixed at positions 0..p-1: the tuple's coverage probability scaled
        by v**t.  That count is the level p+1 entry below the set's running
        index, so a column takes one gather over the sets holding it.  Ties
        go to the smaller symbol.
        """
        m, v = len(self.sets), self.params.v
        children = self.counts.reshape(-1, v)  # row x: the entries below index x
        index = np.arange(m, dtype=np.int64)  # level 0
        row = np.empty(self.params.k, dtype=CELL_DTYPE)
        for j, (held, weights) in enumerate(zip(self._held, self._weights)):
            at = index[held]
            row[j] = s = weights.dot(children.take(at, axis=0)).argmax()
            index[held] = at * v + (s + m)
        return row

    def add_row(self, row: np.ndarray) -> None:
        """Mark the new row's C(k,t) tuples covered: each newly covered one
        leaves the mask and takes one off its prefix's count at every
        level, in one subtract (the indices are distinct)."""
        m, vt = len(self.sets), self.params.tuple_count
        ranks = row[self.sets] @ self._places
        new = np.flatnonzero(self.levels[-1][np.arange(m), ranks])
        self.remaining -= len(new)
        places = self._places[:, None]
        self.counts[self._starts + new * (vt // places) + ranks[new] // places] -= 1


def density_build(array: SymbolArray) -> SymbolArray:
    """Append greedy density rows (Bryce & Colbourn) until the array covers
    everything.  Each row fixes its cells left to right, each chosen to
    minimize the conditional expected number of interactions left
    uncovered, in exact integer arithmetic (``_DensityState.choose_row``).
    The coverage state is built once and updated per row."""
    state = _DensityState(array.params, array.cells, Budget.from_env())
    rows = []
    while state.remaining:
        row = state.choose_row()
        state.add_row(row)
        rows.append(row)
    return SymbolArray(array.params, np.vstack([array.cells, *rows]))


def _density_only(params: CAParams, config: BuildConfig) -> tuple[SymbolArray, BuildLog]:
    """The ``density`` strategy: greedy density rows from the empty array.
    It draws nothing, so it reads no config, not even the seed."""
    log = BuildLog(strategy="density")
    with log.timed("density"):
        array = density_build(SymbolArray.empty(params))
    log.stage2_rows = array.n_rows
    return array, log


def _resample_full_orbits(
    params: CAParams,
    table: OrbitTable,
    n: int,
    rng: np.random.Generator,
    cap: int,
    log: BuildLog,
    budget: Budget,
) -> np.ndarray:
    """Core resampling loop: an n x k random array, rescanned after each
    resample, until every full orbit (``table.full_orbit_ids``, the bound's
    events) is covered on every column t-set.  Returns the array; sets
    the log's ``failure_reason`` once ``cap`` resamples are made and a
    full orbit is still missing (``_orbit_build`` passes ``RESAMPLE_CAP``),
    or at once if there are fewer rows than full orbits.

    Orbit coverage is decided from the OrbitTable alone: per block of
    column sets, a boolean table indexed by orbit id.  The first offender
    is the block's first set whose table misses a full orbit; its colex
    position is the block's first rank plus its row, and only it is
    unranked, and only when it is resampled, by ``core.colex_unrank``.  A
    rescan starts at C(a, t), a the lowest column just resampled: every set
    before it holds no resampled column and came before the offender, so
    it is still hit, and the first offender is the one a scan from the
    start would find."""
    cells = _random_rows(rng, params, n, "stage-1 rows", budget)
    full_ids = np.array(table.full_orbit_ids, dtype=np.int64)
    if full_ids.size == 0:
        return cells
    if n < full_ids.size:  # a row hits one orbit per column set
        log.failure_reason = (
            f"fewer stage-1 rows ({n}) than full orbits of a column set ({full_ids.size})")
        return cells
    kernel = _Kernel(params, n, budget, table)
    column = 0  # every set ending before this column is hit
    while True:
        for lo, seen in kernel.tables(cells, column):
            hit = seen[:, full_ids].all(axis=1)
            if not hit.all():
                break
        else:
            return cells
        pos = lo + int(hit.argmin())  # the first set missing a full orbit
        if log.resample_count >= cap:
            log.failure_reason = f"resample cap {cap} reached at scan position {pos}"
            return cells
        columns = colex_unrank(pos, params.t)
        for c in columns:
            cells[:, c] = rng.integers(0, params.v, size=n, dtype=CELL_DTYPE)
        column = columns[0]
        log.resample_count += 1
        log.resample_witness.append(pos)


def moser_tardos_build(
    params: CAParams, action: GroupAction, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """The orbit builder under any action with a bound: cyclic, Frobenius
    or PGL (the same arrays as ``pgl_build``)."""
    return _orbit_build(params, action, config or BuildConfig(), Budget.from_env())


def pgl_build(
    params: CAParams, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """The orbit builder under the sharply 3-transitive PGL action."""
    return _orbit_build(params, make_pgl(params.v), config or BuildConfig(), Budget.from_env())


def _orbit_build(
    params: CAParams, action: GroupAction, config: BuildConfig, budget: Budget
) -> tuple[SymbolArray, BuildLog]:
    """Resample n rows until every full orbit is hit, develop them over the
    group, then cover the short orbits of a sharply l-transitive action: v
    constant rows when l >= 2 and, when l = 3, the pair rows, drawn from a
    seed stream of their own."""
    # each local lemma bound under a group action has a builder; "gss" has no group
    if action.kind not in bounds.DEPENDENCE_METHODS or action.kind == "gss":
        raise ValueError(f"no orbit builder for action kind {action.kind!r}")
    if action.degree != params.v:
        raise ValueError(f"action degree {action.degree} does not match v={params.v}")
    ell = action.sharp_transitivity
    n = _stage1_rows(params, action.kind, config)
    strategy = "pgl" if ell == 3 else f"mt_{action.kind}"
    log = BuildLog(strategy=strategy, stage1_rows=n, group_order=action.order)
    seed = config.seed
    if ell == 3:
        seed, pair_seed = (
            int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(2)
        )
    table = enumerate_orbits(action, params.t)

    with log.timed("resample"):
        rng = np.random.default_rng(seed)
        cells = _resample_full_orbits(params, table, n, rng, RESAMPLE_CAP, log, budget)
    with log.timed("develop"):
        pieces = [develop(SymbolArray(params, cells), action).cells]
    if ell == 3:
        with log.timed("pairs"):
            pieces.append(_pair_rows(params, replace(config, seed=pair_seed), log, budget))
            log.stage2_rows = len(pieces[-1])
    if ell >= 2:
        pieces.append(constant_rows(params).cells)
        log.short_orbit_rows = params.v
    return SymbolArray(params, np.vstack(pieces)), log


def _pair_rows(params: CAParams, config: BuildConfig, log: BuildLog, budget: Budget) -> np.ndarray:
    """One binary covering array mapped onto every symbol pair a < b: the
    two-symbol orbits.  It comes from the builder with the smaller bound at
    v = 2, the cyclic one only when strictly smaller.  That keeps a
    successful PGL build within ``pgl_lll_bound``, which prices the pairs
    by the cyclic bound, at the cost of the rows two-stage's leftovers can
    save below its own bound (832 rows against 844 at (3,30,4), seed 1)."""
    binary_params = CAParams(params.t, params.k, 2)
    two_stage = bounds.two_stage_bound(binary_params)
    cyclic = bounds.cyclic_lll_bound(binary_params, config.dependence_estimate)
    if cyclic.value < two_stage.value:
        binary, blog = _orbit_build(binary_params, make_cyclic(2),
                                    replace(config, n_override=cyclic.stage1_rows), budget)
    else:
        binary, blog = two_stage_build(
            binary_params, replace(config, n_override=two_stage.stage1_rows))
    if not blog.success:
        log.failure_reason = f"binary stage: {blog.failure_reason}"
    budget.check_table_bytes(
        math.comb(params.v, 2) * binary.cells.size, binary.cells.itemsize, "pair rows")
    return np.vstack([
        np.where(binary.cells == 0, a, b).astype(CELL_DTYPE)
        for a in range(params.v)
        for b in range(a + 1, params.v)
    ])


class Strategy(NamedTuple):
    """A ``build --strategy`` choice: its builder and the BuildConfig fields
    it reads besides the seed."""

    build: Callable[[CAParams, BuildConfig], tuple[SymbolArray, BuildLog]]
    reads: tuple[str, ...]


_TWO_STAGE_FIELDS = ("n_override", "second_stage")
_ORBIT_FIELDS = ("n_override", "dependence_estimate")

# strategy name -> Strategy; pgl reads the two-stage fields too, for the pair
# rows it takes from two_stage_build
STRATEGIES = {
    "two_stage": Strategy(two_stage_build, _TWO_STAGE_FIELDS),
    "mt_cyclic": Strategy(
        lambda p, c: moser_tardos_build(p, make_cyclic(p.v), c), _ORBIT_FIELDS),
    "mt_frobenius": Strategy(
        lambda p, c: moser_tardos_build(p, make_frobenius(p.v), c), _ORBIT_FIELDS),
    "pgl": Strategy(pgl_build, _TWO_STAGE_FIELDS + _ORBIT_FIELDS[1:]),
    "density": Strategy(_density_only, ()),
}
