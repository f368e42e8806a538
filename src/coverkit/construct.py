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
draws.  Every row table a builder allocates (stage-1 rows, the leftover
listing, the colour classes, stage-2 patch rows, developed and pair
rows) is checked against the memory cap first.  All coverage questions -
the uncovered scan, the density state and the resampling scan - go
through one kernel, ``_coverage_tables``.  It yields the column t-sets
in colex order, one block per last column, ranks every row's tuples from
prefix ranks that the sets share, and keeps what is in flight within the
working budget of ``limits``.  A block holds a rank range of prefixes,
its last column and its seen table, not its sets: each consumer unranks
only the sets it reads.  The resampling scan unranks one set per
resample, the uncovered scan the sets of its listing, and the density
state, the one consumer that reads them all, every block whole.  The
uncovered scan counts and lists in one pass: the exact count, and the
uncovered interactions in rank order while that count stays within a cap
(the stage-1 target), so a two-stage build never holds a table of all
interactions.  The density state is the one table of all C(k,t) * v**t
interactions: a mask of the uncovered ones, built by one kernel pass,
updated as each row is added, and checked against the memory cap before
it is allocated.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Literal, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from . import bounds, limits
from .errors import ResourceLimitError
from ._numeric import floor_scaled_power
from .core import CAParams, CELL_DTYPE, CELL_MAX, SymbolArray
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


@dataclass(frozen=True)
class BuildConfig:
    """Knobs shared by the builders.  The seed fully determines all draws."""

    seed: int = DEFAULT_SEED
    max_stage1_attempts: int = 1000
    resample_step_cap: int = 10_000
    dependence_estimate: bounds.Dependence = "simple"
    second_stage: Literal["one_row_each", "colour"] = "one_row_each"
    n_override: int | None = None

    def __post_init__(self) -> None:
        for name in ("seed", "n_override"):
            if (getattr(self, name) or 0) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.max_stage1_attempts < 1:
            raise ValueError("need at least one stage-1 attempt")
        if self.resample_step_cap < 0:
            raise ValueError("resample cap must be nonnegative")
        for name, choices in _CONFIG_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {', '.join(choices)}, got {getattr(self, name)!r}"
                )


# BuildConfig field -> the choices of its Literal annotation
_CONFIG_CHOICES = {
    name: get_args(hint)
    for name, hint in get_type_hints(BuildConfig).items()
    if get_origin(hint) is Literal
}


@dataclass
class BuildLog:
    """What a builder did: row accounting, attempts, resamples, timings.
    Each phase is timed by ``timed``, under its name in ``elapsed``.
    ``resample_witness`` holds the scan positions of the column sets the
    last 16 resamples redrew, oldest first; ``resample_count`` counts all."""

    strategy: str
    stage1_rows: int = 0
    stage1_attempts: int = 0
    uncovered_after_stage1: int = 0
    resample_count: int = 0
    stage2_rows: int = 0
    short_orbit_rows: int = 0
    group_order: int = 1
    success: bool = True
    failure_reason: str | None = None
    elapsed: dict[str, float] = field(default_factory=dict)
    resample_witness: deque[int] = field(default_factory=lambda: deque(maxlen=16))

    @property
    def total_rows(self) -> int:
        return self.stage1_rows * self.group_order + self.short_orbit_rows + self.stage2_rows

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
    """n x k array with cells i.i.d. uniform on 0..v-1, deterministic in seed."""
    if n < 0:
        raise ValueError("row count must be nonnegative")
    return SymbolArray(params, _random_rows(np.random.default_rng(seed), params, n, "random rows"))


def _random_rows(rng: np.random.Generator, params: CAParams, n: int, what: str) -> np.ndarray:
    """n x k cells i.i.d. uniform on 0..v-1, checked against the memory cap
    and the largest symbol an array holds before they are drawn."""
    if params.v - 1 > CELL_MAX:
        raise ValueError(f"v={params.v}: symbols past {CELL_MAX}, the largest symbol an array holds")
    limits.check_table_bytes(n * params.k, np.dtype(CELL_DTYPE).itemsize, what)
    return rng.integers(0, params.v, size=(n, params.k), dtype=CELL_DTYPE)


def _place_values(params: CAParams) -> np.ndarray:
    """v**(t-1), ..., v, 1: the base-v place values that rank a symbol tuple."""
    return params.v ** np.arange(params.t - 1, -1, -1, dtype=np.int64)


def _colex_unrank(ranks: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """``core.colex_unrank`` of each rank, one subset per row.
    binomials[i - 1, c] is C(c, i), capped at any bound above the ranks."""
    ranks = np.array(ranks, dtype=np.intp)  # a copy: it is reduced in place
    sets = np.empty((len(ranks), len(binomials)), dtype=np.intp)
    for i in range(len(binomials), 0, -1):  # the largest c with C(c, i) <= rank
        sets[:, i - 1] = np.searchsorted(binomials[i - 1], ranks, side="right") - 1
        ranks -= binomials[i - 1, sets[:, i - 1]]
    return sets


class _Block(NamedTuple):
    """One block of the coverage kernel: the column t-sets whose last
    column is ``c`` and whose (t-1)-prefixes have colex rank lo, lo+1, ...,
    one per row of their seen table.  The sets are not held; ``sets``
    unranks the rows a consumer reads."""

    lo: int
    c: int
    seen: np.ndarray
    binomials: np.ndarray  # the kernel's table for ``_colex_unrank``

    def sets(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The column sets of the given rows (all of them by default), as
        an intp array of one set per row."""
        prefixes = self.lo + (np.arange(len(self.seen)) if rows is None else np.asarray(rows))
        sets = np.empty((len(prefixes), len(self.binomials) + 1), dtype=np.intp)
        sets[:, :-1], sets[:, -1] = _colex_unrank(prefixes, self.binomials), self.c
        return sets


class _PrefixLevels:
    """The prefix ranks of one row chunk, as levels: level 0 is the empty
    prefix, level 1 the columns, and level l >= 2 a window over the
    l-prefixes of colex rank first[l]..end[l]-1, at most spans[l] of them
    (one column of each level array per row).  The l-prefixes ending at
    column e are the (l-1)-prefixes before e times v plus column e, so a
    level is filled from the one below, as far as the one above asks, and
    nothing is gathered.  table[l - 1][e] is C(e, l), capped at the number
    of top-level prefixes."""

    def __init__(self, spans: list[int], chunk: int, dtype: np.dtype,
                 table: list[list[int]], v: int) -> None:
        self.spans, self.table, self.v = spans, table, v
        self.store = [np.zeros((1, chunk), dtype=dtype)]
        self.store += [np.empty((span, chunk), dtype=dtype) for span in spans[1:]]

    def load(self, rows: np.ndarray) -> None:
        """Start on a new row chunk: every window empty."""
        self.levels = [level[:, : len(rows)] for level in self.store]
        self.levels[1][...] = rows.T
        self.first = [0] * len(self.spans)
        self.end = self.spans[:2] + [0] * (len(self.spans) - 2)

    def ranks(self, l: int, lo: int, hi: int) -> np.ndarray:
        """Level l's prefixes of rank lo..hi-1, which it must hold."""
        return self.levels[l][lo - self.first[l] : hi - self.first[l]]

    def fill(self, l: int, lo: int, hi: int) -> None:
        """Make level l hold the prefixes of rank lo..hi-1 (at most its
        span), extending its window or, when that cannot reach hi,
        restarting it at lo."""
        first, end, spans = self.first, self.end, self.spans
        if lo < first[l] or lo > end[l] or hi - first[l] > spans[l]:
            first[l] = end[l] = lo
        while end[l] < hi:  # the l-prefixes ending at e, no more than level l-1 holds
            e = bisect_right(self.table[l - 1], end[l]) - 1
            a = self.table[l - 1][e]
            b = min(math.comb(e + 1, l), hi, end[l] + spans[l - 1])
            self.fill(l - 1, end[l] - a, b - a)
            part = self.ranks(l, end[l], b)
            np.multiply(self.ranks(l - 1, end[l] - a, b - a), self.v, out=part)
            part += self.levels[1][e]
            end[l] = b


def _coverage_tables(
    params: CAParams,
    cells: np.ndarray,
    orbits: OrbitTable | None = None,
) -> Iterator[_Block]:
    """The coverage kernel: yield ``_Block``s that together hold every
    column t-set once, in colex order.  A block is a rank range of
    (t-1)-prefixes, its last column c and its seen table: seen[j, i] is
    True iff some row's symbol tuple on the block's j-th set has rank i
    or, given ``orbits``, lies in orbit i.  The kernel unranks no set.
    Each consumer unranks what it reads: the resampling scan its first
    offender, the uncovered scan the sets of its listing while it keeps
    one, and only the density state every set of every block.

    Of the working budget, ``limits.working_bytes()``, the prefix levels
    of one row chunk take up to half, one block's seen table and its sets,
    when a consumer unranks them all, a quarter, and the rank buffer
    1/128, which keeps it in cache.  The t-sets ending at column c are the
    first C(c, t-1) (t-1)-prefixes in colex order plus c, so each c is one
    block, cut in parts only when it is over that quarter.  A tuple's rank
    is its prefix's rank times v plus its symbol in column c.  The prefix
    ranks are ``_PrefixLevels``; level l holds only the l-prefixes that
    some (t-1)-prefix extends.  A block's ranks are taken in place, a few
    prefixes at a time, and scattered into one flat table.

    When the levels of all rows do not fit the budget, the rows go in
    chunks whose tables are ORed, and only the last chunk's levels are
    kept; when one row's do not, the levels from 2 up share what is left,
    lowest first, each holding part of its prefixes and filled again as
    the scan moves on.  So a scan within the budget (every bench shape)
    fills each level once.  The column-set cap and every table (the
    levels, the seen table, the block's sets, the rank buffer) are checked
    before the first is allocated.

    Takes the raw cell matrix rather than a SymbolArray, whose buffer is
    frozen, so that the resampling loop can rewrite columns between scans.
    """
    t, k, v = params.t, params.k, params.v
    n = len(cells)
    slots = params.tuple_count if orbits is None else orbits.n_orbits
    limits.check_column_sets(k, t, "coverage scan")
    dtype = np.min_scalar_type(v ** (t - 1) - 1)
    sizes = [1, k] + [math.comb(k - t + l, l) for l in range(2, t)]  # whole levels 0..t-1
    budget = limits.working_bytes()
    entries = budget // 2 // dtype.itemsize  # level entries within the budget
    chunk = max(1, min(n, entries // sum(sizes), budget // 1024))
    spans = sizes[:2]
    for l in range(2, t):
        spans.append(max(1, min(sizes[l], (entries // chunk - sum(spans)) // (t - l))))
    width = math.comb(k - 1, t - 1)  # (t-1)-prefixes: the top level
    group = max(1, min(width, budget // 4 // (slots + 8 * t)))
    sub = max(1, min(group, spans[t - 1], budget // 128 // (8 * chunk)))
    limits.check_table_bytes(chunk * sum(spans), dtype.itemsize, "coverage prefix levels")
    limits.check_table_bytes(group * slots, 1, "coverage mask")
    limits.check_table_bytes(group * t, 8, "coverage column sets")
    limits.check_table_bytes(sub * chunk, 8, "coverage rank buffer")
    table = [[min(math.comb(c, i), width) for c in range(k)] for i in range(1, t)]
    binomials = np.array(table)
    prefixes = _PrefixLevels(spans, chunk, dtype, table, v)
    buffer = np.empty((sub, chunk), dtype=np.intp)
    offsets = np.arange(sub, dtype=np.intp)[:, None] * slots
    held = None  # the row chunk whose levels are kept
    for c in range(t - 1, k):
        count = math.comb(c, t - 1)
        for lo in range(0, count, group):
            hi = min(lo + group, count)
            seen = np.zeros((hi - lo) * slots, dtype=bool)
            for start in range(0, n, chunk):
                if held != start:
                    held = start
                    prefixes.load(cells[start : start + chunk])
                column = prefixes.levels[1][c]
                for a in range(lo, hi, sub):
                    b = min(a + sub, hi)
                    prefixes.fill(t - 1, a, min(hi, a + spans[t - 1]))  # as much of the block as fits
                    ranks = buffer[: b - a, : len(column)]
                    np.multiply(prefixes.ranks(t - 1, a, b), v, out=ranks, dtype=np.intp)
                    ranks += column
                    if orbits is not None:
                        np.take(orbits.orbit_id_of, ranks, out=ranks)
                    ranks += offsets[: b - a] + (a - lo) * slots
                    seen[ranks] = True
            yield _Block(lo, c, seen.reshape(hi - lo, slots), binomials)


def _uncovered_scan(
    params: CAParams, cells: np.ndarray, keep: int
) -> tuple[int, np.ndarray]:
    """One kernel pass: the exact uncovered count and, if that count is at
    most ``keep``, the uncovered interactions as rows (columns..., tuple
    rank) in rank order.  Past ``keep`` the listing is empty (t+1 columns,
    no rows) and only the count goes on.  The listing's largest size is
    checked against the memory cap before the pass."""
    limits.check_table_bytes(keep * (params.t + 1), 8, "uncovered listing")
    count = 0
    found = [np.empty((0, params.t + 1), dtype=np.int64)]
    for block in _coverage_tables(params, cells):
        missing = block.seen.size - int(np.count_nonzero(block.seen))
        count += missing
        if missing and count <= keep:
            which, ranks = np.nonzero(~block.seen)
            found.append(np.column_stack([block.sets(which), ranks]))
    return count, np.vstack(found if count <= keep else found[:1], dtype=np.int64)


def count_uncovered(array: SymbolArray) -> int:
    """Exact number of uncovered interactions, streamed block by block
    through the kernel (never a global interaction list)."""
    return _uncovered_scan(array.params, array.cells, keep=0)[0]


def two_stage_build(
    params: CAParams, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """Random stage-1 array of the optimal size, retried until its uncovered
    count meets the target, then one patch step: each leftover, in the
    listing's rank order, is given a patch row, all patch rows are drawn
    uniformly at random at once, and each leftover's symbols are written
    into its row.  ``one_row_each`` gives leftover i row i; ``colour``
    gives it the first row whose fixed cells agree with it, else a new one
    (``_first_fit_rows``)."""
    config = config or BuildConfig()
    if config.n_override is not None:
        n = config.n_override
    else:
        n = bounds.two_stage_bound(params).stage1_rows
    vt = params.tuple_count
    target = floor_scaled_power(params.interaction_space_size, vt - 1, vt, n)
    rng = np.random.default_rng(config.seed)
    log = BuildLog(strategy="two_stage", stage1_rows=n)

    with log.timed("stage1"):
        best = None
        for attempt in range(1, config.max_stage1_attempts + 1):
            cells = _random_rows(rng, params, n, "stage-1 rows")
            u, leftovers = _uncovered_scan(params, cells, keep=target)
            if best is None or u < best[1]:
                best = cells, u, leftovers
            if u <= target:
                break
        else:
            log.success = False
            log.failure_reason = (
                f"stage 1 missed target {target} in {config.max_stage1_attempts} attempts"
            )
        best_cells, best_uncovered, leftovers = best
        log.stage1_attempts = attempt
        log.uncovered_after_stage1 = best_uncovered

    with log.timed("stage2"):
        if best_uncovered > target:  # missed: list the best attempt's leftovers
            leftovers = _uncovered_scan(params, best_cells, keep=best_uncovered)[1]
        cols = leftovers[:, :-1]
        symbols = leftovers[:, -1:] // _place_values(params) % params.v
        if config.second_stage == "colour":
            rows = _first_fit_rows(params, cols, symbols)
        else:
            rows = np.arange(len(cols))
        patches = _random_rows(rng, params, int(rows.max(initial=-1)) + 1, "stage-2 patch rows")
        patches[rows[:, None], cols] = symbols
        log.stage2_rows = len(patches)
    return SymbolArray(params, np.vstack([best_cells, patches])), log


def _first_fit_rows(params: CAParams, cols: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Greedy first-fit colouring of the leftovers (Sarkar & Colbourn,
    "Two-stage algorithms for covering array construction"): the patch row
    of each leftover in turn, the first open row whose fixed cells agree
    with it on its t columns, else a new row.  One vectorised test per
    leftover checks it against every open row; the table of fixed cells
    (-1 where free) is checked against the memory cap first."""
    limits.check_table_bytes(
        len(cols) * params.k, np.dtype(CELL_DTYPE).itemsize, "stage-2 colour classes")
    fixed = np.full((len(cols), params.k), -1, dtype=CELL_DTYPE)
    rows = np.empty(len(cols), dtype=np.intp)
    opened = 0
    for i, (c, s) in enumerate(zip(cols, symbols)):
        held = fixed[:opened, c]
        agree = np.flatnonzero(((held == s) | (held < 0)).all(axis=1))
        rows[i] = agree[0] if agree.size else opened
        opened += not agree.size
        fixed[rows[i], c] = s
    return rows


class _DensityState:
    """The coverage state of the density algorithm: the C(k,t) x v**t mask
    of uncovered interactions, built by one pass of the coverage kernel and
    then updated one added row at a time, never rescanned.

    ``sets`` is the m x t column-set matrix in colex order (m = C(k,t)),
    ``uncovered[i, r]`` is True iff the tuple of rank r on ``sets[i]`` is
    in no row yet, and ``holders[j][p]`` lists the sets holding column j
    at position p.  Both tables and the exact-integer score range are
    checked before anything is allocated.
    """

    def __init__(self, params: CAParams, cells: np.ndarray) -> None:
        t, k, v = params.t, params.k, params.v
        m = math.comb(k, t)
        limits.check_table_bytes(m, params.tuple_count, "density coverage mask")
        limits.check_table_bytes(2 * m * t, np.dtype(np.intp).itemsize, "density column index")
        if m * v ** (2 * t) >= 2**63:
            raise ResourceLimitError(
                f"density scores for {params} could exceed the int64 range"
            )
        self.params = params
        self.sets = np.empty((m, t), dtype=np.intp)
        self.uncovered = np.empty((m, params.tuple_count), dtype=bool)
        at = 0
        for block in _coverage_tables(params, cells):  # every set of every block
            b = len(block.seen)
            self.sets[at : at + b] = block.sets()
            np.logical_not(block.seen, out=self.uncovered[at : at + b])
            at += b
        self.remaining = int(np.count_nonzero(self.uncovered))
        self._weights = _place_values(params)
        self.holders: list[list[np.ndarray]] = [[] for _ in range(k)]
        for p in range(t):
            order = np.argsort(self.sets[:, p], kind="stable")
            ends = np.searchsorted(self.sets[order, p], np.arange(k + 1))
            for j in range(k):
                self.holders[j].append(order[ends[j] : ends[j + 1]])

    def choose_row(self) -> np.ndarray:
        """Fix cells left to right, each maximizing its exact score.

        A set holding column j at position p adds v**(p+1) to symbol s for
        each uncovered tuple with s at p that matches the cells already
        fixed at positions 0..p-1: the tuple's coverage probability scaled
        by v**t.  Ties go to the smaller symbol.
        """
        t, k, v = self.params.t, self.params.k, self.params.v
        row = np.zeros(k, dtype=CELL_DTYPE)
        for j in range(k):
            scores = np.zeros(v, dtype=np.int64)
            for p, held in enumerate(self.holders[j]):
                prefix = row[self.sets[held, :p]] @ self._weights[t - p :]
                blocks = self.uncovered.reshape(-1, v**p, v, v ** (t - p - 1))[held, prefix]
                scores += v ** (p + 1) * blocks.sum(axis=(0, 2), dtype=np.int64)
            row[j] = np.argmax(scores)
        return row

    def add_row(self, row: np.ndarray) -> None:
        """Mark the new row's C(k,t) tuples covered."""
        every = np.arange(len(self.sets))
        ranks = row[self.sets] @ self._weights
        self.remaining -= int(np.count_nonzero(self.uncovered[every, ranks]))
        self.uncovered[every, ranks] = False


def density_build(array: SymbolArray) -> SymbolArray:
    """Append greedy density rows (Bryce & Colbourn) until the array covers
    everything.  Each row fixes its cells left to right, each chosen to
    minimize the conditional expected number of interactions left
    uncovered, in exact integer arithmetic (``_DensityState.choose_row``).
    The coverage state is built once and updated per row."""
    state = _DensityState(array.params, array.cells)
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
) -> np.ndarray:
    """Core resampling loop: an n x k random array, rescanned from the start
    after each resample, until every full orbit (``table.full_orbit_ids``,
    the bound's events) is covered on every column t-set.  Returns the
    array; sets failure flags on the log if the resample cap is hit, or at
    once if there are fewer rows than full orbits.

    Orbit coverage is decided from the OrbitTable alone: per block of
    column sets, a boolean table indexed by orbit id.  The first offender
    is the block's first set whose table misses a full orbit; its colex
    position is C(c, t) plus its prefix rank, and only it is unranked, and
    only when it is resampled."""
    cells = _random_rows(rng, params, n, "stage-1 rows")
    full_ids = np.array(table.full_orbit_ids, dtype=np.int64)
    if full_ids.size == 0:
        return cells
    if n < full_ids.size:  # a row hits one orbit per column set
        log.success = False
        log.failure_reason = (
            f"fewer stage-1 rows ({n}) than full orbits of a column set ({full_ids.size})")
        return cells
    while True:
        for block in _coverage_tables(params, cells, orbits=table):
            missed = np.flatnonzero(~block.seen[:, full_ids].all(axis=1))
            if missed.size:
                break
        else:
            return cells
        row = int(missed[0])
        pos = math.comb(block.c, params.t) + block.lo + row
        if log.resample_count >= cap:
            log.success = False
            log.failure_reason = f"resample cap {cap} reached at scan position {pos}"
            return cells
        for c in block.sets([row])[0]:
            cells[:, c] = rng.integers(0, params.v, size=n, dtype=CELL_DTYPE)
        log.resample_count += 1
        log.resample_witness.append(pos)


# action kind -> the LLL bound whose stage-1 row count its builder draws
_ACTION_BOUNDS = {
    "cyclic": bounds.cyclic_lll_bound,
    "frobenius": bounds.frobenius_lll_bound,
    "pgl": bounds.pgl_lll_bound,
}


def _stage1_rows_for_action(
    params: CAParams, action: GroupAction, config: BuildConfig
) -> int:
    if config.n_override is not None:
        return config.n_override
    return _ACTION_BOUNDS[action.kind](params, config.dependence_estimate).stage1_rows


def moser_tardos_build(
    params: CAParams, action: GroupAction, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """The orbit builder under any action with a bound: cyclic, Frobenius
    or PGL (the same arrays as ``pgl_build``)."""
    return _orbit_build(params, action, config or BuildConfig())


def pgl_build(
    params: CAParams, config: BuildConfig | None = None
) -> tuple[SymbolArray, BuildLog]:
    """The orbit builder under the sharply 3-transitive PGL action."""
    return _orbit_build(params, make_pgl(params.v), config or BuildConfig())


def _orbit_build(
    params: CAParams, action: GroupAction, config: BuildConfig
) -> tuple[SymbolArray, BuildLog]:
    """Resample n rows until every full orbit is hit, develop them over the
    group, then cover the short orbits of a sharply l-transitive action: v
    constant rows when l >= 2 and, when l = 3, the pair rows, drawn from a
    seed stream of their own."""
    if action.kind not in _ACTION_BOUNDS:
        raise ValueError(f"no orbit builder for action kind {action.kind!r}")
    if action.degree != params.v:
        raise ValueError(f"action degree {action.degree} does not match v={params.v}")
    ell = action.sharp_transitivity
    n = _stage1_rows_for_action(params, action, config)
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
        cells = _resample_full_orbits(params, table, n, rng, config.resample_step_cap, log)
    with log.timed("develop"):
        pieces = [develop(SymbolArray(params, cells), action).cells]
    if ell == 3:
        with log.timed("pairs"):
            pieces.append(_pair_rows(params, replace(config, seed=pair_seed), log))
            log.stage2_rows = len(pieces[-1])
    if ell >= 2:
        pieces.append(constant_rows(params).cells)
        log.short_orbit_rows = params.v
    return SymbolArray(params, np.vstack(pieces)), log


def _pair_rows(params: CAParams, config: BuildConfig, log: BuildLog) -> np.ndarray:
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
        binary, blog = _orbit_build(
            binary_params, make_cyclic(2), replace(config, n_override=cyclic.stage1_rows))
    else:
        binary, blog = two_stage_build(
            binary_params, replace(config, n_override=two_stage.stage1_rows))
    if not blog.success:
        log.success = False
        log.failure_reason = f"binary stage: {blog.failure_reason}"
    limits.check_table_bytes(
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


_TWO_STAGE_FIELDS = ("n_override", "max_stage1_attempts", "second_stage")
_ORBIT_FIELDS = ("n_override", "resample_step_cap", "dependence_estimate")

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
