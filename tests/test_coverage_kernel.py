"""The builder's coverage kernel against its reference oracle.

``reference_coverage_tables`` is the kernel as a plain loop: one column
t-set at a time, each row's tuple ranked by a dot product with the place
values and scattered into a fresh table.  It is slow and plainly right,
and it is kept here, as ``full_check``'s row loop is kept in
test_verify, to check the block kernel on many inputs: its blocks, a
rescan by the same kernel after columns are redrawn, the column sets a
consumer unranks from a block, and through the kernel's
consumers the uncovered count and listing, the density mask and its
prefix counts as rows are added, and the resampling scan's first
offender and, against a loop that rescans from the first set, its
restarts.  Each check also runs under working budgets small enough to
split the rows into chunks, a column's block into several and the top
prefixes into a window over part of them, and under the default, whose
blocks merge whole columns.
CAParams has t >= 2, so t runs from 2 to k.
"""

from itertools import islice
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import construct, limits
from coverkit.construct import BuildLog, random_array
from coverkit.core import CELL_DTYPE, CAParams, colex_combinations, colex_unrank
from coverkit.groups import enumerate_orbits, make_cyclic, make_frobenius, make_pgl, make_trivial

# working budgets in bytes: one row and one set at a time, a few of each,
# and the default
BUDGETS = (1, 64, 700, 4096, limits._WORKING_BYTES)
ACTIONS = {"cyclic": make_cyclic, "frobenius": make_frobenius, "pgl": make_pgl,
           "trivial": make_trivial}


def reference_coverage_tables(params, cells, orbits=None):
    """(cols, seen) for every column t-set in colex order, one set at a time."""
    slots = params.tuple_count if orbits is None else orbits.n_orbits
    weights = params.v ** np.arange(params.t - 1, -1, -1, dtype=np.int64)
    for cols in colex_combinations(params.k, params.t):
        ranks = cells[:, cols].astype(np.int64) @ weights
        if orbits is not None:
            ranks = orbits.orbit_id_of[ranks]
        seen = np.zeros(slots, dtype=bool)
        seen[ranks] = True
        yield cols, seen


def reference_resample(params, orbits, n, rng, cap, log):
    """``_resample_full_orbits`` as a plain loop: draw the rows, then, after
    each resample, rescan through the oracle from the first set."""
    cells = rng.integers(0, params.v, size=(n, params.k), dtype=CELL_DTYPE)
    full = list(orbits.full_orbit_ids)
    if not full:
        return cells
    if n < len(full):
        log.failure_reason = (
            f"fewer stage-1 rows ({n}) than full orbits of a column set ({len(full)})")
        return cells
    while True:
        for pos, (cols, seen) in enumerate(reference_coverage_tables(params, cells, orbits)):
            if not seen[full].all():
                break
        else:
            return cells
        if log.resample_count >= cap:
            log.failure_reason = f"resample cap {cap} reached at scan position {pos}"
            return cells
        for c in cols:
            cells[:, c] = rng.integers(0, params.v, size=n, dtype=CELL_DTYPE)
        log.resample_count += 1
        log.resample_witness.append(pos)


def reference_tables(params, cells, orbits=None):
    """The oracle's sets and seen tables, stacked."""
    pairs = list(reference_coverage_tables(params, cells, orbits))
    return np.array([cols for cols, _ in pairs]), np.array([seen for _, seen in pairs])


@st.composite
def scans(draw, orbits=False):
    """(params, cells, orbit table or None, working budget): t <= 5, k <= 7,
    v <= 4 and 0..2*v**t rows (at most 60)."""
    shapes = [(t, k, v) for t in range(2, 6) for k in range(t, 8) for v in range(2, 5)
              if comb(k, t) * v**t <= 4000]
    t, k, v = draw(st.sampled_from(shapes))
    params = CAParams(t, k, v)
    n = draw(st.integers(0, min(2 * v**t, 60)))
    cells = random_array(params, n, seed=draw(st.integers(0, 2**32 - 1))).cells.copy()
    table = None
    if orbits:
        kinds = ["cyclic", "frobenius", "trivial"] + (["pgl"] if v in (3, 4) else [])
        table = enumerate_orbits(ACTIONS[draw(st.sampled_from(kinds))](v), t)
    return params, cells, table, draw(st.sampled_from(BUDGETS))


@st.composite
def resamplings(draw):
    """(params, orbit table, rows, working budget) under the orbit builders'
    actions: t <= 4, k <= 8, v <= 4, and from one row per full orbit of a
    column set to twice that."""
    shapes = [(t, k, v) for t in range(2, 5) for k in range(t, 9) for v in range(2, 5)
              if comb(k, t) * v**t <= 4000]
    t, k, v = draw(st.sampled_from(shapes))
    kinds = ["cyclic", "frobenius"] + (["pgl"] if v in (3, 4) else [])
    table = enumerate_orbits(ACTIONS[draw(st.sampled_from(kinds))](v), t)
    full = len(table.full_orbit_ids)
    n = draw(st.integers(full, 2 * full))
    return CAParams(t, k, v), table, n, draw(st.sampled_from(BUDGETS))


def block_sets(kernel, lo, seen, rows=None):
    """The column sets of a block's rows (all of them by default), unranked
    as the kernel's consumers unrank them, by its colex table."""
    rows = np.arange(len(seen)) if rows is None else rows
    return construct._colex_unrank(lo + rows, kernel.binomials)


def assert_block_ranges(kernel, blocks, start=0):
    """Blocks are consecutive set-rank ranges that cover start..C(k,t)-1
    once, and a block spans columns only as whole columns: then it starts
    at the first set ending at its first column and ends after the last
    set ending at its last."""
    params, at = kernel.params, start
    for lo, seen in blocks:
        sets = block_sets(kernel, lo, seen)
        assert lo == at and len(sets) == len(seen) > 0
        first, last = sets[0, -1], sets[-1, -1]
        if first != last:
            assert lo == comb(first, params.t)
            assert lo + len(sets) == comb(last + 1, params.t)
        at += len(sets)
    assert at == comb(params.k, params.t)


def kernel_tables(params, cells, orbits, budget):
    """The kernel's blocks under a working budget, checked to be set-rank
    ranges as ``assert_block_ranges`` says, then stacked."""
    kernel = with_budget(budget, plan, params, cells, orbits)
    blocks = list(kernel.tables(cells))
    assert_block_ranges(kernel, blocks)
    for lo, seen in blocks:
        assert block_sets(kernel, lo, seen).dtype == np.intp and seen.dtype == bool
    return (np.vstack([block_sets(kernel, lo, seen) for lo, seen in blocks]),
            np.vstack([seen for _, seen in blocks]))


def plan(params, cells, orbits, budget):
    """The kernel of a build whose scans take ``cells``."""
    return construct._Kernel(params, len(cells), budget, orbits)


def uncovered_scan(params, cells, keep, budget):
    """``_uncovered_scan`` through a kernel planned for these cells."""
    return construct._uncovered_scan(plan(params, cells, None, budget), cells, keep)


def with_budget(budget, fn, *args):
    """fn(*args, b), b the Budget read under this working budget."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "_WORKING_BYTES", budget)
        return fn(*args, limits.Budget.from_env())


def pinned(shape, rows, seed, budget, orbits=None):
    """A pinned scan: ``rows`` random rows of ``shape`` drawn at ``seed``."""
    params = CAParams(*shape)
    return params, random_array(params, rows, seed).cells.copy(), orbits, budget


# Pinned scans under small working budgets, each with the regime it is
# there for: (row chunks, whether its window holds only part of the
# C(k-1, t-1) top prefixes, whether the window moves on while one chunk is
# held).  A row's columns and top prefixes take k + C(k-1, t-1) entries, a
# byte each in every example, of the half of the budget they are given.
REGIMES = [
    # (3,9,3) under 8192 bytes: a rank buffer of one set, so one column per
    # block, the last cut in parts of 27 sets and 1, and row chunks of 8, so
    # 40 rows go in 5 chunks, and 200 rows in 50 under 4096 bytes; each
    # chunk's window holds all C(8,2) = 28 top prefixes
    (pinned((3, 9, 3), 40, 2, 8192), (5, False, False)),
    (pinned((3, 9, 3), 200, 3, 4096), (50, False, False)),
    # one row takes 20 + C(19,3) = 989 bytes at (4,20,2), over the 512 that
    # a 1024-byte budget gives it: each of 10 one-row chunks has a window
    # of 492 top prefixes, filled as far as its block reads
    (pinned((4, 20, 2), 10, 4, 1024), (10, True, False)),
    # 12 + C(11,5) = 474 bytes at (6,12,2) fit 512, but 10 rows do not: one
    # row a chunk, each window whole and filled by 4 multiply-adds.  One
    # row is one chunk, whose window is kept for the whole scan; under 512
    # bytes it holds 244 of the 462 and moves on, as at (5,7,3) under 1
    # byte (one prefix)
    (pinned((6, 12, 2), 10, 5, 1024), (10, False, False)),
    (pinned((6, 12, 2), 1, 5, 1024), (1, False, False)),
    (pinned((6, 12, 2), 1, 5, 512), (1, True, True)),
    (pinned((5, 7, 3), 1, 6, 1), (1, True, True)),
    # merged blocks meet row chunks at (4,26,2), 26 + C(25,3) = 2326 bytes
    # a row: under 15618 bytes, chunks of 3 rows and a rank buffer of 5
    # sets, so the first block holds columns 3 and 4 (1 + 4 sets) in each
    # of 4 chunks; under 5120 bytes, chunks of 1 row and the same first
    # block.  At (4,28,2), 28 + C(27,3) = 2953 bytes a row, a 5120-byte
    # budget leaves that block a window of 2532 of the 2925 top prefixes
    (pinned((4, 26, 2), 10, 8, 15618), (4, False, False)),
    (pinned((4, 26, 2), 3, 9, 5120, enumerate_orbits(make_cyclic(2), 4)), (3, False, False)),
    (pinned((4, 28, 2), 3, 9, 5120, enumerate_orbits(make_cyclic(2), 4)), (3, True, False)),
    # t = 2 at v = 256: uint8 ranks, whose top prefixes are columns 0 and 1
    (pinned((2, 3, 256), 300, 6, limits._WORKING_BYTES), (1, False, False)),
]


# Pinned scans on each side of the kernel's two cuts, each with its slot
# count and its word's bytes: a set's table of at most 32 slots is a
# uint32 word, up to 64 a uint64 word, and past that a bool row.  Budgets
# of 1 and 700 bytes take one row a chunk, so each set's word is ORed over
# every row chunk; the default takes all the rows at once
CUTS = [
    (pinned((3, 7, 3), 30, 11, 700), (27, 4)),
    (pinned((5, 7, 2), 40, 12, limits._WORKING_BYTES), (32, 4)),
    (pinned((2, 7, 6), 40, 13, 1), (36, 8)),
    (pinned((3, 7, 4), 60, 1, 1), (64, 8)),
    (pinned((4, 7, 3), 90, 14, 700), (81, None)),
    (pinned((6, 7, 2), 40, 15, 700, enumerate_orbits(make_cyclic(2), 6)), (32, 4)),
    (pinned((5, 7, 3), 50, 16, limits._WORKING_BYTES, enumerate_orbits(make_frobenius(3), 5)),
     (41, 8)),
    (pinned((4, 7, 4), 60, 17, 1, enumerate_orbits(make_cyclic(4), 4)), (64, 8)),
    (pinned((5, 7, 3), 60, 18, 700, enumerate_orbits(make_cyclic(3), 5)), (81, None)),
]


def with_examples(scans, *rest):
    """Run a hypothesis test on each of these scans too, each followed by
    the arguments ``rest``."""
    def decorate(test):
        for scan in scans:
            test = example(scan, *rest)(test)
        return test
    return decorate


class TestBlocks:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)))
    @example((CAParams(2, 2, 2), np.zeros((0, 2), np.int32), None, 1))
    @example((CAParams(5, 5, 2), np.ones((3, 5), np.int32), None, 64))
    @with_examples([scan for scan, _ in REGIMES + CUTS])
    def test_blocks_match_reference(self, scan):
        params, cells, orbits, budget = scan
        sets, seen = kernel_tables(params, cells, orbits, budget)
        ref_sets, ref_seen = reference_tables(params, cells, orbits)
        assert np.array_equal(sets, ref_sets)
        assert np.array_equal(seen, ref_seen)

    @pytest.mark.parametrize("scan, regime", REGIMES)
    def test_examples_keep_their_regime(self, monkeypatch, scan, regime):
        # so that no sizing change moves a pinned example out of the regime
        # it is there for
        params, cells, orbits, budget = scan

        class Watched(construct._Kernel):
            loaded, moves = False, 0

            def load(self, rows):
                super().load(rows)
                self.loaded = True

            def hold(self, lo, hi, reach):
                first = self.first
                super().hold(lo, hi, reach)
                self.moves += self.first != first and not self.loaded
                self.loaded = False

        monkeypatch.setattr(limits, "_WORKING_BYTES", budget)
        kernel = Watched(params, len(cells), limits.Budget.from_env(), orbits)
        for _ in kernel.tables(cells):
            pass
        top = comb(params.k - 1, params.t - 1)
        chunks = -(-len(cells) // kernel.chunk)
        assert (chunks, kernel.span < top, kernel.moves > 0) == regime

    @pytest.mark.parametrize("scan, cut", CUTS)
    def test_examples_sit_at_their_cut(self, scan, cut):
        # so that each example stays on the side of the cut it is there for
        params, cells, orbits, budget = scan
        kernel = with_budget(budget, plan, params, cells, orbits)
        word = None if kernel.word is None else kernel.word.itemsize
        assert (kernel.slots, word) == cut

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)), st.data())
    def test_unranked_rows_match_reference(self, scan, data):
        # any rows of a block, repeated or out of order, unrank to the
        # oracle's sets at those positions
        params, cells, orbits, budget = scan
        ref_sets, _ = reference_tables(params, cells, orbits)
        kernel = with_budget(budget, plan, params, cells, orbits)
        for lo, seen in kernel.tables(cells):
            rows = np.array(data.draw(st.lists(st.integers(0, len(seen) - 1))), dtype=np.intp)
            sets = block_sets(kernel, lo, seen, rows)
            assert sets.dtype == np.intp and sets.shape == (len(rows), params.t)
            assert np.array_equal(sets, ref_sets[lo + rows])
            # and the resampler's scalar unrank, one rank at a time
            for row in rows:
                one = colex_unrank(lo + int(row), params.t)
                assert list(one) == ref_sets[lo + row].tolist()

    def test_small_budgets_cut_blocks(self, monkeypatch):
        # (3,9,3), 40 rows: a 1-byte budget takes one set at a time; 8192
        # bytes a rank buffer of one set, so a block per column, the last
        # (28 sets) cut in parts of 27 and 1; the default budget buffers 819
        # sets, so all C(9,3) sets are one block.  The memory cap is the
        # default one, whatever the environment says
        default_cap = limits._DEFAULT_MEMORY_CAP_MIB << 20
        monkeypatch.setattr(limits, "memory_cap_bytes", lambda: default_cap)
        p = CAParams(3, 9, 3)
        cells = random_array(p, 40, seed=2).cells.copy()
        for budget, sizes in ((1, [1] * comb(9, 3)), (8192, [1, 3, 6, 10, 15, 21, 27, 1]),
                              (limits._WORKING_BYTES, [comb(9, 3)])):
            kernel = with_budget(budget, plan, p, cells, None)
            got = list(kernel.tables(cells))
            assert_block_ranges(kernel, got)
            assert [len(seen) for _, seen in got] == sizes

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)), st.data())
    def test_scan_from_a_column(self, scan, data):
        # a scan from column a yields the oracle's sets from C(a, t) on
        params, cells, orbits, budget = scan
        column = data.draw(st.integers(0, params.k - 1))
        start = comb(column, params.t)
        kernel = with_budget(budget, plan, params, cells, orbits)
        blocks = list(kernel.tables(cells, column))
        assert_block_ranges(kernel, blocks, start)
        ref_sets, ref_seen = reference_tables(params, cells, orbits)
        if blocks:
            sets = [block_sets(kernel, lo, seen) for lo, seen in blocks]
            assert np.array_equal(np.vstack(sets), ref_sets[start:])
            assert np.array_equal(np.vstack([seen for _, seen in blocks]), ref_seen[start:])
        else:
            assert start == len(ref_sets)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)), st.integers(0, 2**32 - 1))
    @with_examples([scan for scan, _ in REGIMES], 1)
    def test_a_reused_kernel_rescans_what_it_is_given(self, scan, seed):
        # as the resampler uses it: a scan, left after some blocks or run
        # out, 1..t columns redrawn, and a rescan from a column by the same
        # kernel, whose window (first, end and the kept unrank) outlives the
        # first scan.  The rescan's blocks are a fresh kernel's and the oracle's
        params, cells, orbits, budget = scan
        t, k = params.t, params.k
        cells, rng = cells.copy(), np.random.default_rng(seed)  # pinned cells stay as they are
        kernel = with_budget(budget, plan, params, cells, orbits)
        for _ in islice(kernel.tables(cells), int(rng.integers(0, comb(k, t) + 1))):
            pass
        for c in rng.choice(k, size=int(rng.integers(1, t + 1)), replace=False):
            cells[:, c] = rng.integers(0, params.v, size=len(cells), dtype=CELL_DTYPE)
        column = int(rng.integers(0, k))
        blocks = list(kernel.tables(cells, column))
        fresh = list(with_budget(budget, plan, params, cells, orbits).tables(cells, column))
        assert [lo for lo, _ in blocks] == [lo for lo, _ in fresh]
        assert all(np.array_equal(seen, other) for (_, seen), (_, other) in zip(blocks, fresh))
        start = comb(column, t)
        assert_block_ranges(kernel, blocks, start)
        ref_sets, ref_seen = reference_tables(params, cells, orbits)
        sets = np.vstack([block_sets(kernel, lo, seen) for lo, seen in blocks])
        assert np.array_equal(sets, ref_sets[start:])
        assert np.array_equal(np.vstack([seen for _, seen in blocks]), ref_seen[start:])

    @pytest.mark.parametrize("shape, rows, env, budget", [
        # at (10,30,2) one row's top prefixes are C(29,9), about 10.0M
        # entries, far over a 1 MiB cap: each one-row chunk's window holds
        # 262,114 of them (two bytes each)
        ((10, 30, 2), 50, {"COVERKIT_MEMORY_CAP_MIB": "1"}, limits._WORKING_BYTES),
        # at (4,2044,2) a 4096-byte budget leaves one row 4 window entries
        # past its 2044 columns, so a sub-block has at most 4 prefixes, and
        # the window starts again at each (C(2044,4) sets are over the
        # default column-set cap)
        ((4, 2044, 2), 1, {"COVERKIT_MAX_COLUMN_SETS": str(10**12)}, 4096),
    ])
    def test_large_shapes_start_under_small_budgets(self, monkeypatch, shape, rows, env, budget):
        # scanned in full these take hours, so only the first 3003 sets are
        # compared with the oracle's
        p = CAParams(*shape)
        cells = random_array(p, rows, seed=7).cells.copy()
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(limits, "_WORKING_BYTES", budget)
        kernel = plan(p, cells, None, limits.Budget.from_env())
        pairs = (pair for lo, seen in kernel.tables(cells)
                 for pair in zip(block_sets(kernel, lo, seen), seen))
        sets, seen = zip(*islice(pairs, 3003))
        ref_sets, ref_seen = zip(*islice(reference_coverage_tables(p, cells), 3003))
        assert np.array_equal(sets, ref_sets) and np.array_equal(seen, ref_seen)


class TestConsumers:
    @settings(max_examples=80, deadline=None, database=None)
    @given(scans())
    def test_count_and_listing(self, scan):
        params, cells, _, budget = scan
        ref_sets, ref_seen = reference_tables(params, cells)
        which, ranks = np.nonzero(~ref_seen)
        listing = np.column_stack([ref_sets[which], ranks])
        exact = len(listing)
        for keep in {0, max(exact - 1, 0), exact, params.interaction_space_size}:
            count, rows = with_budget(budget, uncovered_scan, params, cells, keep)
            assert count == exact
            assert np.array_equal(rows, listing if exact <= keep else listing[:0])

    @settings(max_examples=80, deadline=None, database=None)
    @given(scans())
    def test_listing_matches_the_per_row_unrank(self, scan):
        # each set is unranked once and repeated; the listing is byte for
        # byte the one that unranks the set of every uncovered tuple
        params, cells, _, budget = scan
        keep = params.interaction_space_size
        count, rows = with_budget(budget, uncovered_scan, params, cells, keep)
        listing = [np.empty((0, params.t + 1), dtype=np.int64)]
        kernel = with_budget(budget, plan, params, cells, None)
        for lo, seen in kernel.tables(cells):
            which, ranks = np.nonzero(~seen)
            listing.append(np.column_stack([block_sets(kernel, lo, seen, which), ranks]))
        expected = np.vstack(listing, dtype=np.int64)
        assert count == len(expected)
        assert (rows.dtype, rows.shape, rows.tobytes()) == (
            expected.dtype, expected.shape, expected.tobytes())

    @settings(max_examples=60, deadline=None, database=None)
    @given(scans())
    def test_density_mask(self, scan):
        params, cells, _, budget = scan
        state = with_budget(budget, construct._DensityState, params, cells)
        ref_sets, ref_seen = reference_tables(params, cells)
        assert np.array_equal(state.sets, ref_sets)
        assert np.array_equal(state.levels[-1] != 0, ~ref_seen)
        assert state.remaining == int(np.count_nonzero(~ref_seen))

    @settings(max_examples=60, deadline=None, database=None)
    @given(scans(), st.integers(0, 2**32 - 1), st.integers(0, 6))
    def test_density_counts_follow_added_rows(self, scan, seed, added):
        # after random rows are added, the mask is the oracle's for the
        # cells with those rows, each count level is the mask summed over
        # its suffix symbols, and the remaining count is the mask's
        params, cells, _, budget = scan
        t, v = params.t, params.v
        state = with_budget(budget, construct._DensityState, params, cells)
        rows = random_array(params, added, seed).cells
        for row in rows:
            state.add_row(row)
        _, ref_seen = reference_tables(params, np.vstack([cells, rows]))
        mask = state.levels[-1]
        assert np.array_equal(mask, ~ref_seen)
        for l in range(1, t):
            sums = mask.reshape(len(mask), v**l, v ** (t - l)).sum(axis=2)
            assert np.array_equal(state.levels[l - 1], sums)
        assert state.remaining == int(np.count_nonzero(mask))

    @settings(max_examples=80, deadline=None, database=None)
    @given(scans(orbits=True), st.integers(0, 2**32 - 1))
    # 7 rows at seed 8: the first offender is set 13, inside the one block
    # of all 21 sets
    @example((CAParams(2, 7, 3), np.zeros((7, 7), np.int32), enumerate_orbits(make_cyclic(3), 2),
              limits._WORKING_BYTES), 8)
    def test_first_offender(self, scan, seed):
        # one scan under a zero resample cap: the failure names the first
        # set, in colex order, missing one of the full orbits; with fewer
        # rows than full orbits there is no scan
        params, cells, orbits, budget = scan
        log = BuildLog(strategy="test")
        rng = np.random.default_rng(seed)
        drawn = with_budget(budget, construct._resample_full_orbits,
                            params, orbits, len(cells), rng, 0, log)
        full = list(orbits.full_orbit_ids)
        _, ref_seen = reference_tables(params, drawn, orbits)
        missed = np.flatnonzero(~ref_seen[:, full].all(axis=1)) if full else []
        if len(cells) < len(full):
            assert not log.success and log.failure_reason == (
                f"fewer stage-1 rows ({len(cells)}) than full orbits of a column set ({len(full)})")
        elif len(missed):
            assert log.failure_reason == f"resample cap 0 reached at scan position {missed[0]}"
        else:
            assert log.success and log.resample_count == 0

    @settings(max_examples=100, deadline=None, database=None)
    @given(resamplings(), st.integers(0, 2**32 - 1), st.integers(0, 30))
    # two binary rows on (2,3,2) under the cyclic action: a rescan from the
    # second resampled column on would pass over a set holding the first
    @example((CAParams(2, 3, 2), enumerate_orbits(make_cyclic(2), 2), 2, 1), 2, 2)
    def test_restart_matches_rescans_from_the_start(self, case, seed, cap):
        # each rescan starts at C(a, t), a the lowest resampled column; a
        # loop that rescans every set from the first through the oracle
        # draws the same cells, resamples the same sets and fails the same way
        params, orbits, n, budget = case
        log, ref_log = BuildLog(strategy="test"), BuildLog(strategy="test")
        cells = with_budget(budget, construct._resample_full_orbits,
                            params, orbits, n, np.random.default_rng(seed), cap, log)
        ref_cells = reference_resample(params, orbits, n, np.random.default_rng(seed), cap, ref_log)
        assert np.array_equal(cells, ref_cells)
        outcome = (log.success, log.failure_reason, log.resample_count, list(log.resample_witness))
        assert outcome == (ref_log.success, ref_log.failure_reason, ref_log.resample_count,
                           list(ref_log.resample_witness))
