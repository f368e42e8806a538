"""The builder's coverage kernel against its reference oracle.

``reference_coverage_tables`` is the kernel as a plain loop: one column
t-set at a time, each row's tuple ranked by a dot product with the place
values and scattered into a fresh table.  It is slow and plainly right,
and it is kept here, as ``full_check``'s row loop is kept in
test_verify, to check the block kernel on many inputs: its blocks, the
column sets a block unranks on demand, and through the kernel's
consumers the uncovered count and listing, the density mask and the
resampling scan's first offender.  Each check also runs under working
budgets small enough to split the rows into chunks, a column's block
into several and a level's prefixes into windows.
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
from coverkit.core import CAParams, colex_combinations
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


def kernel_tables(params, cells, orbits, budget):
    """The kernel's blocks under a working budget, each checked to lie in
    one column's block, then stacked."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "_WORKING_BYTES", budget)
        blocks = [(block.sets(), block.seen)
                  for block in construct._coverage_tables(params, cells, orbits)]
    for sets, seen in blocks:
        assert sets.dtype == np.intp and seen.dtype == bool
        assert len(sets) == len(seen) > 0 and len(set(sets[:, -1])) == 1
    return np.vstack([sets for sets, _ in blocks]), np.vstack([seen for _, seen in blocks])


def with_budget(budget, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "_WORKING_BYTES", budget)
        return fn(*args)


class TestBlocks:
    @settings(max_examples=150, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)))
    @example((CAParams(2, 2, 2), np.zeros((0, 2), np.int32), None, 1))
    @example((CAParams(5, 5, 2), np.ones((3, 5), np.int32), None, 64))
    @example((CAParams(3, 7, 4), random_array(CAParams(3, 7, 4), 60, 1).cells.copy(), None, 1))
    # (3,9,3) under 8192 bytes: whole column blocks (at most C(8,2) sets of
    # 27 seen bytes) but a rank buffer of 8 rows, so 40 rows go in 5 chunks
    # and 200 rows in 50 under 4096 bytes
    @example((CAParams(3, 9, 3), random_array(CAParams(3, 9, 3), 40, 2).cells.copy(), None, 8192))
    @example((CAParams(3, 9, 3), random_array(CAParams(3, 9, 3), 200, 3).cells.copy(), None, 4096))
    # one row's levels take 1 + 20 + C(18,2) + C(19,3) = 1143 bytes at
    # (4,20,2) and 1 + 12 + 28 + 84 + C(10,4) + C(11,5) = 797 bytes at
    # (6,12,2), over the 512 that a 1024-byte budget gives them: the top
    # level, and at (6,12,2) level 4 too, hold part of their prefixes.
    # With one row, one chunk keeps its levels for the whole scan, so the
    # windows move on, as they do at (5,7,3) under 1 byte (one prefix each)
    @example((CAParams(4, 20, 2), random_array(CAParams(4, 20, 2), 10, 4).cells.copy(), None, 1024))
    @example((CAParams(6, 12, 2), random_array(CAParams(6, 12, 2), 10, 5).cells.copy(), None, 1024))
    @example((CAParams(6, 12, 2), random_array(CAParams(6, 12, 2), 1, 5).cells.copy(), None, 1024))
    @example((CAParams(5, 7, 3), random_array(CAParams(5, 7, 3), 1, 6).cells.copy(), None, 1))
    # t = 2 at v = 256: uint8 levels, whose top level is the columns
    @example((CAParams(2, 3, 256), random_array(CAParams(2, 3, 256), 300, 6).cells.copy(), None,
              limits._WORKING_BYTES))
    def test_blocks_match_reference(self, scan):
        params, cells, orbits, budget = scan
        sets, seen = kernel_tables(params, cells, orbits, budget)
        ref_sets, ref_seen = reference_tables(params, cells, orbits)
        assert np.array_equal(sets, ref_sets)
        assert np.array_equal(seen, ref_seen)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.one_of(scans(), scans(orbits=True)), st.data())
    def test_unranked_rows_match_reference(self, scan, data):
        # a block unranks any rows asked for, repeated or out of order, to
        # the oracle's sets at those positions
        params, cells, orbits, budget = scan
        ref_sets, _ = reference_tables(params, cells, orbits)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "_WORKING_BYTES", budget)
            for block in construct._coverage_tables(params, cells, orbits):
                rows = np.array(data.draw(st.lists(st.integers(0, len(block.seen) - 1))),
                                dtype=np.intp)
                start = comb(block.c, params.t) + block.lo
                sets = block.sets(rows)
                assert sets.dtype == np.intp and sets.shape == (len(rows), params.t)
                assert np.array_equal(sets, ref_sets[start + rows])

    def test_small_budgets_cut_blocks(self):
        # (3,9,3): a 1-byte budget takes one set at a time, 8192 bytes one
        # whole column's block
        p = CAParams(3, 9, 3)
        cells = random_array(p, 40, seed=2).cells.copy()
        for budget, blocks in ((1, comb(9, 3)), (8192, p.k - p.t + 1)):
            got = with_budget(budget, lambda: list(construct._coverage_tables(p, cells)))
            assert len(got) == blocks

    @pytest.mark.parametrize("shape, rows, env, budget", [
        # at (10,30,2) one row's full levels take about 14.3M entries, far
        # over a 1 MiB cap: every level from 6 up holds part of its prefixes
        ((10, 30, 2), 50, {"COVERKIT_MEMORY_CAP_MIB": "1"}, limits._WORKING_BYTES),
        # at (4,2044,2) a 4096-byte budget leaves one row 3 level entries
        # past its columns: level 2 holds one prefix and the top level two,
        # so a sub-block has two prefixes, each filled from its own level-2
        # prefix (C(2044,4) sets are over the default column-set cap)
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
        blocks = construct._coverage_tables(p, cells)
        pairs = (pair for block in blocks for pair in zip(block.sets(), block.seen))
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
            count, rows = with_budget(budget, construct._uncovered_scan, params, cells, keep)
            assert count == exact
            assert np.array_equal(rows, listing if exact <= keep else listing[:0])

    @settings(max_examples=60, deadline=None, database=None)
    @given(scans())
    def test_density_mask(self, scan):
        params, cells, _, budget = scan
        state = with_budget(budget, construct._DensityState, params, cells)
        ref_sets, ref_seen = reference_tables(params, cells)
        assert np.array_equal(state.sets, ref_sets)
        assert np.array_equal(state.uncovered, ~ref_seen)
        assert state.remaining == int(np.count_nonzero(~ref_seen))

    @settings(max_examples=80, deadline=None, database=None)
    @given(scans(orbits=True), st.integers(0, 2**32 - 1))
    # 7 rows at seed 8: the first offender is set 13, in the 5-set block of c = 5
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
