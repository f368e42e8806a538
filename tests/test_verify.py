"""Tests for the independent verifier and the exhaustive search oracle."""

import ast
import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import bounds, construct, limits, verify
from coverkit.construct import (
    STRATEGIES,
    BuildConfig,
    count_uncovered,
    moser_tardos_build,
    random_array,
    two_stage_build,
)
from coverkit.core import (
    CAParams,
    Interaction,
    SymbolArray,
    colex_combinations,
    colex_rank,
    covers,
    interaction_unrank,
    symbols_rank,
    symbols_unrank,
)
from coverkit.errors import BudgetExceededError
from coverkit.groups import enumerate_orbits, make_cyclic, make_frobenius, make_trivial
from coverkit.verify import CoverageReport, exhaustive_can, full_check, orbit_check


def _check_column_set(
    rows: list[tuple[int, ...]], cols: tuple[int, ...], t: int, v: int
) -> tuple[int, int | None]:
    """(uncovered count, first uncovered tuple index) for one column set."""
    vt = v**t
    mask = bytearray(vt)
    for row in rows:
        mask[symbols_rank([row[c] for c in cols], v)] = 1
    missing = vt - sum(mask)
    if missing == 0:
        return 0, None
    return missing, mask.index(0)


def reference_full_check(array: SymbolArray) -> CoverageReport:
    """The reference oracle for full_check: a plain row loop filling one
    v**t bitmap per column t-set, in colex order."""
    params = array.params
    t, v = params.t, params.v
    rows = [tuple(int(x) for x in r) for r in array.cells]

    uncovered = 0
    first: Interaction | None = None
    for cols in colex_combinations(params.k, t):
        missing, first_idx = _check_column_set(rows, cols, t, v)
        uncovered += missing
        if first is None and first_idx is not None:
            first = Interaction(cols, symbols_unrank(first_idx, t, v))
    return CoverageReport(uncovered, first)


@st.composite
def small_params(draw):
    t = draw(st.integers(2, 3))
    return CAParams(t, draw(st.integers(t, 6)), draw(st.integers(2, 4)))


@st.composite
def small_arrays(draw):
    p = draw(small_params())
    n = draw(st.integers(0, 12))
    row = st.lists(st.integers(0, p.v - 1), min_size=p.k, max_size=p.k)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return SymbolArray(p, np.array(rows, dtype=np.int32).reshape(n, p.k))


class TestFullCheck:
    def test_full_factorial(self):
        p = CAParams(2, 2, 3)
        arr = SymbolArray.from_rows(p, list(product(range(3), repeat=2)))
        report = full_check(arr)
        assert report.is_covering
        assert report.uncovered_count == 0
        assert report.first_witness is None

    def test_missing_row_is_detected(self):
        # build a true minimal CA(5; 2,4,2) by exhaustive search, then break it
        p = CAParams(2, 4, 2)
        assert exhaustive_can(p, 6) == 5
        found = None
        rng = np.random.default_rng(0)
        while found is None:
            arr = random_array(p, 5, seed=int(rng.integers(2**31)))
            if full_check(arr).is_covering:
                found = arr
        for drop in range(5):
            keep = [i for i in range(5) if i != drop]
            smaller = SymbolArray(p, found.cells[keep])
            report = full_check(smaller)
            assert not report.is_covering
            assert report.first_witness is not None

    def test_witness_is_actually_uncovered(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        report = full_check(arr)
        assert report.uncovered_count == 2
        witness = report.first_witness
        assert witness == Interaction((0, 1), (0, 1))

    def test_empty_array(self):
        p = CAParams(2, 4, 2)
        report = full_check(SymbolArray.empty(p))
        assert report.uncovered_count == p.interaction_space_size

    @settings(max_examples=150, deadline=None, database=None)
    @given(small_arrays())
    def test_agrees_with_streaming_counter(self, arr):
        assert full_check(arr).uncovered_count == count_uncovered(arr)


@st.composite
def verifier_arrays(draw):
    """Random arrays over t <= 4, k <= 7, v <= 4 with 0 to 3 * v**t rows."""
    t = draw(st.integers(2, 4))
    p = CAParams(t, draw(st.integers(t, 7)), draw(st.integers(2, 4)))
    n = draw(st.integers(0, 3 * p.tuple_count))
    return random_array(p, n, seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def symbol_split_cases(draw):
    """(array, cap in bytes, working budget in bytes): the row bitsets and
    one symbol's v**(t-1) row sets fit the cap.  Either the cap is below
    one first column's v**t row sets, under the default budget, or the cap
    is the default and the budget holds a number of first row sets, each
    ANDed with v**(t-1) others, that is not a multiple of v, at most
    (k-1) v of them."""
    t = draw(st.integers(2, 4))
    v = draw(st.integers(3 if t == 2 else 2, 4))
    p = CAParams(t, draw(st.integers(t, min(7, v ** (t - 1) - 1))), v)
    n = draw(st.integers(1, 3 * p.tuple_count))
    arr = random_array(p, n, seed=draw(st.integers(0, 2**32 - 1)))
    word_bytes = 8 * ((arr.n_rows + 63) // 64)
    if draw(st.booleans()):
        least = max(p.k * v, v ** (t - 1)) * word_bytes
        cap = draw(st.integers(least, p.tuple_count * word_bytes - 1))
        return arr, cap, limits._WORKING_BYTES
    per = draw(st.integers(1, (p.k - 1) * v).filter(lambda per: per % v))
    row_sets = v ** (t - 1) * word_bytes  # one row set ANDed with v**(t-1) others
    budget = per * row_sets + draw(st.integers(0, row_sets - 1))
    return arr, limits.memory_cap_bytes(), budget


@st.composite
def block_cut_cases(draw):
    """(array, working budget in bytes, cut, group): full_check's blocks,
    1/_SHARE of the budget, are cut in ``group`` on the named axis.
    "words" cuts the word axis (past _WORDS words, so the array has more
    than 64 * _WORDS rows) and keeps the group's first and last row sets
    whole; "first" cuts its first columns' row sets and keeps its last
    ones whole; "last" cuts its last columns' row sets."""
    t = draw(st.integers(2, 4))
    p = CAParams(t, draw(st.integers(t, 7)), draw(st.integers(2, 4)))
    cut = draw(st.sampled_from(("words", "first", "last")))
    least = 64 * verify._WORDS + 1 if cut == "words" else 0
    n = draw(st.integers(least, least + 2 * p.tuple_count))
    arr = random_array(p, n, seed=draw(st.integers(0, 2**32 - 1)))
    group = draw(st.sampled_from(list(verify._groups(p.k, t))))
    c2, _, lo, hi = group
    width = p.v ** (t - 2)
    line = (hi - lo) * p.v * width  # one first row set's block, one word
    block = c2 * p.v * line  # every first row set's, one word
    low, high = {"words": (verify._WORDS * block, (n + 63) // 64 * block - 1),
                 "first": (line, block - 1), "last": (width, line - 1)}[cut]
    entries = draw(st.integers(low, high))
    budget = entries * 8 * verify._SHARE + draw(st.integers(0, 8 * verify._SHARE - 1))
    return arr, budget, cut, group


def blocks_cut(arr: SymbolArray, budget: int, group) -> set[str]:
    """The axes full_check cuts in ``group``'s blocks under ``budget``."""
    p = arr.params
    c2, _, lo, hi = group
    width, words = p.v ** (p.t - 2), (arr.n_rows + 63) // 64
    n_first, n_last = c2 * p.v, (hi - lo) * p.v
    entries = max(width, budget // verify._SHARE // 8)
    steps = verify._block_steps(n_first, n_last, width, words, entries)
    return {axis for axis, step, whole in zip(("first", "last", "words"), steps,
                                             (n_first, n_last, words)) if step < whole}


def later_group_witness_array(t: int) -> SymbolArray:
    """Every binary row on t + 2 columns but those that hold two
    interactions: the first in colex order, in a group full_check visits
    later, and one in a group it visits earlier.  For t = 3 the groups are
    the middles (c2,): (0,2,3) lies in c2 = 2, (0,1,4) in c2 = 1.  For
    t = 4 they are (c2, c3) in colex order: (0,2,3,4) lies in (2,3),
    (0,1,2,5) in (1,2)."""
    p = CAParams(t, t + 2, 2)
    rows = np.array(list(product(range(2), repeat=p.k)), dtype=np.int32)
    holes = {3: [((0, 2, 3), (0, 0, 0)), ((0, 1, 4), (1, 1, 1))],
             4: [((0, 2, 3, 4), (0, 0, 0, 0)), ((0, 1, 2, 5), (1, 1, 1, 1))]}[t]
    for cols, symbols in holes:
        rows = rows[~(rows[:, list(cols)] == symbols).all(axis=1)]
    return SymbolArray(p, rows)


class TestAgainstReference:
    """full_check against the row-loop oracle, core.covers and exhaustive_can."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(verifier_arrays())
    @example(SymbolArray.empty(CAParams(3, 5, 2)))
    @example(random_array(CAParams(4, 7, 4), 3 * 4**4, seed=7))
    @example(random_array(CAParams(4, 4, 3), 60, seed=3))
    @example(random_array(CAParams(2, 2, 4), 48, seed=4))
    def test_three_way(self, arr):
        report = full_check(arr)
        assert report == reference_full_check(arr)
        p = arr.params
        every = (interaction_unrank(r, p) for r in range(p.interaction_space_size))
        rejected = [i for i in every if not covers(arr, i)]
        assert report.uncovered_count == len(rejected)
        assert report.first_witness == (rejected[0] if rejected else None)

    @settings(max_examples=100, deadline=None, database=None)
    @given(symbol_split_cases())
    @example(  # every pair but (3, 3): the witness is the last interaction
        (SymbolArray.from_rows(CAParams(2, 2, 4), list(product(range(4), repeat=2))[:-1]), 64,
         limits._WORKING_BYTES)
    )
    @example((random_array(CAParams(2, 3, 256), 100, seed=2), 3 * 256 * 8 * 2,
              limits._WORKING_BYTES))
    # budgets of 5 and 7 first row sets ANDed with v**(t-1) others, at
    # v = 3 and 4: a part of one first column's
    @example((random_array(CAParams(3, 7, 3), 40, seed=3), 256 << 20, 5 * 9 * 8))
    @example((random_array(CAParams(4, 6, 4), 500, seed=4), 256 << 20, 7 * 64 * 64 + 63))
    # a budget of 8 rows of bools per symbol: each column packed in 13 chunks
    @example((random_array(CAParams(3, 5, 3), 100, seed=5), 256 << 20, 3 * 8))
    def test_symbol_split_under_a_small_cap(self, case):
        arr, cap, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "memory_cap_bytes", lambda: cap)
            mp.setattr(limits, "_WORKING_BYTES", budget)
            report = full_check(arr)
        assert report == reference_full_check(arr)

    @settings(max_examples=100, deadline=None, database=None)
    @given(block_cut_cases())
    # a byte alphabet over 3 words: the last columns' row sets cut, then
    # the first columns'
    @example((random_array(CAParams(2, 3, 256), 130, seed=2), 200 * 256, "last", (2, (), 2, 3)))
    @example((random_array(CAParams(2, 3, 256), 130, seed=3), 2000 * 256, "first", (2, (), 2, 3)))
    # t = k: one group, its blocks cut on the first row sets, or over 10
    # words on the word axis
    @example((random_array(CAParams(3, 3, 3), 40, seed=1), 20 * 256, "first", (1, (1,), 2, 3)))
    @example((random_array(CAParams(4, 4, 2), 600, seed=4), 130 * 256, "words", (1, (1, 2), 3, 4)))
    def test_block_cuts(self, case):
        arr, budget, cut, group = case
        assert cut in blocks_cut(arr, budget, group)
        if cut != "last":
            assert "last" not in blocks_cut(arr, budget, group)
        if cut == "words":
            assert "first" not in blocks_cut(arr, budget, group)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "memory_cap_bytes", lambda: limits._DEFAULT_MEMORY_CAP_MIB << 20)
            mp.setattr(limits, "_WORKING_BYTES", budget)
            report = full_check(arr)
        assert report == reference_full_check(arr)

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
    @pytest.mark.parametrize("budget", [None, 9 * 8 * 32])  # default; every axis cut
    def test_rows_at_word_edges(self, n, budget):
        arr = random_array(CAParams(3, 5, 3), n, seed=n)
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(limits, "_WORKING_BYTES", budget)
            report = full_check(arr)
        assert report == reference_full_check(arr)

    @pytest.mark.parametrize("t", [3, 4])
    def test_first_witness_lies_in_a_later_group(self, t):
        # the groups are not visited in colex order: the least missing
        # interaction wins, not the first one found
        arr = later_group_witness_array(t)
        report = full_check(arr)
        assert report == reference_full_check(arr)
        assert report.first_witness == Interaction((0,) + tuple(range(2, t + 1)), (0,) * t)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        n=st.integers(0, 300),
        k=st.integers(1, 12),
        v=st.integers(2, 20),
        budget=st.integers(1, 3000),  # below v * k * 64 bools the columns are cut
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_bitsets_packed_in_chunks(self, n, k, v, budget, seed):
        # against one packbits call over each whole column, word-major
        cells = np.random.default_rng(seed).integers(0, v, size=(n, k), dtype=np.int32)
        words = (n + 63) // 64
        whole = np.zeros((k, v, 8 * words), dtype=np.uint8)
        for c in range(k):
            whole[c, :, : (n + 7) // 8] = np.packbits(cells[:, c] == np.arange(v)[:, None], axis=-1)
        bits = verify._row_bitsets(cells, v, words, budget)
        assert np.array_equal(bits, whole.view(np.uint64).transpose(2, 0, 1))

    @pytest.mark.parametrize("n, k, v", [(20_000, 12, 5), (128, 8, 2000)])
    def test_row_bitsets_peak_within_the_working_budget(self, monkeypatch, n, k, v):
        # chunks of every column's rows, then a cut of 6 columns and 64
        # rows: the bools and their packed bits, beside the bitsets returned
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        budget = limits.Budget.from_env().working
        cells = np.random.default_rng(1).integers(0, v, size=(n, k), dtype=np.int32)
        tracemalloc.start()
        try:
            bits = verify._row_bitsets(cells, v, (n + 63) // 64, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert budget // 2 < peak - bits.nbytes <= budget == 1 << 20

    @pytest.mark.parametrize("t, k, v, n", [(2, 3, 64, 8000), (2, 3, 256, 4000),
                                            (2, 10, 16, 9000)])
    def test_full_check_peak_within_bitsets_and_the_working_budget(
            self, monkeypatch, t, k, v, n):
        # the packing gets what the six 1/32 shares leave of the working
        # budget, not all of it: given all, these peaked 0.08-0.09 MiB over
        monkeypatch.setenv("COVERKIT_MEMORY_CAP_MIB", "1")
        working = limits.Budget.from_env().working
        arr = random_array(CAParams(t, k, v), n, seed=1)
        tracemalloc.start()
        try:
            full_check(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (n + 63) // 64 * k * v * 8 + working

    def test_shares_nothing_with_the_builder_kernel(self):
        with open(verify.__file__, encoding="utf-8") as source:
            tree = ast.parse(source.read())
        modules = [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        modules += [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        assert not any("construct" in m for m in modules)
        # no dot-product ranking (`cells @ weights`) either, as in the
        # reference oracle of the builder kernel, which ranks column prefixes
        assert not any(isinstance(n, ast.MatMult) for n in ast.walk(tree))

    def test_below_exhaustive_can_never_covers(self):
        p = CAParams(2, 4, 2)
        can = exhaustive_can(p, 8)
        assert can == 5
        # repeating a row changes no coverage, so every array of fewer than
        # `can` rows covers what one of these multisets of can - 1 rows does
        for rows in combinations_with_replacement(list(product(range(2), repeat=4)), can - 1):
            assert not full_check(SymbolArray.from_rows(p, rows)).is_covering


class TestFaultInjection:
    """Break one interaction in a built array; every verifier must see it."""

    PARAMS = CAParams(3, 6, 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("strategy", tuple(STRATEGIES))
    def test_broken_interaction_is_reported(self, strategy, seed):
        p = self.PARAMS
        # density takes no seed; the seed still picks the fault
        array, log = STRATEGIES[strategy].build(p, BuildConfig(seed=seed))
        assert log.success
        assert full_check(array) == reference_full_check(array) == CoverageReport(0, None)

        rng = np.random.default_rng(seed)
        target = interaction_unrank(int(rng.integers(p.interaction_space_size)), p)
        cols = list(target.columns)
        hits = (array.cells[:, cols] == target.symbols).all(axis=1)
        assert hits.any()
        pos = int(rng.integers(p.t))
        cells = array.cells.copy()
        cells[hits, cols[pos]] = (target.symbols[pos] + int(rng.integers(1, p.v))) % p.v
        broken = SymbolArray(p, cells)
        assert not covers(broken, target)
        reports = [full_check(broken), reference_full_check(broken)]
        for report in reports:
            assert report.uncovered_count >= 1
            assert not covers(broken, report.first_witness)
        assert reports[0] == reports[1]

        # one random cell changed: the verifiers agree, whatever the verdict
        cells = array.cells.copy()
        row, col = int(rng.integers(array.n_rows)), int(rng.integers(p.k))
        cells[row, col] = (cells[row, col] + int(rng.integers(1, p.v))) % p.v
        changed = SymbolArray(p, cells)
        assert full_check(changed) == reference_full_check(changed)


class TestOrbitCheck:
    def test_representatives_cover_at_k_equals_t(self):
        action = make_frobenius(3)
        table = enumerate_orbits(action, 2)
        p = CAParams(2, 2, 3)
        arr = SymbolArray.from_rows(p, list(table.representatives))
        assert orbit_check(arr, table) is None

    def test_trivial_group_reduces_to_full_check(self):
        p = CAParams(2, 4, 3)
        table = enumerate_orbits(make_trivial(3), 2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            arr = random_array(p, int(rng.integers(0, 12)), seed=int(rng.integers(2**31)))
            assert (orbit_check(arr, table) is None) == full_check(arr).is_covering

    def test_full_only_ignores_constant_orbits(self):
        # rows hit every full orbit but no constant tuple
        action = make_frobenius(3)
        table = enumerate_orbits(action, 2)
        p = CAParams(2, 2, 3)
        non_constant = [rep for rep in table.representatives if len(set(rep)) > 1]
        arr = SymbolArray.from_rows(p, non_constant)
        assert orbit_check(arr, table, full_only=True) is None
        assert orbit_check(arr, table, full_only=False) is not None

    def test_development_preserves_orbit_coverage(self):
        from coverkit.groups import develop

        action = make_cyclic(3)
        table = enumerate_orbits(action, 2)
        p = CAParams(2, 4, 3)
        rng = np.random.default_rng(12)
        for _ in range(10):
            arr = random_array(p, 3, seed=int(rng.integers(2**31)))
            dev = develop(arr, action)
            assert (orbit_check(arr, table) is None) == (orbit_check(dev, table) is None)

    def test_degree_mismatch_rejected(self):
        table = enumerate_orbits(make_cyclic(3), 2)
        arr = random_array(CAParams(2, 4, 2), 3, seed=1)
        with pytest.raises(ValueError):
            orbit_check(arr, table)


class TestExhaustiveCan:
    def test_orthogonal_array_size(self):
        assert exhaustive_can(CAParams(2, 3, 2), 8) == 4

    def test_matches_katona_at_k4(self):
        assert exhaustive_can(CAParams(2, 4, 2), 8) == 5
        assert bounds.katona_kleitman_exact(4) == 5

    def test_full_factorial_forced_at_k_equals_t(self):
        assert exhaustive_can(CAParams(2, 2, 3), 9) == 9
        assert exhaustive_can(CAParams(3, 3, 2), 8) == 8

    def test_ternary_pairs_need_nine_rows(self):
        # CAN(2,3,3) = CAN(2,4,3) = 9, an orthogonal array: at v = 3 the
        # search meets rows whose symbols skip one not yet seen in their
        # column, which the symbol-order pruning passes over
        assert exhaustive_can(CAParams(2, 3, 3), 9) == 9
        assert exhaustive_can(CAParams(2, 4, 3), 9) == 9

    def test_none_when_limit_too_small(self):
        assert exhaustive_can(CAParams(2, 4, 2), 4) is None

    def test_budget_signal_distinct_from_none(self):
        with pytest.raises(BudgetExceededError):
            exhaustive_can(CAParams(2, 6, 2), 6, node_budget=50)

    def test_matches_formula_for_small_binary_pairs(self):
        for k in range(2, 6):
            assert exhaustive_can(CAParams(2, k, 2), 8) == bounds.katona_kleitman_exact(k)


def uncovered_scan(arr: SymbolArray, keep: int) -> tuple[int, np.ndarray]:
    """The builders' one-pass count and listing, through a kernel planned
    for the array."""
    kernel = construct._Kernel(arr.params, arr.n_rows, limits.Budget.from_env())
    return construct._uncovered_scan(kernel, arr.cells, keep)


class TestBuilderScansAgainstTrustedBase:
    """The builders' coverage kernel, through its other consumers, agrees
    with core.covers and orbit_check on hypothesis-generated inputs."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_arrays())
    def test_listing_is_exactly_what_covers_rejects(self, arr):
        p = arr.params
        every = (interaction_unrank(r, p) for r in range(p.interaction_space_size))
        rejected = [i for i in every if not covers(arr, i)]
        for keep in (len(rejected), p.interaction_space_size):
            count, rows = uncovered_scan(arr, keep)
            listing = [
                Interaction(tuple(int(c) for c in r[:-1]), symbols_unrank(int(r[-1]), p.t, p.v))
                for r in rows
            ]
            # the same set, and both in rank order
            assert count == len(rejected) and listing == rejected

    @settings(max_examples=60, deadline=None, database=None)
    @given(small_arrays())
    def test_scan_count_is_exact_past_keep(self, arr):
        p = arr.params
        exact = full_check(arr).uncovered_count
        assert construct.count_uncovered(arr) == exact
        for keep in {max(exact - 1, 0), 0}:
            count, rows = uncovered_scan(arr, keep)
            assert count == exact
            assert rows.shape == (exact if exact <= keep else 0, p.t + 1)

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        small_params(),
        st.sampled_from([make_cyclic, make_frobenius]),
        st.integers(1, 20),  # up to past the 16 full orbits of cyclic (3, v=4)
        st.integers(0, 2**32 - 1),
    )
    def test_resample_scan_position_matches_orbit_check(self, p, make_action, n, seed):
        action = make_action(p.v)
        config = BuildConfig(seed=seed, n_override=n, resample_step_cap=0)
        arr, log = moser_tardos_build(p, action, config)
        # the developed stage-1 rows only, as the resampling scan saw them
        developed = SymbolArray(p, arr.cells[: n * log.group_order])
        table = enumerate_orbits(action, p.t)
        miss = orbit_check(developed, table, full_only=True)
        if n < len(table.full_orbit_ids):  # failed before any scan
            assert miss is not None and log.failure_reason.startswith("fewer stage-1 rows")
        elif log.success:
            assert miss is None
        else:
            position = int(log.failure_reason.rsplit(" ", 1)[1])
            assert miss is not None
            assert position == colex_rank(miss[0].columns)

    def test_bench_shapes_agree_with_the_kernel(self):
        # the benchmark's verified arrays, each intact, mutilated as its
        # reject job does it (every row holding one fixed interaction on
        # the first t columns removed) and so on the last t columns, whose
        # removed rows leave sets before those uncovered too: full_check's
        # count and first witness are the kernel scan's count and first
        # listed row
        arrays = [two_stage_build(CAParams(*shape), BuildConfig(seed=1))[0]
                  for shape in ((3, 30, 3), (4, 16, 3), (6, 10, 3))]
        for bound, make_action, shape, share in (
            (bounds.cyclic_lll_bound, make_cyclic, (3, 20, 3), 0.85),
            (bounds.frobenius_lll_bound, make_frobenius, (3, 16, 4), 0.75),
        ):
            p = CAParams(*shape)
            config = BuildConfig(seed=1, n_override=int(share * bound(p).stage1_rows))
            array, log = moser_tardos_build(p, make_action(p.v), config)
            assert log.success
            arrays.append(array)
        for array in arrays:
            p = array.params
            symbols = np.arange(p.t) % p.v
            first_t = (array.cells[:, : p.t] == symbols).all(axis=1)
            last_t = (array.cells[:, -p.t :] == symbols).all(axis=1)
            for arr in (array, SymbolArray(p, array.cells[~first_t]),
                        SymbolArray(p, array.cells[~last_t])):
                report = full_check(arr)
                count, rows = uncovered_scan(arr, report.uncovered_count)
                assert count == report.uncovered_count
                first = None if count == 0 else Interaction(
                    tuple(int(c) for c in rows[0, :-1]), symbols_unrank(int(rows[0, -1]), p.t, p.v))
                assert report.first_witness == first
                assert (count == 0) == (arr is array)
