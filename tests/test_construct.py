"""Tests for the randomized builders.

Oracles: a naive per-interaction coverage counter (independent of both
production code paths) cross-checks count_uncovered; a per-column rescan
(the density algorithm without its coverage state) cross-checks each row
density_build appends; a dict-per-row first fit cross-checks the
colour second stage; verify.full_check decides end-to-end soundness.
"""

import dataclasses
import hashlib
import json
from itertools import combinations, product
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverkit import bounds, construct, limits
from coverkit.construct import (
    BuildConfig,
    count_uncovered,
    density_build,
    moser_tardos_build,
    pgl_build,
    random_array,
    two_stage_build,
)
from coverkit.core import (
    CAParams,
    Interaction,
    SymbolArray,
    covers,
    interaction_unrank,
    place_values,
    symbols_unrank,
)
from coverkit.errors import ResourceLimitError, UnsupportedParameterError
from coverkit.groups import (
    enumerate_orbits,
    make_cyclic,
    make_frobenius,
    make_pgl,
    make_trivial,
)
from coverkit.verify import full_check


def naive_uncovered(array: SymbolArray) -> int:
    """Brute-force oracle: test every interaction individually."""
    p = array.params
    count = 0
    for cols in combinations(range(p.k), p.t):
        for syms in product(range(p.v), repeat=p.t):
            if not covers(array, Interaction(cols, syms)):
                count += 1
    return count


def _uncovered_ranks(array: SymbolArray, cols: tuple[int, ...]) -> np.ndarray:
    """Ranks of the symbol tuples no row has on cols, ascending."""
    p = array.params
    weights = p.v ** np.arange(p.t - 1, -1, -1, dtype=np.int64)
    present = array.cells[:, list(cols)].astype(np.int64) @ weights
    return np.setdiff1d(np.arange(p.tuple_count), present)


def reference_density_row(array: SymbolArray) -> np.ndarray | None:
    """The next row density_build appends, or None when the array covers
    everything: for each column j, rescan every
    column t-set holding j and score its uncovered tuples one at a time."""
    params = array.params
    t, k, v = params.t, params.k, params.v
    if not any(_uncovered_ranks(array, cols).size for cols in combinations(range(k), t)):
        return None

    row = np.zeros(k, dtype=np.int32)
    for j in range(k):
        scores = [0] * v
        for cols in (cols for cols in combinations(range(k), t) if j in cols):
            pos_j = cols.index(j)
            fixed = [(i, c) for i, c in enumerate(cols) if c < j]
            weight = v ** (len(fixed) + 1)
            for tup_rank in _uncovered_ranks(array, cols):
                tup = symbols_unrank(int(tup_rank), t, v)
                if all(tup[i] == row[c] for i, c in fixed):
                    scores[tup[pos_j]] += weight
        row[j] = max(range(v), key=lambda s: (scores[s], -s))
    return row


def reference_density_build(array: SymbolArray) -> SymbolArray:
    while (row := reference_density_row(array)) is not None:
        array = SymbolArray(array.params, np.vstack([array.cells, row]))
    return array


@st.composite
def density_arrays(draw, max_interactions=None):
    """t <= 4, k <= 8, v <= 4 and 0..3*v**t random rows."""
    shapes = [
        (t, k, v)
        for t in range(2, 5)
        for k in range(t, 9)
        for v in range(2, 5)
        if max_interactions is None or comb(k, t) * v**t <= max_interactions
    ]
    t, k, v = draw(st.sampled_from(shapes))
    n = draw(st.integers(0, 3 * v**t))
    return random_array(CAParams(t, k, v), n, seed=draw(st.integers(0, 2**32 - 1)))


def reference_first_fit(cols: np.ndarray, symbols: np.ndarray) -> list[int]:
    """First-fit colouring in plain Python: each interaction joins the first
    row (a column -> symbol dict) it agrees with, else a new row."""
    rows: list[dict] = []
    chosen = []
    for c, s in zip(cols.tolist(), symbols.tolist()):
        fixed = dict(zip(c, s))
        for r, row in enumerate(rows):
            if all(row.get(col, sym) == sym for col, sym in fixed.items()):
                break
        else:
            r = len(rows)
            rows.append({})
        rows[r].update(fixed)
        chosen.append(r)
    return chosen


class TestBuildConfig:
    def test_misspelt_second_stage_rejected(self):
        # "density" once fell through to one patch row per leftover
        with pytest.raises(ValueError, match="second_stage must be one of one_row_each, colour"):
            BuildConfig(seed=1, second_stage="density")

    def test_unknown_dependence_estimate_rejected(self):
        with pytest.raises(ValueError, match="dependence_estimate must be one of simple, improved"):
            BuildConfig(dependence_estimate="tight")

    def test_every_listed_choice_accepted(self):
        assert set(construct._CONFIG_CHOICES) == {"dependence_estimate", "second_stage"}
        for name, choices in construct._CONFIG_CHOICES.items():
            for choice in choices:
                assert getattr(BuildConfig(**{name: choice}), name) == choice

    @pytest.mark.parametrize("name, value", [
        # a seed of None would draw fresh entropy, so two builds would
        # differ; the others would fail later, in numpy or range
        ("seed", None), ("seed", 1.5), ("seed", "7"), ("n_override", 2.0),
    ])
    def test_non_integers_are_refused(self, name, value):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            BuildConfig(**{name: value})

    def test_numpy_integers_and_no_override_are_accepted(self):
        config = BuildConfig(seed=np.int64(5), n_override=np.int16(4))
        assert (config.seed, config.n_override) == (5, 4)
        assert BuildConfig(n_override=None).n_override is None
        for integer in (np.int64, np.uint8):
            held = BuildConfig(seed=integer(5), n_override=integer(4))
            assert all(type(getattr(held, name)) is int for name in ("seed", "n_override"))
            json.dumps(dataclasses.asdict(held))  # the record prints as it is
        p = CAParams(2, 5, 3)
        assert two_stage_build(p, config)[0] == two_stage_build(p, BuildConfig(seed=5, n_override=4))[0]


class TestRandomArray:
    def test_empty(self):
        arr = random_array(CAParams(2, 4, 2), 0, seed=1)
        assert arr.n_rows == 0

    def test_deterministic(self):
        p = CAParams(2, 6, 3)
        assert random_array(p, 20, seed=42) == random_array(p, 20, seed=42)
        assert random_array(p, 20, seed=42) != random_array(p, 20, seed=43)

    @pytest.mark.parametrize("seed", [None, 1.5, "42"])
    def test_non_integer_seed_is_refused(self, seed):
        with pytest.raises(TypeError, match=f"^seed must be an integer, got {seed!r}$"):
            random_array(CAParams(2, 6, 3), 20, seed)

    @pytest.mark.parametrize("n", [1.5, None, "3"])
    def test_non_integer_row_count_is_refused(self, n):
        with pytest.raises(TypeError, match=f"^n must be an integer, got {n!r}$"):
            random_array(CAParams(2, 3, 2), n, 1)

    def test_numpy_integer_row_count_is_accepted(self):
        p = CAParams(2, 3, 2)
        assert random_array(p, np.int64(3), 1) == random_array(p, 3, 1)

    def test_numpy_integer_seed_is_accepted(self):
        p = CAParams(2, 6, 3)
        assert random_array(p, 20, np.int64(42)) == random_array(p, 20, 42)

    def test_symbols_past_int32_are_refused(self):
        # an array's cells are int32: v = 2**31 is the largest alphabet
        with pytest.raises(ValueError, match="symbols past 2147483647, the largest symbol an array holds"):
            random_array(CAParams(2, 3, 5 * 10**9), 20, seed=1)
        assert random_array(CAParams(2, 3, 2**31), 20, seed=1).cells.min() >= 0

    def test_symbol_frequencies_uniform(self):
        # chi-square over 10^5 cells within 5 sigma
        p = CAParams(2, 100, 4)
        arr = random_array(p, 1000, seed=7)
        counts = np.bincount(arr.cells.ravel(), minlength=4)
        n = arr.cells.size
        expected = n / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 3 dof: mean 3, sd sqrt(6)
        assert chi2 < 3 + 5 * np.sqrt(6)


class TestCountUncovered:
    def test_diagonal_pairs(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        assert count_uncovered(arr) == 2

    def test_full_factorial(self):
        p = CAParams(3, 3, 2)
        arr = SymbolArray.from_rows(p, list(product(range(2), repeat=3)))
        assert count_uncovered(arr) == 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(0, 8))
            arr = random_array(CAParams(2, 4, 2), n, seed=int(rng.integers(2**31)))
            assert count_uncovered(arr) == naive_uncovered(arr)


def assert_patch_rows_follow_rank_order(arr: SymbolArray, log) -> None:
    """Patch row i holds the i-th interaction, in rank order, that
    core.covers rejects on the stage-1 rows."""
    p = arr.params
    stage1 = SymbolArray(p, arr.cells[: log.stage1_rows])
    every = (interaction_unrank(r, p) for r in range(p.interaction_space_size))
    rejected = [i for i in every if not covers(stage1, i)]
    assert log.stage2_rows == len(rejected) == log.uncovered_after_stage1
    for inter, row in zip(rejected, arr.cells[log.stage1_rows :], strict=True):
        assert covers(SymbolArray(p, row[None, :]), inter)


def uncovered_scan(p, cells, keep, budget):
    """``_uncovered_scan`` through a kernel planned for these cells."""
    return construct._uncovered_scan(construct._Kernel(p, len(cells), budget), cells, keep)


def watch_kernels(monkeypatch):
    """Two lists, filled as the code runs: each ``_Kernel`` planned, and
    the kernel of each scan, one entry per ``tables`` call."""
    planned, scans = [], []
    init, tables = construct._Kernel.__init__, construct._Kernel.tables

    def counted_init(kernel, *args, **kwargs):
        planned.append(kernel)
        init(kernel, *args, **kwargs)

    def counted_tables(kernel, *args, **kwargs):
        scans.append(kernel)
        return tables(kernel, *args, **kwargs)

    monkeypatch.setattr(construct._Kernel, "__init__", counted_init)
    monkeypatch.setattr(construct._Kernel, "tables", counted_tables)
    return planned, scans


def listed(array: SymbolArray, keep: int) -> tuple[int, list[Interaction]]:
    """The one-pass scan's count and listing, as Interactions."""
    p = array.params
    count, rows = uncovered_scan(p, array.cells, keep, limits.Budget.from_env())
    assert rows.shape == (len(rows), p.t + 1)
    return count, [
        Interaction(tuple(int(c) for c in r[:-1]), symbols_unrank(int(r[-1]), p.t, p.v))
        for r in rows
    ]


class TestUncoveredInteractions:
    def test_covering_array_yields_empty(self):
        p = CAParams(2, 2, 2)
        arr = SymbolArray.from_rows(p, list(product(range(2), repeat=2)))
        assert listed(arr, keep=10) == (0, [])

    def test_diagonal_pairs_listed(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        assert listed(arr, keep=10) == (
            2,
            [Interaction((0, 1), (0, 1)), Interaction((0, 1), (1, 0))],
        )

    def test_listing_empty_past_keep(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        assert listed(arr, keep=1) == (2, [])
        assert listed(arr, keep=2)[1] == listed(arr, keep=10)[1]

    def test_length_matches_count(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            arr = random_array(CAParams(2, 5, 2), int(rng.integers(0, 7)), seed=int(rng.integers(2**31)))
            count, inters = listed(arr, keep=10**6)
            assert count == len(inters) == count_uncovered(arr)


# a build plans one kernel, after its first draw, and every scan it makes
# reuses it: one per stage-1 attempt, or the first scan and one after
# each resample
@pytest.mark.parametrize("strategy, shape, config, attempts, resamples, scans_made", [
    ("two_stage", (2, 5, 3), BuildConfig(seed=1), 4, 0, 4),
    ("mt_frobenius", (3, 16, 4), BuildConfig(seed=1, n_override=30), 0, 26, 27),
])
def test_a_build_plans_one_kernel(
        monkeypatch, strategy, shape, config, attempts, resamples, scans_made):
    planned, scans = watch_kernels(monkeypatch)
    _, log = construct.STRATEGIES[strategy].build(CAParams(*shape), config)
    assert log.success and (log.stage1_attempts, log.resample_count) == (attempts, resamples)
    assert len(planned) == 1 and scans == planned * scans_made


class TestTwoStageBuild:
    def test_output_is_covering_and_within_bound(self):
        p = CAParams(2, 4, 2)
        arr, log = two_stage_build(p, BuildConfig(seed=7))
        assert full_check(arr).is_covering
        assert log.success
        assert arr.n_rows <= bounds.two_stage_bound(p).value

    def test_respects_katona_floor(self):
        p = CAParams(2, 10, 2)
        arr, _ = two_stage_build(p, BuildConfig(seed=11))
        assert full_check(arr).is_covering
        assert arr.n_rows >= bounds.katona_kleitman_exact(10)

    def test_stage2_rows_each_cover_something(self):
        p = CAParams(2, 5, 3)
        config = BuildConfig(seed=21)
        arr, log = two_stage_build(p, config)
        assert log.stage2_rows > 0
        assert_patch_rows_follow_rank_order(arr, log)

    def _count_kernel_passes(self, monkeypatch, p, config):
        _, scans = watch_kernels(monkeypatch)
        arr, log = two_stage_build(p, config)
        return len(scans), arr, log

    def test_met_target_makes_one_kernel_pass_per_attempt(self, monkeypatch):
        # seed 1 at (2,5,3) needs four attempts to meet the target
        passes, arr, log = self._count_kernel_passes(
            monkeypatch, CAParams(2, 5, 3), BuildConfig(seed=1)
        )
        assert log.success and log.stage1_attempts == 4
        assert passes == log.stage1_attempts
        assert full_check(arr).is_covering
        assert_patch_rows_follow_rank_order(arr, log)

    def test_missed_target_rescans_the_best_attempt_once(self, monkeypatch):
        monkeypatch.setattr(construct, "MAX_STAGE1_ATTEMPTS", 3)
        passes, arr, log = self._count_kernel_passes(
            monkeypatch, CAParams(2, 5, 3), BuildConfig(seed=1)
        )
        assert not log.success and log.stage1_attempts == 3
        assert passes == log.stage1_attempts + 1
        assert full_check(arr).is_covering
        assert_patch_rows_follow_rank_order(arr, log)

    def test_deterministic(self):
        p = CAParams(2, 6, 2)
        a1, _ = two_stage_build(p, BuildConfig(seed=5))
        a2, _ = two_stage_build(p, BuildConfig(seed=5))
        assert a1 == a2

    def test_row_accounting(self):
        p = CAParams(3, 5, 2)
        arr, log = two_stage_build(p, BuildConfig(seed=13))
        assert log.total_rows == arr.n_rows
        assert log.total_rows == log.stage1_rows * log.group_order + log.short_orbit_rows + log.stage2_rows

    def test_colour_second_stage(self):
        p = CAParams(2, 5, 2)
        arr, log = two_stage_build(p, BuildConfig(seed=3, second_stage="colour"))
        assert full_check(arr).is_covering
        assert log.stage2_rows == arr.n_rows - log.stage1_rows

    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_colour_shares_stage1_and_uses_no_more_rows(self, data):
        t = data.draw(st.integers(2, 4))
        p = CAParams(t, data.draw(st.integers(t, 8)), data.draw(st.integers(2, 4)))
        config = BuildConfig(
            seed=data.draw(st.integers(0, 2**32 - 1)),
            n_override=data.draw(st.none() | st.integers(0, 2 * p.tuple_count)),
        )
        with mock.patch.object(construct, "MAX_STAGE1_ATTEMPTS", data.draw(st.integers(1, 3))):
            each, each_log = two_stage_build(p, config)
            colour, colour_log = two_stage_build(
                p, dataclasses.replace(config, second_stage="colour"))
        for name in ("stage1_rows", "stage1_attempts", "uncovered_after_stage1", "success"):
            assert getattr(colour_log, name) == getattr(each_log, name), name
        n = each_log.stage1_rows
        assert np.array_equal(colour.cells[:n], each.cells[:n])
        assert colour_log.stage2_rows <= each_log.stage2_rows == each_log.uncovered_after_stage1
        assert full_check(colour).is_covering
        budget = limits.Budget.from_env()
        leftovers = uncovered_scan(p, each.cells[:n], p.interaction_space_size, budget)[1]
        symbols = leftovers[:, -1:] // place_values(p.t, p.v) % p.v
        rows = construct._first_fit_rows(p, leftovers[:, :-1], symbols, budget)
        assert rows.tolist() == reference_first_fit(leftovers[:, :-1], symbols)
        assert colour_log.stage2_rows == len(set(rows.tolist()))

    def test_first_fit_past_64_rows(self):
        # with no stage-1 rows all 3,584 interactions are leftovers, and the
        # colour classes run past 64 rows: each row bitset spans several
        # words.  The leftovers name all 32 (column, symbol) pairs, so the
        # bitsets are priced as 8 free and 32 held of 3584 // 8 + 1 bytes.
        p = CAParams(3, 8, 4)
        arr, log = two_stage_build(p, BuildConfig(seed=1, n_override=0, second_stage="colour"))
        assert log.stage2_rows > 64 and full_check(arr).is_covering
        leftovers = uncovered_scan(
            p, arr.cells[:0], p.interaction_space_size, limits.Budget.from_env())[1]
        cols, symbols = leftovers[:, :-1], leftovers[:, -1:] // place_values(p.t, p.v) % p.v
        need = (8 + 32) * (3584 // 8 + 1)
        with pytest.raises(ResourceLimitError, match="stage-2 colour classes"):
            construct._first_fit_rows(p, cols, symbols, limits.Budget(need - 1, 10**6))
        rows = construct._first_fit_rows(p, cols, symbols, limits.Budget(need, 10**6))
        assert rows.tolist() == reference_first_fit(cols, symbols)
        assert log.stage2_rows == rows.max() + 1

    def test_degenerate_zero_row_stage1(self):
        # at (2,2,2) the objective is minimized at n=0: the whole array is
        # patch rows, one per interaction
        p = CAParams(2, 2, 2)
        assert bounds.two_stage_bound(p).stage1_rows == 0
        arr, log = two_stage_build(p, BuildConfig(seed=1))
        assert log.stage1_rows == 0
        assert arr.n_rows == 4
        assert full_check(arr).is_covering


class TestDensityRow:
    def test_complete_array_gives_none(self):
        p = CAParams(2, 2, 2)
        arr = SymbolArray.from_rows(p, list(product(range(2), repeat=2)))
        assert reference_density_row(arr) is None
        assert density_build(arr) == arr

    def test_single_leftover_is_covered(self):
        # all rows but one of the factorial: the greedy row must supply it
        p = CAParams(2, 2, 3)
        rows = [r for r in product(range(3), repeat=2) if r != (2, 1)]
        arr = SymbolArray.from_rows(p, rows)
        built = density_build(arr)
        assert built.n_rows == arr.n_rows + 1 and tuple(built.cells[-1]) == (2, 1)

    def test_uncovered_shrinks_by_expectation_factor(self):
        p = CAParams(2, 6, 2)
        built = density_build(SymbolArray.empty(p))
        vt = p.tuple_count
        counts = [count_uncovered(SymbolArray(p, built.cells[:n]))
                  for n in range(built.n_rows + 1)]
        assert counts[-1] == 0
        assert all(cur * vt <= prev * (vt - 1) for prev, cur in zip(counts, counts[1:]))

    @settings(max_examples=100, deadline=None, database=None)
    @given(density_arrays())
    @example(SymbolArray.from_rows(CAParams(2, 3, 2), list(product(range(2), repeat=3))))
    @example(random_array(CAParams(4, 4, 3), 20, seed=1))
    @example(random_array(CAParams(4, 8, 4), 3 * 4**4, seed=2))
    def test_row_matches_reference(self, arr):
        built, ref = density_build(arr), reference_density_row(arr)
        if ref is None:
            assert built == arr
        else:
            row = built.cells[arr.n_rows]
            assert row.dtype == ref.dtype and np.array_equal(row, ref)

    @settings(max_examples=30, deadline=None, database=None)
    @given(density_arrays(max_interactions=1500))
    @example(SymbolArray.from_rows(CAParams(2, 3, 2), list(product(range(2), repeat=3))))
    @example(SymbolArray.empty(CAParams(3, 3, 3)))
    @example(random_array(CAParams(4, 8, 2), 5, seed=3))
    def test_build_matches_iterated_reference(self, arr):
        built = density_build(arr)
        assert built == reference_density_build(arr)
        assert np.array_equal(built.cells[: arr.n_rows], arr.cells)

    def test_build_makes_one_coverage_pass(self, monkeypatch):
        planned, scans = watch_kernels(monkeypatch)
        arr = density_build(SymbolArray.empty(CAParams(3, 6, 2)))
        assert arr.n_rows > 1 and len(scans) == 1 and scans == planned

    def test_greedy_build_beats_discrete_bound(self):
        for k in range(4, 9):
            p = CAParams(2, k, 2)
            arr = density_build(SymbolArray.empty(p))
            assert full_check(arr).is_covering
            assert arr.n_rows <= bounds.discrete_slj_bound(p)[0].value


class TestMoserTardos:
    def test_frobenius_structure_and_coverage(self):
        p = CAParams(2, 5, 3)
        arr, log = moser_tardos_build(p, make_frobenius(3), BuildConfig(seed=1))
        assert full_check(arr).is_covering
        assert arr.n_rows == 6 * log.stage1_rows + 3

    def test_cyclic_structure_and_coverage(self):
        p = CAParams(2, 5, 3)
        arr, log = moser_tardos_build(p, make_cyclic(3), BuildConfig(seed=2))
        assert full_check(arr).is_covering
        assert arr.n_rows == 3 * log.stage1_rows

    def test_deterministic(self):
        p = CAParams(2, 4, 2)
        a1, l1 = moser_tardos_build(p, make_cyclic(2), BuildConfig(seed=9))
        a2, l2 = moser_tardos_build(p, make_cyclic(2), BuildConfig(seed=9))
        assert a1 == a2
        assert l1.resample_count == l2.resample_count

    def test_zero_cap_with_lucky_draw(self, monkeypatch):
        # find a seed whose very first draw already covers all orbits, then
        # demand zero resamples under a zero cap
        p = CAParams(2, 4, 2)
        action = make_cyclic(2)
        lucky = None
        for seed in range(100):
            _, log = moser_tardos_build(p, action, BuildConfig(seed=seed))
            if log.resample_count == 0:
                lucky = seed
                break
        assert lucky is not None
        monkeypatch.setattr(construct, "RESAMPLE_CAP", 0)
        arr, log = moser_tardos_build(p, action, BuildConfig(seed=lucky))
        assert log.success and log.resample_count == 0
        assert full_check(arr).is_covering

    def test_cap_failure_is_flagged(self, monkeypatch):
        p = CAParams(2, 8, 2)
        # n far below the bound level: resampling cannot terminate
        monkeypatch.setattr(construct, "RESAMPLE_CAP", 5)
        config = BuildConfig(seed=1, n_override=2)
        arr, log = moser_tardos_build(p, make_cyclic(2), config)
        assert not log.success
        assert log.resample_count == 5
        assert "cap" in log.failure_reason

    def test_resampling_unranks_one_set_per_resample(self, monkeypatch):
        # the kernel yields rank ranges, and the scan unranks only the
        # offender it resamples, by core's scalar unrank: a block-wide unrank
        # would count thousands of sets here.  The kernel's own unranks are
        # of (t-1)-prefixes, counted apart: the window of 30 rows holds all
        # C(15, 2) = 105 top prefixes in one piece, whose unrank the build's
        # one kernel keeps, so the first scan fills it and every rescan
        # gathers from the kept unrank.  The array is the one the
        # builder made when every block's sets were unranked (same digest
        # input as test_golden).
        p = CAParams(3, 16, 4)
        unranked, filled = [], []
        unrank, unrank_one = construct._colex_unrank, construct.colex_unrank

        def counted(ranks, binomials, out=None):
            (unranked if len(binomials) == p.t else filled).append(len(ranks))
            return unrank(ranks, binomials, out)

        def counted_one(rank, t):
            unranked.append(1)
            return unrank_one(rank, t)

        monkeypatch.setattr(construct, "_colex_unrank", counted)
        monkeypatch.setattr(construct, "colex_unrank", counted_one)
        n = bounds.frobenius_lll_bound(p).stage1_rows * 3 // 4
        arr, log = moser_tardos_build(p, make_frobenius(4), BuildConfig(seed=1, n_override=n))
        assert log.success and log.resample_count > 0
        assert unranked == [1] * log.resample_count
        assert filled == [comb(15, 2)]
        h = hashlib.sha256(f"CA {arr.n_rows} {p.t} {p.k} {p.v}\n".encode("ascii"))
        h.update(np.ascontiguousarray(arr.cells, dtype=np.uint8).tobytes())
        assert (n, arr.n_rows, log.resample_count, h.hexdigest()) == (
            30, 364, 26, "970f7877b7e6ed9aae019b78f4dfac51491e52d450da5f8e4215d6ac3526d84e")

    def test_pgl_action_matches_pgl_build(self):
        for p in (CAParams(2, 4, 4), CAParams(3, 5, 4), CAParams(2, 6, 3)):
            config = BuildConfig(seed=1)
            a1, l1 = moser_tardos_build(p, make_pgl(p.v), config)
            a2, l2 = pgl_build(p, config)
            assert a1 == a2
            assert (l1.strategy, l1.resample_count, l1.total_rows) == (
                l2.strategy, l2.resample_count, l2.total_rows)

    def test_trivial_action_is_rejected(self):
        # as is any kind without an orbit builder, a bound method's name included
        for kind in ("trivial", "gss", "slj", "two_stage"):
            action = dataclasses.replace(make_trivial(3), kind=kind)
            with pytest.raises(ValueError, match=f"action kind '{kind}'"):
                moser_tardos_build(CAParams(2, 4, 3), action, BuildConfig(n_override=5))

    @pytest.mark.parametrize("kind", ["cyclic", "frobenius", "pgl"])
    def test_resample_targets_are_the_census_events(self, kind):
        make_action = {"cyclic": make_cyclic, "frobenius": make_frobenius, "pgl": make_pgl}[kind]
        checked = 0
        for v in range(2, 10):
            try:
                action = make_action(v)
            except UnsupportedParameterError:
                continue
            for t in range(2, 5):
                if v**t > 20000:
                    continue
                targets = enumerate_orbits(action, t).full_orbit_ids
                assert len(targets) == bounds._orbit_census(kind, t, v)[0], (t, v)
                checked += 1
        assert checked >= 5

    def test_witness_positions_recorded(self, monkeypatch):
        # three binary rows never cover every orbit on all 15 column pairs, so
        # the run resamples up to its cap of 40; a run capped at j resamples
        # takes the same first j, so its last witness is the j-th position
        p = CAParams(2, 6, 2)
        config = BuildConfig(seed=0, n_override=3)

        def capped(cap):
            monkeypatch.setattr(construct, "RESAMPLE_CAP", cap)
            return moser_tardos_build(p, make_cyclic(2), config)[1]

        log = capped(40)
        assert not log.success and log.resample_count == 40
        positions = [capped(j).resample_witness[-1]
                     for j in range(log.resample_count - 15, log.resample_count + 1)]
        assert list(log.resample_witness) == positions
        assert all(type(pos) is int and 0 <= pos < comb(6, 2) for pos in positions)


class TestPglBuild:
    def test_t2_shape_and_coverage(self):
        p = CAParams(2, 4, 4)
        arr, log = pgl_build(p, BuildConfig(seed=5))
        assert full_check(arr).is_covering
        # t=2 has no full orbits: total = C(4,2)*binary + 4 constants
        assert log.stage1_rows == 0
        assert arr.n_rows == log.stage2_rows + 4

    def test_t3_structure(self):
        p = CAParams(3, 5, 4)
        arr, log = pgl_build(p, BuildConfig(seed=5))
        assert full_check(arr).is_covering
        assert (
            arr.n_rows
            == 24 * log.stage1_rows + log.stage2_rows + 4
        )
        assert log.stage2_rows % 6 == 0  # C(4,2) equal binary blocks

    def test_pair_arrays_cover_two_symbol_orbits_alone(self):
        # drop the developed stage entirely; the pair blocks plus constants
        # must still cover every non-full orbit on every column set
        p = CAParams(3, 5, 4)
        arr, log = pgl_build(p, BuildConfig(seed=5))
        tail = SymbolArray(p, arr.cells[24 * log.stage1_rows :])
        table = enumerate_orbits(make_pgl(4), 3)
        nonfull = set(range(table.n_orbits)) - set(table.full_orbit_ids)
        for cols in combinations(range(5), 3):
            present = set()
            for row in tail.cells:
                rank = (int(row[cols[0]]) * 4 + int(row[cols[1]])) * 4 + int(row[cols[2]])
                present.add(int(table.orbit_id_of[rank]))
            assert all(oid in present for oid in nonfull), cols

    def test_zero_rows_with_full_orbits_fail_without_resampling(self, monkeypatch):
        # t=3, v=4 has one full orbit; no row can cover it, so none is drawn again
        p = CAParams(3, 6, 4)
        monkeypatch.setattr(construct, "RESAMPLE_CAP", 3)
        arr, log = pgl_build(p, BuildConfig(seed=5, n_override=0))
        assert not log.success
        assert log.failure_reason == "fewer stage-1 rows (0) than full orbits of a column set (1)"
        assert log.resample_count == 0 and log.stage1_rows == 0
        assert not full_check(arr).is_covering

    def test_mt_cyclic_pair_strategy(self):
        # at (2,16,2) the cyclic bound (16) undercuts two-stage (20), so the
        # pair array is the cyclic orbit builder's, of exactly 16 rows
        p = CAParams(2, 16, 4)
        binary = CAParams(2, 16, 2)
        assert bounds.cyclic_lll_bound(binary).value < bounds.two_stage_bound(binary).value
        arr, log = pgl_build(p, BuildConfig(seed=5))
        assert full_check(arr).is_covering
        assert log.stage2_rows == comb(4, 2) * bounds.cyclic_lll_bound(binary).value

    def test_pair_array_takes_two_stage_when_not_beaten(self, monkeypatch):
        # at (2,4,2) two-stage (10) undercuts the cyclic bound (12); its
        # stage-1 rows are handed over, not computed again
        calls = []
        monkeypatch.setattr(
            construct, "two_stage_build", lambda p, c: calls.append(c) or two_stage_build(p, c))
        arr, log = pgl_build(CAParams(2, 4, 4), BuildConfig(seed=5))
        assert full_check(arr).is_covering
        binary = CAParams(2, 4, 2)
        assert [c.n_override for c in calls] == [bounds.two_stage_bound(binary).stage1_rows]


class TestStage1RowsForAction:
    def test_each_kind_takes_its_bound(self):
        p = CAParams(3, 6, 4)
        config = BuildConfig(dependence_estimate="improved")
        for action, bound in (
            (make_cyclic(4), bounds.cyclic_lll_bound),
            (make_frobenius(4), bounds.frobenius_lll_bound),
            (make_pgl(4), bounds.pgl_lll_bound),
        ):
            rows = construct._stage1_rows(p, action.kind, config)
            assert rows == bound(p, "improved").stage1_rows

    def test_override_comes_first(self):
        config = BuildConfig(n_override=7)
        for action in (make_cyclic(3), make_trivial(3)):
            assert construct._stage1_rows(CAParams(2, 4, 3), action.kind, config) == 7
        assert construct._stage1_rows(CAParams(2, 4, 3), "two_stage", config) == 7

    @pytest.mark.parametrize("dependence", ["simple", "improved"])
    def test_two_stage_takes_its_minimizer(self, dependence):
        p = CAParams(3, 6, 4)
        config = BuildConfig(dependence_estimate=dependence)
        rows = construct._stage1_rows(p, "two_stage", config)
        assert rows == bounds.two_stage_bound(p).stage1_rows
        assert two_stage_build(p, config)[1].stage1_rows == rows


class TestSizeDiscipline:
    def test_builds_stay_within_matching_bounds(self):
        cases = [
            (CAParams(2, 4, 2), "two_stage"),
            (CAParams(2, 6, 3), "two_stage"),
            (CAParams(2, 5, 4), "mt_cyclic"),
            (CAParams(2, 6, 3), "mt_frobenius"),
            (CAParams(2, 16, 4), "pgl"),
            (CAParams(2, 30, 4), "pgl"),
            (CAParams(3, 8, 4), "pgl"),
            (CAParams(2, 6, 3), "pgl"),
        ]
        for p, strategy in cases:
            # a strategy that reads the second stage is built under each choice
            reads = "second_stage" in construct.STRATEGIES[strategy].reads
            stages = construct._CONFIG_CHOICES["second_stage"] if reads else ("one_row_each",)
            for second_stage, seed in product(stages, range(5)):
                config = BuildConfig(seed=seed, second_stage=second_stage)
                if strategy == "two_stage":
                    arr, log = two_stage_build(p, config)
                    cap = bounds.two_stage_bound(p).value
                elif strategy == "mt_cyclic":
                    arr, log = moser_tardos_build(p, make_cyclic(p.v), config)
                    cap = bounds.cyclic_lll_bound(p).value
                elif strategy == "pgl":
                    arr, log = pgl_build(p, config)
                    cap = bounds.pgl_lll_bound(p).value
                else:
                    arr, log = moser_tardos_build(p, make_frobenius(p.v), config)
                    cap = bounds.frobenius_lll_bound(p).value
                assert log.success
                assert arr.n_rows <= cap
                assert full_check(arr).is_covering


# an off-default value for every BuildConfig field besides the seed
OFF_DEFAULT = {
    "dependence_estimate": "improved",
    "second_stage": "colour",
    "n_override": 4,
}
# (strategy, a field it reads) -> (shape, seed, value) at which that value
# changes the array or the log.  pgl reads the two-stage fields through its
# pair rows: at (3,6,3) they come from two_stage_build.
WITNESSES = {
    ("two_stage", "n_override"): ((2, 4, 3), 1, 4),
    ("two_stage", "second_stage"): ((2, 4, 3), 1, "colour"),
    ("mt_cyclic", "n_override"): ((2, 4, 3), 1, 4),
    ("mt_cyclic", "dependence_estimate"): ((2, 4, 3), 1, "improved"),
    ("mt_frobenius", "n_override"): ((2, 4, 3), 1, 4),
    ("mt_frobenius", "dependence_estimate"): ((3, 6, 3), 1, "improved"),
    ("pgl", "n_override"): ((2, 4, 3), 1, 4),
    ("pgl", "second_stage"): ((3, 6, 3), 1, "colour"),
    ("pgl", "dependence_estimate"): ((3, 6, 3), 1, "improved"),
}


def _build_fingerprint(strategy, shape, config):
    """The array's cells and the whole log but the phase times."""
    array, log = construct.STRATEGIES[strategy].build(CAParams(*shape), config)
    record = dataclasses.asdict(log)
    record["elapsed"] = list(record["elapsed"])
    return array.cells.tobytes(), record


class TestStrategyTable:
    """construct.STRATEGIES names the fields each strategy reads: checked
    against what the builders do, not against a second list."""

    def test_every_read_field_has_one_witness(self):
        names = {f.name for f in dataclasses.fields(BuildConfig)} - {"seed"}
        assert set(OFF_DEFAULT) == names
        read = {(s, f) for s, entry in construct.STRATEGIES.items() for f in entry.reads}
        assert set(WITNESSES) == read

    @pytest.mark.parametrize("strategy, name", sorted(WITNESSES))
    def test_read_field_changes_the_build(self, strategy, name):
        shape, seed, value = WITNESSES[strategy, name]
        config = BuildConfig(seed=seed)
        assert value != getattr(config, name)
        assert _build_fingerprint(strategy, shape, config) != _build_fingerprint(
            strategy, shape, dataclasses.replace(config, **{name: value}))
        if strategy == "pgl" and name == "second_stage":
            binary = CAParams(shape[0], shape[1], 2)
            assert not bounds.cyclic_lll_bound(binary).value < bounds.two_stage_bound(binary).value

    @pytest.mark.parametrize("strategy", tuple(construct.STRATEGIES))
    def test_unread_field_changes_nothing(self, strategy):
        reads = construct.STRATEGIES[strategy].reads
        for shape, seed in [((2, 4, 3), 1), ((3, 6, 3), 2), ((2, 6, 4), 3)]:
            base = _build_fingerprint(strategy, shape, BuildConfig(seed=seed))
            for name, value in OFF_DEFAULT.items():
                if name not in reads:
                    config = BuildConfig(seed=seed, **{name: value})
                    assert _build_fingerprint(strategy, shape, config) == base, (shape, name)
