"""Tests for the core domain types and the interaction rank bijection."""

import math
import re
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverkit.construct import BuildConfig, random_array
from coverkit.core import (
    CAParams,
    ColumnSet,
    Interaction,
    SymbolArray,
    colex_combinations,
    colex_rank,
    colex_unrank,
    covers,
    interaction_rank,
    interaction_unrank,
)


class TestCAParams:
    def test_valid(self):
        p = CAParams(2, 4, 3)
        assert p.tuple_count == 9
        assert p.interaction_space_size == 6 * 9

    @pytest.mark.parametrize("t,k,v", [(1, 4, 2), (2, 1, 2), (3, 2, 2), (2, 4, 1), (2, 4, 0)])
    def test_invalid(self, t, k, v):
        with pytest.raises(ValueError):
            CAParams(t, k, v)

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    def test_numpy_integers_are_held_as_python_ints(self, integer):
        p = CAParams(integer(3), integer(10), integer(3))
        assert p == CAParams(3, 10, 3)
        assert all(type(x) is int for x in (p.t, p.k, p.v))

    def test_numpy_integers_do_not_wrap_the_counts(self):
        # numpy's int64 3**40 would wrap past 2**63
        assert CAParams(np.int64(40), np.int64(40), np.int64(3)).tuple_count == 3**40

    @pytest.mark.parametrize("name, value", [("t", 3.0), ("k", "10"), ("v", None)])
    def test_non_integers_are_refused(self, name, value):
        given = {"t": 3, "k": 10, "v": 3, name: value}
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {value!r}$"):
            CAParams(**given)

    def test_exact_space_size(self):
        p = CAParams(6, 54, 3)
        assert p.interaction_space_size == math.comb(54, 6) * 3**6


class TestSymbolArray:
    def test_cells_read_only(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            arr.cells[0, 0] = 1

    def test_caller_buffer_stays_writeable_and_unshared(self):
        p = CAParams(2, 4, 2)
        buf = np.zeros((3, 4), dtype=np.int32)
        arr = SymbolArray(p, buf)
        view = buf[:]
        view.setflags(write=False)
        from_view = SymbolArray(p, view)
        assert buf.flags.writeable and not arr.cells.flags.writeable
        buf[0, 0] = 1
        assert arr.cells[0, 0] == 0 and from_view.cells[0, 0] == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 2)])

    @pytest.mark.parametrize("shape", [(8,), (2, 2, 2)])
    def test_rejects_cells_that_are_not_2d(self, shape):
        # 8 cells would reshape silently to two rows of k=4
        with pytest.raises(ValueError, match="2-D"):
            SymbolArray(CAParams(2, 4, 2), np.zeros(shape, dtype=np.int32))

    def test_rejects_bad_row_length(self):
        with pytest.raises(ValueError):
            SymbolArray(CAParams(2, 3, 2), np.zeros((2, 2), dtype=np.int32))

    def test_rejects_float_cells(self):
        # cast, 0.7 and 1.2 would truncate to the valid cells 0 and 1
        with pytest.raises(TypeError, match="cells must be integers, got dtype float64"):
            SymbolArray(CAParams(2, 2, 3), np.array([[0.7, 1.2]]))

    @pytest.mark.parametrize("cell, dtype", [
        (2**32 + 5, np.int64),  # cast, it wraps to the valid cell 5
        (2**64 - 1, np.uint64),  # cast, it wraps to -1
        (2**31, np.int64),  # one past the int32 maximum
    ])
    def test_rejects_cells_past_int32(self, cell, dtype):
        with pytest.raises(ValueError, match="cell above 2147483647, the largest symbol an array"):
            SymbolArray(CAParams(2, 2, 2**64), np.array([[cell, 0]], dtype=dtype))

    def test_rejects_a_negative_cell_that_would_wrap_into_range(self):
        with pytest.raises(ValueError, match="0..2"):
            SymbolArray(CAParams(2, 2, 3), np.array([[1 - 2**32, 0]], dtype=np.int64))

    @pytest.mark.parametrize("cells", [
        np.array([[True, False]]),
        np.array([[2**31 - 1, 0]], dtype=np.int64),
        np.array([[2**31 - 1, 0]], dtype=np.uint64),
        np.array([[255, 0]], dtype=np.uint8),
    ])
    def test_accepts_integer_and_bool_cells_in_range(self, cells):
        arr = SymbolArray(CAParams(2, 2, 2**40), cells)
        assert arr.cells.dtype == np.int32 and arr.cells.tolist() == cells.astype(int).tolist()

    def test_equality(self):
        p = CAParams(2, 2, 2)
        assert SymbolArray.from_rows(p, [(0, 1)]) == SymbolArray.from_rows(p, [(0, 1)])
        assert SymbolArray.from_rows(p, [(0, 1)]) != SymbolArray.from_rows(p, [(1, 0)])


class TestInteraction:
    def test_columns_must_increase(self):
        with pytest.raises(ValueError):
            Interaction((1, 0), (0, 0))
        with pytest.raises(ValueError):
            Interaction((1, 1), (0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Interaction((0, 1), (0,))

    def test_column_set(self):
        with pytest.raises(ValueError):
            ColumnSet((2, 2))
        assert ColumnSet((0, 3)).valid_for(CAParams(2, 4, 2))

    @pytest.mark.parametrize(
        "make",
        [ColumnSet, lambda cols: Interaction(cols, (0,) * len(cols))],
        ids=["ColumnSet", "Interaction"],
    )
    @pytest.mark.parametrize(
        "cols, message",
        [
            ((-1, 2), "column indices must be nonnegative"),
            ((2, -1), "column indices must be nonnegative"),
            ((1, 0), "columns must be strictly increasing, got (1, 0)"),
            ((1, 1), "columns must be strictly increasing, got (1, 1)"),
            # numpy integers are shown as the ints they were converted to
            (np.array([3, 2]), "columns must be strictly increasing, got (3, 2)"),
        ],
    )
    def test_column_messages(self, make, cols, message):
        with pytest.raises(ValueError) as exc:
            make(cols)
        assert str(exc.value) == message

    @pytest.mark.parametrize("cols", [(0, 1), (-1, 2), (1, 0)])
    def test_length_mismatch_is_reported_first(self, cols):
        with pytest.raises(ValueError) as exc:
            Interaction(cols, (0, 0, 0))
        assert str(exc.value) == "columns and symbols must have the same length"

    def test_symbols_are_checked_after_columns(self):
        with pytest.raises(ValueError) as exc:
            Interaction((1, 0), (-1, 0))
        assert str(exc.value) == "columns must be strictly increasing, got (1, 0)"
        with pytest.raises(ValueError) as exc:
            Interaction((0, 1), (-1, 0))
        assert str(exc.value) == "symbols must be nonnegative"

    def test_valid_for(self):
        p = CAParams(2, 4, 3)
        assert Interaction((0, 3), (2, 0)).valid_for(p)
        assert not Interaction((0, 1, 2), (0, 0, 0)).valid_for(p)  # wrong t
        assert not Interaction((0,), (0,)).valid_for(p)
        assert not Interaction((0, 4), (0, 0)).valid_for(p)  # a column >= k
        assert not Interaction((0, 3), (0, 3)).valid_for(p)  # a symbol >= v
        assert ColumnSet((0, 3)).valid_for(p)
        assert not ColumnSet((0, 1, 2)).valid_for(p)
        assert not ColumnSet((0,)).valid_for(p)
        assert not ColumnSet((0, 4)).valid_for(p)

    def test_require_valid_for_names_the_interaction(self):
        p = CAParams(2, 4, 3)
        Interaction((0, 3), (2, 0)).require_valid_for(p)
        with pytest.raises(ValueError) as exc:
            Interaction((0, 3), (0, 3)).require_valid_for(p)
        assert str(exc.value) == (
            "Interaction(columns=(0, 3), symbols=(0, 3)) is not a 2-way interaction "
            "for CAParams(t=2, k=4, v=3)"
        )


P = CAParams(2, 3, 2)

# every entry point that takes an integer scalar from a caller: the name a
# refusal gives it, and a call that passes x there and returns what is
# held from it (random_array's seed holds nothing, so its array)
INTEGER_INPUTS = {
    "CAParams.t": ("t", lambda x: CAParams(x, 3, 2).t),
    "CAParams.k": ("k", lambda x: CAParams(2, x, 2).k),
    "CAParams.v": ("v", lambda x: CAParams(2, 3, x).v),
    **{f"BuildConfig.{name}": (name, lambda x, name=name: getattr(BuildConfig(**{name: x}), name))
       for name in ("seed", "n_override")},
    "random_array.n": ("n", lambda x: random_array(P, x, 1).n_rows),
    "random_array.seed": ("seed", lambda x: random_array(P, 2, x)),
    "ColumnSet": ("columns", lambda x: ColumnSet((0, x)).columns[1]),
    "Interaction.columns": ("columns", lambda x: Interaction((0, x), (0, 1)).columns[1]),
    "Interaction.symbols": ("symbols", lambda x: Interaction((0, 1), (0, x)).symbols[1]),
}


def from_rows(x):
    """A one-row array whose second cell is x."""
    return SymbolArray.from_rows(CAParams(2, 2, 3), [[0, x]])


class TestIntegerInputs:
    """One table for every integer a caller hands in: no value is
    rounded, parsed or read as a bool, and numpy integers are held as
    the Python ints they equal.  Only array cells take bools."""

    @pytest.mark.parametrize("value", [0.7, 2.0, "1", True, np.True_],
                             ids=["0.7", "2.0", "'1'", "True", "np.True_"])
    @pytest.mark.parametrize("entry", INTEGER_INPUTS)
    def test_non_integers_and_bools_are_refused(self, entry, value):
        name, call = INTEGER_INPUTS[entry]
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)

    @pytest.mark.parametrize("value", [0.7, 2.0, "1"], ids=["0.7", "2.0", "'1'"])
    def test_from_rows_refuses_non_integer_cells(self, value):
        with pytest.raises(TypeError, match="^cells must be integers, got dtype "):
            from_rows(value)

    @pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
    def test_from_rows_accepts_bool_cells(self, value):
        assert from_rows(value) == from_rows(1)

    @pytest.mark.parametrize("integer", [np.int64, np.uint8])
    @pytest.mark.parametrize("entry", [*INTEGER_INPUTS, "from_rows"])
    def test_numpy_integers_are_held_as_python_ints(self, entry, integer):
        call = from_rows if entry == "from_rows" else INTEGER_INPUTS[entry][1]
        held, plain = call(integer(2)), call(2)
        assert held == plain and type(held) is type(plain)

    def test_from_rows_of_no_rows_is_empty(self):
        cells = SymbolArray.from_rows(P, []).cells
        assert cells.shape == (0, 3) and cells.dtype == np.int32

    # rows go to the constructor as given, never reshaped to k columns
    @pytest.mark.parametrize("k, rows, error, message", [
        (2, [[0, 1, 1, 0]], ValueError, "rows have length 4, expected k=2"),
        (3, [[0, 1, 1, 0]], ValueError, "rows have length 4, expected k=3"),
        (2, [0, 1, 1, 0], ValueError, "cells must be a 2-D array, got 1-D"),
        (2, [[]], TypeError, "cells must be integers, got dtype float64"),
        # rows numpy cannot stack: the first that is not a sequence of k
        # cells, named once numpy refuses them
        (2, [[0, 1], [0]], ValueError, "row 1 has length 1, expected k=2"),
        (2, [[0, 1], 0], ValueError, "row 1 is not a sequence of k=2 cells"),
        (2, [[0, [1]], [0, 1]], ValueError, "row 0 is not a sequence of k=2 cells"),
    ], ids=["long-row", "long-row-k3", "flat", "one-empty-row", "ragged", "mixed", "nested"])
    def test_from_rows_splits_no_row(self, k, rows, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SymbolArray.from_rows(CAParams(2, k, 2), rows)

    def test_constructor_names_the_first_ragged_row(self):
        with pytest.raises(ValueError, match=r"^row 0 has length 3, expected k=2$"):
            SymbolArray(CAParams(2, 2, 2), [(0, 1, 1), (0, 1), [1, 0]])
        with pytest.raises(ValueError, match=r"^row 1 is not a sequence of k=2 cells$"):
            SymbolArray(CAParams(2, 2, 2), [[0, 1], 0])

    def test_unstackable_rows_with_no_bad_row_get_coverkit_message(self):
        class Rows(list):  # every row fits, but the whole will not stack
            def __array__(self, dtype=None, copy=None):
                raise ValueError("not an array")

        with pytest.raises(ValueError, match=r"^cells do not stack into rows of k=2 cells$"):
            SymbolArray(CAParams(2, 2, 2), Rows([[0, 1], [1, 0]]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.recursive(st.integers(0, 1), lambda cells: st.lists(cells, max_size=3), max_leaves=8))
    def test_any_nesting_gets_coverkit_message(self, cells):
        # numpy's "inhomogeneous shape" text, or a StopIteration, never
        # reaches the caller: the array is made or refused in coverkit's words
        try:
            SymbolArray(CAParams(2, 2, 2), cells)
        except (TypeError, ValueError) as exc:
            assert "inhomogeneous" not in str(exc) and "setting an array element" not in str(exc)


class TestCovers:
    def test_diagonal_array(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0), (1, 1)])
        assert covers(arr, Interaction((0, 1), (0, 0))) is True
        assert covers(arr, Interaction((0, 1), (0, 1))) is False

    def test_full_factorial_covers_everything(self):
        p = CAParams(2, 2, 3)
        arr = SymbolArray.from_rows(p, list(product(range(3), repeat=2)))
        for syms in product(range(3), repeat=2):
            assert covers(arr, Interaction((0, 1), syms))

    def test_dimension_mismatch_rejected(self):
        arr = SymbolArray.from_rows(CAParams(2, 2, 2), [(0, 0)])
        with pytest.raises(ValueError):
            covers(arr, Interaction((0, 1, 2), (0, 0, 0)))
        with pytest.raises(ValueError):
            covers(arr, Interaction((0, 5), (0, 0)))

    def test_row_monotone(self):
        # adding rows never flips covers from true to false
        p = CAParams(2, 4, 2)
        rng = np.random.default_rng(11)
        base = rng.integers(0, 2, size=(3, 4))
        extra = rng.integers(0, 2, size=(2, 4))
        small = SymbolArray(p, base)
        big = SymbolArray(p, np.vstack([base, extra]))
        for cols in combinations(range(4), 2):
            for syms in product(range(2), repeat=2):
                inter = Interaction(cols, syms)
                if covers(small, inter):
                    assert covers(big, inter)


class TestRanking:
    def test_first_elements_of_order(self):
        p = CAParams(2, 3, 2)
        first_pair = next(iter(colex_combinations(3, 2)))
        assert interaction_rank(Interaction(first_pair, (0, 0)), p) == 0
        assert interaction_rank(Interaction(first_pair, (0, 1)), p) == 1

    def test_bijectivity_small(self):
        p = CAParams(2, 3, 2)
        ranks = set()
        for cols in combinations(range(3), 2):
            for syms in product(range(2), repeat=2):
                ranks.add(interaction_rank(Interaction(cols, syms), p))
        assert ranks == set(range(12))

    @pytest.mark.parametrize("t,k,v", [(2, 5, 2), (2, 4, 3), (3, 5, 2), (3, 4, 3), (2, 6, 4)])
    def test_round_trip_exhaustive(self, t, k, v):
        p = CAParams(t, k, v)
        assert p.interaction_space_size <= 10**5
        for rank in range(p.interaction_space_size):
            inter = interaction_unrank(rank, p)
            assert interaction_rank(inter, p) == rank
        # and in the other direction, over all interactions
        for cols in combinations(range(k), t):
            for syms in product(range(v), repeat=t):
                inter = Interaction(cols, syms)
                assert interaction_unrank(interaction_rank(inter, p), p) == inter

    def test_colex_rank_independent_of_k(self):
        # ranks of subsets do not change when k grows
        for t in (2, 3):
            small = list(colex_combinations(5, t))
            large = list(colex_combinations(8, t))
            assert large[: len(small)] == small

    def test_colex_unrank_inverse(self):
        for t in (2, 3, 4):
            for r, cols in enumerate(colex_combinations(7, t)):
                assert colex_rank(cols) == r
                assert colex_unrank(r, t) == cols

    @pytest.mark.parametrize("cols", [
        (999_999,), (0, 999_999), (997, 998, 999), (0, 1, 2, 3, 4, 5, 6, 10**6),
        (5, 17, 40_000, 2**40), tuple(range(10**5, 10**5 + 12)),
    ])
    def test_colex_unrank_inverse_at_large_columns(self, cols):
        # the rank left at each position bounds a bisect below the column
        # one position up, so these take a few dozen comb calls each
        rank = colex_rank(cols)
        assert colex_unrank(rank, len(cols)) == cols
        assert colex_rank(colex_unrank(rank - 1, len(cols))) == rank - 1
