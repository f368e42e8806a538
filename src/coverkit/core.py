"""Core types for covering arrays.

A covering array CA(N; t, k, v) is an N x k matrix over the symbols
{0, ..., v-1} in which, for every choice of t columns, every one of the
v**t possible symbol t-tuples appears in at least one row.  Everything else
in the package builds on the value types defined here:

* ``CAParams``    - the parameter triple (t, k, v),
* ``SymbolArray`` - a candidate or completed array,
* ``Interaction`` - an assignment of symbols to t specific columns,
* ``ColumnSet``   - a bare t-subset of columns.

Conventions, fixed once and relied on everywhere:

* symbols are the integers 0..v-1; external alphabets are mapped at the
  I/O boundary,
* column indices are 0-based internally and 1-based only in human-facing
  CLI output,
* column subsets are strictly increasing tuples, ordered and ranked
  colexicographically (the rank of a subset does not depend on k),
* symbol tuples are ranked as base-v numbers with the first position most
  significant, which makes tuple rank order equal to lexicographic order.

An interaction's dense rank is ``colex_rank(columns) * v**t + symbol rank``,
a bijection onto {0, ..., C(k,t)*v**t - 1}.

The rank and unrank helpers live here, once each: ``colex_rank`` and
``colex_unrank`` for one column set, ``symbols_rank`` and
``symbols_unrank`` for one symbol tuple, and ``place_values``, the
base-v place values that rank symbol tuples a table at a time.  The
builder's kernel keeps only a vectorised colex unrank of its own, over
its table of binomials.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "CAParams",
    "SymbolArray",
    "Interaction",
    "ColumnSet",
    "covers",
    "interaction_rank",
    "interaction_unrank",
    "colex_rank",
    "colex_unrank",
    "colex_combinations",
    "symbols_rank",
    "symbols_unrank",
    "place_values",
]

CELL_DTYPE = np.int32
CELL_MAX = int(np.iinfo(CELL_DTYPE).max)  # the largest symbol an array holds


def _integer(name: str, value) -> int:
    """value as a Python int, by ``operator.index``: any integer type,
    numpy's too, and no float or bool; TypeError naming ``name``
    otherwise.  A bool is refused before ``operator.index``, which takes
    Python's and, with a deprecation warning, numpy 1.x's.  A numpy
    integer is converted, not kept, as its arithmetic wraps."""
    if not isinstance(value, (bool, np.bool_)):
        with suppress(TypeError):
            return operator.index(value)
    raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class CAParams:
    """Covering array parameters: strength t, columns k, alphabet size v,
    integers of any type (numpy's too), held as Python ints."""

    t: int
    k: int
    v: int

    def __post_init__(self) -> None:
        for name in ("t", "k", "v"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.t < 2:
            raise ValueError(f"strength t must be at least 2, got {self.t}")
        if self.k < self.t:
            raise ValueError(f"need k >= t, got k={self.k}, t={self.t}")
        if self.v < 2:
            raise ValueError(f"alphabet size v must be at least 2, got {self.v}")

    @property
    def tuple_count(self) -> int:
        """v**t, the number of symbol tuples on one column set."""
        return self.v**self.t

    @property
    def interaction_space_size(self) -> int:
        """C(k,t) * v**t, exact."""
        return math.comb(self.k, self.t) * self.v**self.t


@dataclass(frozen=True, eq=False)
class SymbolArray:
    """An n x k matrix of symbols in {0, ..., v-1}.

    The cell matrix is stored as a read-only int32 ndarray; instances are
    immutable values and safe to share between threads.  The cells given
    must be integers or booleans, and are range-checked as given, before
    the int32 cast, so no cell is rounded or wrapped into range.  Rows
    that numpy cannot stack into one array (of unequal lengths, or a row
    mixed with cells, or a cell that is itself a list) are refused by the
    first that is not a sequence of k cells.
    """

    params: CAParams
    cells: np.ndarray

    def __post_init__(self) -> None:
        try:
            cells = np.asarray(self.cells)
        except ValueError:  # numpy's refusal of rows of unequal shapes
            raise ValueError(_unstackable(self.cells, self.params.k)) from None
        if cells.dtype.kind not in "biu":
            raise TypeError(f"cells must be integers, got dtype {cells.dtype}")
        if cells.ndim != 2:
            raise ValueError(f"cells must be a 2-D array, got {cells.ndim}-D")
        if cells.shape[1] != self.params.k:
            raise ValueError(
                f"rows have length {cells.shape[1]}, expected k={self.params.k}"
            )
        # Python ints: no comparison of numpy and Python integers, whose
        # rules changed between numpy 1.x and 2.x
        low, high = (int(cells.min()), int(cells.max())) if cells.size else (0, 0)
        if low < 0 or high >= self.params.v:
            raise ValueError(f"cell values must lie in 0..{self.params.v - 1}")
        if high > CELL_MAX:
            raise ValueError(f"cell above {CELL_MAX}, the largest symbol an array holds")
        cells = np.ascontiguousarray(cells, dtype=CELL_DTYPE)
        if cells is self.cells:
            cells = cells.copy()  # own the cells: never freeze or alias the caller's buffer
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_rows(cls, params: CAParams, rows: Sequence[Sequence[int]]) -> "SymbolArray":
        """The rows as given, checked by the constructor like any cells, so
        no cell is rounded and no row is split; no rows give a (0, k)
        array."""
        rows = list(rows)
        return cls(params, rows) if rows else cls.empty(params)

    @classmethod
    def empty(cls, params: CAParams) -> "SymbolArray":
        return cls(params, np.empty((0, params.k), dtype=CELL_DTYPE))

    @property
    def n_rows(self) -> int:
        return self.cells.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolArray):
            return NotImplemented
        return self.params == other.params and np.array_equal(self.cells, other.cells)

    def __repr__(self) -> str:
        p = self.params
        return f"SymbolArray(n={self.n_rows}, t={p.t}, k={p.k}, v={p.v})"


def _unstackable(rows, k: int) -> str:
    """Why numpy could not stack the rows: the first that is not a
    sequence of k cells, by its length where it is a sequence of cells."""
    for i, row in enumerate(rows):
        shape = ()  # a row numpy cannot read is no sequence of cells
        with suppress(ValueError):
            shape = np.shape(row)
        if len(shape) != 1:
            return f"row {i} is not a sequence of k={k} cells"
        if shape[0] != k:
            return f"row {i} has length {shape[0]}, expected k={k}"
    return f"cells do not stack into rows of k={k} cells"


@dataclass(frozen=True)
class ColumnSet:
    """A strictly increasing tuple of column indices, integers of any type
    but bool (``_integer``), held as Python ints."""

    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = tuple(_integer("columns", c) for c in self.columns)
        if any(c < 0 for c in cols):
            raise ValueError("column indices must be nonnegative")
        if any(a >= b for a, b in zip(cols, cols[1:])):
            raise ValueError(f"columns must be strictly increasing, got {cols}")
        object.__setattr__(self, "columns", cols)

    def valid_for(self, params: CAParams) -> bool:
        return len(self.columns) == params.t and all(c < params.k for c in self.columns)


@dataclass(frozen=True)
class Interaction:
    """Symbols assigned to a strictly increasing tuple of columns, which
    are checked as a ``ColumnSet`` once the two lengths agree.  Symbols,
    like columns, are integers of any type but bool, held as Python ints."""

    columns: tuple[int, ...]
    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        syms = tuple(_integer("symbols", s) for s in self.symbols)
        if len(cols) != len(syms):
            raise ValueError("columns and symbols must have the same length")
        object.__setattr__(self, "columns", ColumnSet(cols).columns)
        if any(s < 0 for s in syms):
            raise ValueError("symbols must be nonnegative")
        object.__setattr__(self, "symbols", syms)

    def valid_for(self, params: CAParams) -> bool:
        symbols_fit = all(s < params.v for s in self.symbols)
        return symbols_fit and ColumnSet(self.columns).valid_for(params)

    def require_valid_for(self, params: CAParams) -> None:
        if not self.valid_for(params):
            raise ValueError(f"{self} is not a {params.t}-way interaction for {params}")


def colex_rank(columns: Sequence[int]) -> int:
    """Colexicographic rank of a strictly increasing index tuple.

    rank = sum C(c_i, i) over positions i = 1..t; independent of k.
    """
    return sum(math.comb(c, i) for i, c in enumerate(columns, start=1))


def colex_unrank(rank: int, t: int) -> tuple[int, ...]:
    """Inverse of colex_rank for subsets of size t.  Position i, from t
    down, holds the largest c with C(c, i) at most the rank left: a bisect
    over math.comb below the column found one position up, and at the top
    below the first of t, 2t + 1, ... whose C(., t) passes the rank."""
    cols = [0] * t
    top = t
    while t and math.comb(top, t) <= rank:
        top = 2 * top + 1
    for i in range(t, 0, -1):
        top = bisect_right(range(top), rank, lo=i - 1, key=lambda c: math.comb(c, i)) - 1
        cols[i - 1] = top
        rank -= math.comb(top, i)
    return tuple(cols)


def colex_combinations(k: int, t: int) -> Iterator[tuple[int, ...]]:
    """All t-subsets of {0..k-1} in colexicographic order, lazily."""
    if t == 0:
        yield ()
        return
    for last in range(t - 1, k):
        for rest in colex_combinations(last, t - 1):
            yield rest + (last,)


def symbols_rank(symbols: Sequence[int], v: int) -> int:
    """Base-v value of a symbol tuple, first position most significant."""
    r = 0
    for s in symbols:
        r = r * v + s
    return r


def place_values(t: int, v: int) -> np.ndarray:
    """v**(t-1), ..., v, 1 as int64: the base-v place values that rank a
    symbol t-tuple, first position most significant."""
    return v ** np.arange(t - 1, -1, -1, dtype=np.int64)


def symbols_unrank(rank: int, t: int, v: int) -> tuple[int, ...]:
    out = [0] * t
    r = rank
    for i in range(t - 1, -1, -1):
        out[i] = r % v
        r //= v
    return tuple(out)


def covers(array: SymbolArray, interaction: Interaction) -> bool:
    """True iff some row of the array matches the interaction on all t columns."""
    interaction.require_valid_for(array.params)
    cols = list(interaction.columns)
    syms = np.array(interaction.symbols, dtype=CELL_DTYPE)
    return bool((array.cells[:, cols] == syms).all(axis=1).any())


def interaction_rank(interaction: Interaction, params: CAParams) -> int:
    """Dense rank of an interaction in {0, ..., C(k,t)*v**t - 1}.

    Column sets are ordered colexicographically, symbol tuples as base-v
    numbers with the first symbol most significant.
    """
    interaction.require_valid_for(params)
    return colex_rank(interaction.columns) * params.tuple_count + symbols_rank(
        interaction.symbols, params.v
    )


def interaction_unrank(rank: int, params: CAParams) -> Interaction:
    """Inverse of interaction_rank."""
    if not 0 <= rank < params.interaction_space_size:
        raise ValueError(f"rank {rank} out of range for {params}")
    cset_rank, sym_rank = divmod(rank, params.tuple_count)
    return Interaction(
        colex_unrank(cset_rank, params.t),
        symbols_unrank(sym_rank, params.t, params.v),
    )
