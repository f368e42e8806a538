"""numpy's Generator streams, pinned for each call shape the builders use.

Every random draw of the builders goes through ``numpy.random.Generator``:
``integers(0, v, size=(n, k), dtype=int32)`` for a block of rows, the same
call with ``size=n`` for a resampled column, and, under PGL, the two seeds
of ``SeedSequence(seed).spawn(2)``.  numpy freezes the streams of
``RandomState`` but not of ``Generator``'s methods, which a feature release
may change.  The golden arrays and bench digests rest on these streams, so
a change shows here first, as one failure that names the numpy version,
rather than as a failure of every golden digest.
"""

import numpy as np
import pytest

from coverkit.core import CELL_DTYPE

SEED = 1729

# v -> (a 3 x 4 block of rows, then one 3-row column redrawn) at SEED
ROWS = {
    2: ([[1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 1]], [0, 0, 1]),
    3: ([[2, 0, 1, 0], [2, 0, 0, 1], [1, 2, 1, 2]], [0, 1, 1]),
    4: ([[3, 0, 1, 0], [2, 1, 0, 2], [2, 3, 1, 3]], [0, 1, 2]),
    16: ([[12, 0, 5, 2], [11, 4, 1, 9], [8, 12, 7, 15]], [0, 7, 9]),
    256: ([[196, 7, 91, 43], [180, 75, 18, 147], [133, 207, 122, 249]], [9, 119, 147]),
}

# seed -> generate_state(1) of each child of SeedSequence(seed).spawn(2)
SPAWNED = {0: [3757552657, 673228719], 1729: [2666410027, 4238697849]}


def changed(what: str) -> str:
    return (f"{what} gives another stream under numpy {np.__version__}; the builders "
            "draw through numpy.random.Generator, so every seeded array (the golden "
            "pins, the bench digests) changes with it")


def test_cells_are_int32():
    # the pins below draw in the builders' cell dtype
    assert CELL_DTYPE == np.int32


@pytest.mark.parametrize("v", sorted(ROWS))
def test_rows_then_one_column(v):
    rng = np.random.default_rng(SEED)
    rows = rng.integers(0, v, size=(3, 4), dtype=np.int32).tolist()
    column = rng.integers(0, v, size=3, dtype=np.int32).tolist()
    assert (rows, column) == ROWS[v], changed(f"integers(0, {v}, dtype=int32)")


@pytest.mark.parametrize("seed", sorted(SPAWNED))
def test_spawned_seeds(seed):
    states = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(2)]
    assert states == SPAWNED[seed], changed(f"SeedSequence({seed}).spawn(2)")
