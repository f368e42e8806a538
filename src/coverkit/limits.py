"""Resource caps for operations that scale with v**t or C(k, t).

Both caps can be configured through the environment:

* ``COVERKIT_MEMORY_CAP_MIB``    - cap on any single coverage table
  (default 256 MiB).  Operations that need a table of v**t entries check
  their estimated footprint against this before allocating.  Blocked
  scans work within ``Budget.working``: 32 MiB, or this cap when lower.
* ``COVERKIT_MAX_COLUMN_SETS``   - cap on the number of column t-sets an
  operation may stream over, and on the length of the discrete SLJ
  recurrence, whether its steps are walked or read from its threshold
  table (default 50 million).

A ``Budget`` holds both caps, and ``Budget.from_env`` is the only reader
of the environment.  Each public call that prices a table or streams
column sets reads one Budget when it is called and hands it to the
helpers it runs, so its attempts, resamples and scans read nothing.
Nothing is cached across calls: a call made after the environment
changes reads the new caps.

Each value must be a nonnegative integer written in the ASCII digits 0-9,
surrounding whitespace aside; anything else (a sign, an underscore, other
digits) raises a ValueError naming the variable.  A refusal names each
count in full up to 15 digits, and past that to six digits and a power of
ten.
"""

import math
import os
from dataclasses import dataclass
from decimal import Decimal

from .errors import ResourceLimitError

_DEFAULT_MEMORY_CAP_MIB = 256
_DEFAULT_COLUMN_SET_CAP = 50_000_000
_WORKING_BYTES = 32 << 20


def _env_count(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{name} must be a nonnegative integer, got {text!r}")
    return int(digits)


def memory_cap_bytes() -> int:
    return _env_count("COVERKIT_MEMORY_CAP_MIB", _DEFAULT_MEMORY_CAP_MIB) * (1 << 20)


def column_set_cap() -> int:
    return _env_count("COVERKIT_MAX_COLUMN_SETS", _DEFAULT_COLUMN_SET_CAP)


def _count(n: int) -> str:
    """n in full up to 15 digits, else like 5.30827e+399.  Decimal holds n
    exactly, past the floats and past the digits str() converts."""
    return str(n) if n < 10**15 else f"{Decimal(n):.5e}"


@dataclass(frozen=True)
class Budget:
    """The caps one call works within: ``memory``, the cap in bytes on any
    single table, and ``column_sets``, on the column sets a scan streams
    and the steps a loop takes."""

    memory: int
    column_sets: int

    @classmethod
    def from_env(cls) -> "Budget":
        """Both caps, read from the environment once."""
        return cls(memory_cap_bytes(), column_set_cap())

    @property
    def working(self) -> int:
        """The working budget of blocked scans: 32 MiB, or the memory cap
        when lower."""
        return min(_WORKING_BYTES, self.memory)

    def check_table_bytes(
            self, n_entries: int, bytes_per_entry: int, what: str, fixed: int = 0) -> None:
        """Raise ResourceLimitError if a table, and ``fixed`` bytes beside
        its entries, would exceed the memory cap."""
        need = n_entries * bytes_per_entry + fixed
        if need > self.memory:
            raise ResourceLimitError(
                f"{what} needs {_count(need)} bytes for {_count(n_entries)} entries, "
                f"above the configured cap of {_count(self.memory)} bytes"
            )

    def check_column_sets(self, k: int, t: int, what: str) -> None:
        """Raise ResourceLimitError if streaming C(k, t) column sets is over cap."""
        total = math.comb(k, t)
        if total > self.column_sets:
            raise ResourceLimitError(f"{what} would stream {_count(total)} column sets, "
                                     f"above the cap of {_count(self.column_sets)}")

    def check_steps(self, n_steps: int, what: str) -> None:
        """Raise ResourceLimitError if a loop of n_steps is over the column-set cap."""
        if n_steps > self.column_sets:
            raise ResourceLimitError(f"{what} would take {_count(n_steps)} steps, "
                                     f"above the cap of {_count(self.column_sets)}")
