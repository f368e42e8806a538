"""Resource caps for operations that scale with v**t or C(k, t).

Both caps can be configured through the environment:

* ``COVERKIT_MEMORY_CAP_MIB``    - cap on any single coverage table
  (default 256 MiB).  Operations that need a table of v**t entries check
  their estimated footprint against this before allocating.  Blocked
  scans work within ``working_bytes()``: 32 MiB, or this cap when lower.
* ``COVERKIT_MAX_COLUMN_SETS``   - cap on the number of column t-sets an
  operation may stream over, and on the length of the discrete SLJ
  recurrence, whether its steps are walked or read from its threshold
  table (default 50 million).

Nothing is cached: each call reads the environment afresh.  A coverage
scan and ``full_check`` read the memory cap once each and pass that value
(``cap``) to every table they price.

Each value must be a nonnegative integer; anything else raises a
ValueError naming the variable.  A refusal names each count in full up to
15 digits, and past that to six digits and a power of ten.
"""

import math
import os
from decimal import Decimal

from .errors import ResourceLimitError

_DEFAULT_MEMORY_CAP_MIB = 256
_DEFAULT_COLUMN_SET_CAP = 50_000_000
_WORKING_BYTES = 32 << 20


def _env_count(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    error = ValueError(f"{name} must be a nonnegative integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:
        raise error from None
    if value < 0:
        raise error
    return value


def memory_cap_bytes() -> int:
    return _env_count("COVERKIT_MEMORY_CAP_MIB", _DEFAULT_MEMORY_CAP_MIB) * (1 << 20)


def working_bytes(cap: int | None = None) -> int:
    """The working budget of blocked scans: 32 MiB, or the memory cap when
    lower.  A scan that has read the cap passes it as ``cap``."""
    return min(_WORKING_BYTES, memory_cap_bytes() if cap is None else cap)


def column_set_cap() -> int:
    return _env_count("COVERKIT_MAX_COLUMN_SETS", _DEFAULT_COLUMN_SET_CAP)


def _count(n: int) -> str:
    """n in full up to 15 digits, else like 5.30827e+399.  Decimal holds n
    exactly, past the floats and past the digits str() converts."""
    return str(n) if n < 10**15 else f"{Decimal(n):.5e}"


def check_table_bytes(
    n_entries: int, bytes_per_entry: int, what: str, fixed: int = 0, cap: int | None = None
) -> None:
    """Raise ResourceLimitError if a table, and ``fixed`` bytes beside its
    entries, would exceed the memory cap: ``cap``, when a scan has read it
    once for all its tables, else the configured one."""
    need = n_entries * bytes_per_entry + fixed
    if cap is None:
        cap = memory_cap_bytes()
    if need > cap:
        raise ResourceLimitError(
            f"{what} needs {_count(need)} bytes for {_count(n_entries)} entries, "
            f"above the configured cap of {_count(cap)} bytes"
        )


def check_column_sets(k: int, t: int, what: str) -> None:
    """Raise ResourceLimitError if streaming C(k, t) column sets is over cap."""
    total = math.comb(k, t)
    cap = column_set_cap()
    if total > cap:
        raise ResourceLimitError(
            f"{what} would stream {_count(total)} column sets, above the cap of {_count(cap)}"
        )


def check_steps(n_steps: int, what: str) -> None:
    """Raise ResourceLimitError if a loop of n_steps is over the column-set cap."""
    cap = column_set_cap()
    if n_steps > cap:
        raise ResourceLimitError(
            f"{what} would take {_count(n_steps)} steps, above the cap of {_count(cap)}")
