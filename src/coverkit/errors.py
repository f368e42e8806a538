"""Exception types shared across the package."""


class UnsupportedParameterError(ValueError):
    """Parameters are structurally unsupported (e.g. a non-prime-power alphabet
    for a construction that needs a finite field)."""


class ResourceLimitError(RuntimeError):
    """A configured memory or iteration cap would be exceeded."""


class BudgetExceededError(ResourceLimitError):
    """An exhaustive search ran out of its node budget before reaching an
    answer.  Distinct from "no array exists within the row limit".  An
    iteration cap like the others, so it is a ``ResourceLimitError``."""
