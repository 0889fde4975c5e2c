"""Exception types shared across the package, and the whole-number check
for sizes, counts and seeds."""

import operator


class ConfigurationError(ValueError):
    """Invalid configuration: sizes, shapes, or limits violated."""


class DataFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""


class SyncError(RuntimeError):
    """Worker replicas or gradient shapes diverged during a reduction."""


class TrainingError(RuntimeError):
    """Training aborted: non-finite gradients or a failed worker."""


def whole_number(name: str, value, low: int, high: float = float("inf")) -> int:
    """`value` as an int when operator.index takes it (an int or numpy
    integer, not a float) and it is not a bool, which operator.index reads
    as 0 or 1, and it lies in low..high; otherwise raise ConfigurationError
    naming `name`."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not low <= number <= high:
        raise ConfigurationError(f"{name} must be a whole number in {low}..{high}, got {value!r}")
    return number
