"""Exception types shared across the package, and the three rules for
values from outside: `whole_number` for sizes, counts and seeds,
`real_number` for rates, fractions and latencies, and `float_array` for
features, logits and angles. Each raises ConfigurationError naming the
value."""

import math
import operator

import numpy as np


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


def real_number(name: str, value, above: bool = False) -> None:
    """Raise ConfigurationError naming `name` unless `value` is finite and
    >= 0 (> 0 with `above`), and an int or float (not a bool or any other
    subclass) or a numpy integer or floating scalar."""
    real = type(value) is float or type(value) is int or isinstance(value, (np.floating, np.integer))
    try:
        if real and math.isfinite(value) and (value > 0 if above else value >= 0):
            return
    except OverflowError:  # an int past the float range
        pass
    bound = ">" if above else ">="
    raise ConfigurationError(f"{name} must be a finite real number {bound} 0, got {value!r}")


def float_array(name: str, value) -> np.ndarray:
    """`value` as a float64 array, with no copy of one that is already; a
    ragged list or anything numpy cannot read as numbers raises
    ConfigurationError naming `name`."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(f"{name} must be numbers: {err}") from None
