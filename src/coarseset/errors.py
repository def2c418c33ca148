"""Exception types raised by the coarseset engine, and the integer, number
and seed checks shared by its settings.

Everything derives from CoarsesetError so callers (and the CLI) can treat
"bad input" uniformly; most subclasses also inherit ValueError or OSError
for interoperability with generic handling.
"""

import math
import numbers


def check_int(field: str, value) -> int:
    """`value` if it is an integer (a Python or numpy int, not a bool);
    otherwise TypeError naming `field`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{field} must be an integer, got {value!r}")
    return int(value)


def check_real(field: str, value) -> float:
    """`value` as a float if it is a finite real number (a Python or numpy
    int or float, not a bool); otherwise TypeError or ValueError naming
    `field`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{field} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an int beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return real


# seeds are unsigned 64-bit: the splitmix64 state the Rng expands them into
SEED_LIMIT = 2 ** 64


def check_seed(field: str, seed: int, error: type = ValueError) -> int:
    """`seed` if it lies in [0, 2**64); otherwise `error` naming `field`. A
    larger seed would alias the one 2**64 below it."""
    if seed < 0:
        raise error(f"{field} must be non-negative, got {seed}")
    if seed >= SEED_LIMIT:
        raise error(f"{field} must be below 2**64, got {seed}")
    return seed


class CoarsesetError(Exception):
    """Base class for all engine errors."""


# --- file format / data validation -----------------------------------------

class MalformedHeader(CoarsesetError, ValueError):
    """Bad magic bytes, version, dtype, reserved field, or unparseable file."""


class SizeMismatch(CoarsesetError, ValueError):
    """Payload length disagrees with the declared n*d (or a ragged CSV row)."""


class NonFiniteValue(CoarsesetError, ValueError):
    """NaN or infinity found in embedding data, or produced by training."""


class EmptyMatrix(CoarsesetError, ValueError):
    """Embedding matrix with n=0 or d=0."""


class MalformedLabel(CoarsesetError, ValueError):
    """Label is not a non-negative integer, or exceeds a declared class count."""


class EmptyFile(CoarsesetError, ValueError):
    """Label file contains no entries."""


class IoFailure(CoarsesetError, OSError):
    """Underlying read/write failed."""


# --- metrics ----------------------------------------------------------------

class DimensionMismatch(CoarsesetError, ValueError):
    """Vectors or matrices with incompatible dimensions."""


class ZeroVector(CoarsesetError, ValueError):
    """Cosine distance requested for an all-zero vector."""


# --- selection --------------------------------------------------------------

class BudgetExceedsPool(CoarsesetError, ValueError):
    """Requested more points than remain unselected."""


class DuplicateSeed(CoarsesetError, ValueError):
    """Initial center list contains a repeated index."""


class IndexOutOfRange(CoarsesetError, ValueError):
    """Point index outside [0, n)."""


class NoCenters(CoarsesetError, ValueError):
    """Coverage radius requested before any center exists."""


class BudgetExceedsOrder(CoarsesetError, ValueError):
    """Histogram budget larger than the selection order."""


# --- proxy model ------------------------------------------------------------

class EmptySubset(CoarsesetError, ValueError):
    """Training subset is empty."""


# --- harness ----------------------------------------------------------------

class ScheduleExceedsPool(CoarsesetError, ValueError):
    """A sweep budget exceeds the training pool size."""
