"""Exception types shared across the package, the one seed check, the one
count check and the one check of a number in (0, 1).

The CLI maps these onto its exit-code contract (parse errors -> 1,
infeasible inputs -> 2, unmet premises -> 3).
"""

import numbers

import numpy as np


class PolyspinError(Exception):
    """Base class for all package-specific errors."""


class AsymmetricMatrixError(PolyspinError):
    """Interaction matrix is not symmetric."""


class AllZeroMatrixError(PolyspinError):
    """Interaction matrix is identically zero; the partition function is 0."""


class ConstantMatrixError(PolyspinError):
    """All matrix entries are equal; Z has the closed form q^|V| * c^|E|."""


class MatrixFormatError(PolyspinError):
    """Malformed matrix text; message carries the offending line number."""


class GraphFormatError(PolyspinError):
    """Malformed graph text; message carries the offending line number."""


class InfeasibleError(PolyspinError):
    """Requested object cannot exist (e.g. n < degree)."""


class ResourceLimitError(PolyspinError):
    """A configured enumeration/computation budget was exceeded."""


class InvalidRangeError(PolyspinError):
    """A numeric argument fell outside its admissible range."""


class InvalidAccuracyError(PolyspinError):
    """A relative-accuracy target must lie in (0, 1)."""


class PremisesUnmetError(PolyspinError):
    """Strict mode refused to run: the degree/gap premises do not hold."""


class ZeroNormalizerError(PolyspinError):
    """A boundary normalizer F_u was 0, signalling an inconsistent input."""


def check_seed(seed) -> None:
    """Refuse a seed that is not an integer in [0, 2^64) with InvalidRangeError.

    Every seeded routine checks here, an estimator entry point even when
    it draws nothing, so no two accepted seeds alias one stream (as -1 and
    2^64 - 1 would mod 2^64).
    """
    # int and np.integer, not the slower numbers.Integral: every draw's stream checks
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 1 << 64:
        raise InvalidRangeError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def check_count(name: str, value, low: int) -> None:
    """Refuse a bool, a non-integral count or one below low with InvalidRangeError."""
    # int and np.integer, not the slower numbers.Integral: run checks every call
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidRangeError(f"{name} must be an integer >= {low}, got {value!r}")


def check_fraction(name: str, value, error=InvalidRangeError) -> None:
    """Refuse anything but a real number in (0, 1), a string or nan say, with `error`."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
        raise error(f"{name} must lie in (0,1), got {value!r}")
