"""Exception types shared across the package.

The CLI maps these onto its exit-code contract (parse errors -> 1,
infeasible inputs -> 2, unmet premises -> 3).
"""


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
