"""Exception types raised by the library.

Everything derives from IntensionError so callers can catch the whole
family with one except clause; the CLI maps them to exit code 2. A
zero-probability antecedent is not an error: the Shannon report carries
an undefined conditional, and the CLI exits 3.
"""


class IntensionError(Exception):
    """Base class for all library errors."""


class InvalidProperty(IntensionError):
    """Property identifier is empty or contains whitespace."""


class InvalidDegree(IntensionError):
    """A degree or marginal probability lies outside [0, 1]."""


class InvalidConcept(IntensionError):
    """Concept violates its invariants (empty or duplicate properties)."""


class UniverseTooLarge(IntensionError):
    """More variables than the exact-enumeration cap allows."""


class InvalidOverlap(IntensionError):
    """Shared-property count exceeds the smaller concept."""


class UnknownProperty(IntensionError):
    """A referenced property is not part of the world's universe."""


class EmptyTable(IntensionError):
    """Instance table carries no positive weight."""


class SubsetTooLarge(IntensionError):
    """Variable subset exceeds the inclusion-exclusion lattice cap."""


class ZeroOverlap(IntensionError):
    """Closed-form mutual information undefined for zero shared properties."""


class EmptyAntecedent(IntensionError):
    """Extensional conditional requested with an empty antecedent set."""


class CompressorFailure(IntensionError):
    """Underlying compressor raised or returned a bad length."""


class ParseError(IntensionError):
    """Malformed concept or world file."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line
        self.message = message
