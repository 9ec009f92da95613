"""Exception types raised by the avgbeam library.

Every domain failure maps to a named subclass of AvgBeamError so callers
(and the command line front end) can distinguish bad physics input from
programming errors.  Most classes also derive from ValueError because they
signal invalid argument values.
"""


class AvgBeamError(Exception):
    """Base class for all library-specific errors."""


class EmptyEnsemble(AvgBeamError, ValueError):
    """An operation received an ensemble with no samples."""


class ZeroWeight(AvgBeamError, ValueError):
    """Total ensemble weight is zero, moments are undefined."""


class InvalidCount(AvgBeamError, ValueError):
    """A requested sample count is not a positive integer."""


class OffShell(AvgBeamError, ValueError):
    """A 4-velocity does not lie on the unit hyperboloid."""


class OffShellInitial(OffShell):
    """An integration was started from an off-shell 4-velocity."""


class OutOfLattice(AvgBeamError, ValueError):
    """A field evaluation point lies outside the lattice span."""


class ZeroStrength(AvgBeamError, ValueError):
    """A bending radius was requested for b0 = 0, or a given radius is zero."""


class UnsupportedElement(AvgBeamError, ValueError):
    """The element kind is not handled by the requested operation."""


class ParseError(AvgBeamError, ValueError):
    """A lattice or beam definition line could not be parsed.

    Carries the 1-based line number and a short reason.
    """

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateKey(ParseError):
    """The same key appeared twice in one definition line."""


class NegativeLength(AvgBeamError, ValueError):
    """An element length is not strictly positive."""


class NonFiniteValue(AvgBeamError, ValueError):
    """An element parameter, a sample weight or a moment is NaN or infinite."""


class StepTooLarge(AvgBeamError, ValueError):
    """The integrator step does not resolve the shortest element."""


class MismatchedSampling(AvgBeamError, ValueError):
    """Two series that must share a grid have different sampling."""


class MismatchedGrid(MismatchedSampling):
    """Observable inputs are sampled on different time grids."""


class WronskianDrift(AvgBeamError, ArithmeticError):
    """Principal solutions lost the unit Wronskian beyond tolerance."""


class ResidualTooLarge(AvgBeamError, ArithmeticError):
    """A particular solution failed its finite-difference residual check."""


class OutOfSpan(AvgBeamError, ValueError):
    """An interpolation argument lies outside the tabulated span."""


class DegenerateFit(AvgBeamError, ValueError):
    """A power-law fit was requested on fewer than three points."""
