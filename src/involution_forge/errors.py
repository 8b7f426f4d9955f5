"""Exception hierarchy.

Every error raised on purpose by this package derives from ForgeError, so
callers (and the command line driver) can distinguish bad input from bugs.
"""


class ForgeError(Exception):
    """Base class for all package errors."""


# --- expression / arithmetic layer ---------------------------------------

class ParseError(ForgeError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ForgeError):
    """Identifier not present in the variable table."""


class NegativeExponent(ParseError):
    """Exponents must be unsigned integers."""


class TableMismatch(ForgeError):
    """Operands built over different variable tables."""


class DivisionByZero(ForgeError):
    """Zero denominator in exact arithmetic."""


class PoleAtPoint(ForgeError):
    """Evaluation point lies on the vanishing locus of a denominator."""


class ForbiddenVariable(ForgeError):
    """Differential operator applied along a non-geometric variable."""


class SamplingExhausted(ForgeError):
    """No admissible rational point found within the retry budget."""


# --- exterior algebra ------------------------------------------------------

class DegreeError(ForgeError):
    """Degrees incompatible with the requested operation."""


class UnsupportedDegrees(ForgeError):
    """Schouten bracket requested for an unimplemented degree pair."""


# --- anchors ---------------------------------------------------------------

class Degenerate(ForgeError):
    """Bivector or form fails the required nondegeneracy."""


class OddDimension(ForgeError):
    """Symplectic anchor requested on an odd-dimensional table."""


class DegenerateVolume(ForgeError):
    """Cosymplectic data with vanishing volume form."""


class NotSemiBasic(ForgeError):
    """Form has a component along the Reeb direction."""


class NotReducible(ForgeError):
    """Lifted bivector depends on the appended coordinate."""


# --- pencils ---------------------------------------------------------------

class DegenerateLeading(ForgeError):
    """Leading coefficient of the pencil determinant vanishes."""


class DegenerateTrailing(ForgeError):
    """Trailing coefficient of the pencil determinant vanishes."""


class RankDrop(ForgeError):
    """Distribution generators are dependent where independence is required."""


class Inconsistent(ForgeError):
    """Linear system for the ansatz coefficients has no solution."""


class RankTooSmall(ForgeError):
    """Closed bracket formula needs corank-r families with r >= 2."""


class NonExactDivision(ForgeError):
    """Division that the theory promises to be exact failed to be."""


class ConditionFailed(ForgeError):
    """A precondition check (sigma conditions, recursion) did not pass."""


class DimensionMismatch(ForgeError):
    """Operand dimensions inconsistent with the ambient table."""


# --- fixtures / cli --------------------------------------------------------

class UnknownFixture(ForgeError):
    """No bundled fixture with the requested name."""


class SpecError(ForgeError):
    """Spec file fails validation; carries a path."""

    def __init__(self, message, path=None):
        if path:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
