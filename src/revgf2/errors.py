"""Exception types shared across the package."""


class RevGF2Error(Exception):
    """Base class for all package errors."""


class ZeroPolynomial(RevGF2Error):
    """The zero polynomial has no degree."""


class DivisionByZero(RevGF2Error):
    """Polynomial or field division by zero."""


class BothZero(RevGF2Error):
    """gcd(0, 0) is undefined."""


class ZeroElement(RevGF2Error):
    """The zero field element has no inverse."""


class NotIrreducible(RevGF2Error):
    """A field modulus must be irreducible."""


class LayoutMismatch(RevGF2Error):
    """Circuit and state (or two circuits) disagree on registers."""


class WidthTooLarge(RevGF2Error):
    """Exhaustive enumeration requested beyond the supported width."""


class PointNotOnCurve(RevGF2Error):
    """A point does not satisfy its curve equation."""


class NonGenericInput(RevGF2Error):
    """Group-add input falls outside the generic case the circuits handle."""


class PackOverflow(RevGF2Error):
    """Degrees too large for shared-register packing."""


class CycleBudgetExceeded(RevGF2Error):
    """An input did not terminate within the synchronized cycle budget."""


class InvariantViolation(RevGF2Error):
    """A runtime consistency check failed: an algebraic invariant, a scratch
    register left dirty, or a loop past its termination bound."""


class ScopeTooLarge(RevGF2Error):
    """Verification scope exceeds the exhaustive enumeration limit."""


class UnknownBlock(RevGF2Error):
    """No circuit builder registered under that name."""


class BadParameter(RevGF2Error):
    """A CLI or builder parameter is out of range or malformed."""
