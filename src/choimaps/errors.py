"""Exception types raised by the public API."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian failed the symmetry check."""


class ThetaOutOfRangeError(ValueError):
    """The angle lies outside the range the construction is defined for."""


class UnsupportedThetaError(ValueError):
    """The angle puts the diagonal threshold at an endpoint (1 or 2) where
    the facial analysis does not apply."""


class NotPositiveMapError(ValueError):
    """The map is not positive, so the requested analysis is undefined."""


class UnsupportedCaseError(ValueError):
    """The parameters fall outside the boundary cases with a known
    product-vector kernel."""


class OutOfRangeError(ValueError):
    """A scalar parameter lies outside its admissible interval."""


class NoDetectingChoiceError(RuntimeError):
    """The ansatz's optimal witness parameter does not pair below the
    certified sign with the edge state."""


class InternalConsistencyError(RuntimeError):
    """A self-check of the program failed: two routes to the same quantity
    disagree, or a constructed object lacks a property it must have.  The
    message carries the failing evidence.  This is a defect of the program,
    not of its input."""


class UndecidedError(RuntimeError):
    """A bounded certificate reached its stated work cap before it could
    decide; the message names the cap and the work done."""
