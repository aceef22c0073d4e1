"""Exception types raised across the package."""


class QpeError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QpeError):
    """Operands have incompatible shapes or declared factor dimensions."""


class NonFiniteInput(QpeError):
    """A matrix has a NaN or infinite entry."""


class NonHermitianInput(QpeError):
    """A matrix expected to be Hermitian deviates beyond tolerance."""


class NegativeEigenvalue(QpeError):
    """A spectral operation needed a PSD input and did not get one."""


class InvalidState(QpeError):
    """Density matrix or probability vector fails its defining invariants."""


class OverflowingInput(InvalidState):
    """A matrix has finite entries too large to compute with: an entry's
    modulus or the Hermitian fold (A + A^H) / 2 overflows."""


class NonpositiveScalar(QpeError):
    """A renormalization functional returned a nonpositive value."""


class ZeroEvidence(QpeError):
    """Classical update with evidence orthogonal to the prior."""


class ZeroProbability(QpeError):
    """Quantum update where tr(E rho) vanishes."""


class NotBelow(QpeError):
    """Effect reconstruction requested for a pair not related by the order."""


class SupportViolation(QpeError):
    """Target places weight outside the support of the prior."""


class PreconditionViolated(QpeError):
    """A monotonicity check was called with an inadmissible configuration."""


class DegenerateDraw(QpeError):
    """A random construction landed on a measure-zero degenerate instance."""


class BadAlpha(QpeError):
    """Renyi order parameter outside the admissible range."""


class BadParameter(QpeError):
    """Scalar parameter outside its admissible range."""


class NotAChain(QpeError):
    """Sequence handed to a supremum routine is not order-increasing."""


class NotConverged(QpeError):
    """Chain too short for the requested extrapolation tolerance."""


class NotCPTP(QpeError):
    """Channel data fails complete positivity or trace preservation."""


class InputFormatError(QpeError):
    """JSON payload does not match the documented schema."""
