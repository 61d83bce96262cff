"""Exception types shared across the package."""


class BlaschkePickError(Exception):
    """Base class for every error this package raises deliberately."""


class ZeroOnOrOutsideDisk(BlaschkePickError):
    """A prescribed zero is not strictly inside the unit disk."""


class ConstantNotUnimodular(BlaschkePickError):
    """The multiplicative constant does not have modulus one."""


class PoleEvaluation(BlaschkePickError):
    """Evaluation was requested too close to a pole of the product."""


class RootFindingFailure(BlaschkePickError):
    """A polished level-set root failed its residual check."""


class SingularResolvent(BlaschkePickError):
    """I - z A is numerically singular at the requested point."""


class DegenerateDenominator(BlaschkePickError):
    """The kernel denominator 1 - z0*u0 is numerically zero at the centers."""


class CoincidentPoints(BlaschkePickError):
    """Two evaluation points coincide within the distinctness tolerance."""


class InsufficientJet(BlaschkePickError):
    """A jet is too short for the requested derivative orders."""


class RankMismatch(BlaschkePickError):
    """Matrix evidence contradicts the combinatorial uniqueness criterion."""


class Inconclusive(BlaschkePickError):
    """A build of the package's own from valid data failed its check: the
    structured matrix or the radial mean overflowed, a matrix failed its
    Hermitian test, so its spectrum cannot back a verdict, or a rebuilt
    supplemented corner missed its completed value.  `value` is the measured
    defect or residual and `limit` the bound it exceeds; an overflow has an
    infinite `value` and the largest float as its `limit`."""

    def __init__(self, message: str, value: float, limit: float):
        super().__init__(message)
        self.value = value
        self.limit = limit


class ConvergenceFailure(BlaschkePickError):
    """The iterative eigenvalue computation of eigvalsh did not converge."""
