"""Exception types shared across the library."""


class EllipticBaileyError(Exception):
    """Base class for all library errors."""


class DomainError(EllipticBaileyError):
    """An argument lies outside the function's domain (e.g. a nome with |q| >= 1)."""


class PoleProximityError(EllipticBaileyError):
    """An evaluation point is too close to the pole lattice of the elliptic gamma
    function for the result to be trustworthy."""


class DegenerateParameterError(EllipticBaileyError):
    """A theta factor appearing in a denominator vanishes within the guard threshold."""


class ConstraintViolationError(EllipticBaileyError):
    """Operator parameters violate the validity constraints of an integral identity."""


class QuadratureConvergenceError(EllipticBaileyError):
    """The adaptive quadrature driver hit the node cap without converging."""


class TruncationLimitError(EllipticBaileyError):
    """The truncation rule needs more than ``MAX_TERMS`` terms of a product or series."""


class BaileyPairError(EllipticBaileyError):
    """An (alpha, beta) input pair does not satisfy the pair relation within tolerance."""
