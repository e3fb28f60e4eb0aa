"""Exception types shared across the toolkit."""


class QREError(Exception):
    """Base class for all toolkit errors."""


class InvalidMatrix(QREError):
    """Input is not a (square, Hermitian) matrix within tolerance."""


class NotPSD(QREError):
    """Matrix has an eigenvalue below the negative PSD tolerance."""


class ShapeMismatch(QREError):
    """Operator dimensions are inconsistent with the declared tensor factorization."""


class InvalidRank(QREError):
    """Requested rank is outside [1, dim], or an operand is below the rank a check assumes."""


class InvalidParameter(QREError):
    """Scalar parameter outside its admissible range."""


class IrregularFunction(QREError):
    """Operation requires a Loewner measure the function does not carry."""


class DivergentEntropy(QREError):
    """Entropy value is +infinity under the generalized-inverse conventions.

    Carries the offending spectral index pair when raised from the
    spectral formula.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class SingularArgument(DivergentEntropy):
    """f(0+) diverges and a zero mode of the modular operator carries weight.

    The divergence the spectral formula reports, met by the f(Delta) action.
    """
