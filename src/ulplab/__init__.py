"""Exact-rational error analysis of iterated floating-point products.

The package emulates precision-p binary arithmetic with an unbounded
exponent, measures the true relative error of repeated multiplication
against exact rationals, compares it with the classical bounds, and can
construct factor sequences that push the error to within a sliver of the
n-1 ulp ceiling.
"""

from . import adversary, algorithms, bounds, exact, search, softfloat
from .adversary import *  # noqa: F403
from .algorithms import *  # noqa: F403
from .bounds import *  # noqa: F403
from .exact import *  # noqa: F403
from .search import *  # noqa: F403
from .softfloat import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *adversary.__all__,
    *algorithms.__all__,
    *bounds.__all__,
    *exact.__all__,
    *search.__all__,
    *softfloat.__all__,
]
