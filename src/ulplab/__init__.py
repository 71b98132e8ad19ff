"""Exact-rational error analysis of iterated floating-point products.

The package emulates precision-p binary arithmetic with an unbounded
exponent, measures the true relative error of repeated multiplication
against exact rationals, compares it with the classical bounds, and can
construct factor sequences that push the error to within a sliver of the
n-1 ulp ceiling.
"""

from .adversary import (
    AdversarySequence,
    SequenceConstructionError,
    SequenceReport,
    build_sequence,
    verify_sequence,
)
from .algorithms import ProductTrace, iterated_product, naive_power, step_directions
from .bounds import (
    BoundSet,
    CheckReport,
    bound_set,
    check_lemma2,
    check_property1,
    check_refined_binary32_bound,
    n_max,
    unit_roundoff,
)
from .exact import ErrorInUlps, relative_error, to_decimal
from .search import SearchReport, exhaustive_max_error, spot_error
from .softfloat import (
    EXPONENT_LIMIT,
    ExponentRangeError,
    FpNumber,
    RoundingMode,
    fp_mul,
    normalized_fraction,
    round_nearest,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarySequence",
    "BoundSet",
    "CheckReport",
    "ErrorInUlps",
    "EXPONENT_LIMIT",
    "ExponentRangeError",
    "FpNumber",
    "ProductTrace",
    "RoundingMode",
    "SearchReport",
    "SequenceConstructionError",
    "SequenceReport",
    "bound_set",
    "build_sequence",
    "check_lemma2",
    "check_property1",
    "check_refined_binary32_bound",
    "exhaustive_max_error",
    "fp_mul",
    "iterated_product",
    "n_max",
    "naive_power",
    "normalized_fraction",
    "relative_error",
    "round_nearest",
    "spot_error",
    "step_directions",
    "to_decimal",
    "unit_roundoff",
    "verify_sequence",
]
