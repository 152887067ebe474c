"""Exact witnesses for images of multilinear polynomials on matrices.

Given a multilinear polynomial f in noncommuting variables and a
trace-zero rational matrix a, this package constructs a size s and an
explicit tuple of s by s rational matrices on which f evaluates to a
embedded in the top-left corner.  All arithmetic is exact.
"""

from .construct import (
    base_case_witness,
    construct_witness,
    hollow_similarity,
    lift_witness,
    reduce_step,
    size_bound,
    witness_for_multilinear,
)
from .errors import (
    ArityError,
    CommutativityError,
    DimensionError,
    EmptyPolynomialError,
    InputDecodeError,
    InternalInvariantError,
    MultilinearityError,
    PolynomialSyntaxError,
    PolywitError,
    PreconditionError,
    RationalLiteralError,
    SingularMatrixError,
)
from .harness import RunReport, run_witness, selftest, verify
from .matrices import (
    Matrix,
    commutator,
    embed,
    inverse,
    iterated_commutator,
)
from .parsing import parse_poly, poly_to_str
from .polynomials import (
    AdmissiblePoly,
    MarkedPoly,
    MultilinearPoly,
    evaluate,
    from_multilinear,
)
from .randgen import random_multilinear, random_trace_zero
from .witness import WitnessAssignment

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "AdmissiblePoly",
    "CommutativityError",
    "DimensionError",
    "EmptyPolynomialError",
    "InputDecodeError",
    "InternalInvariantError",
    "MarkedPoly",
    "Matrix",
    "MultilinearPoly",
    "MultilinearityError",
    "PolynomialSyntaxError",
    "PolywitError",
    "PreconditionError",
    "RationalLiteralError",
    "RunReport",
    "SingularMatrixError",
    "WitnessAssignment",
    "base_case_witness",
    "commutator",
    "construct_witness",
    "embed",
    "evaluate",
    "from_multilinear",
    "hollow_similarity",
    "inverse",
    "iterated_commutator",
    "lift_witness",
    "parse_poly",
    "poly_to_str",
    "random_multilinear",
    "random_trace_zero",
    "reduce_step",
    "run_witness",
    "selftest",
    "size_bound",
    "verify",
    "witness_for_multilinear",
]
