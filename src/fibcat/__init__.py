"""Exact and high-precision verification of Catalan/Fibonacci series identities.

The package splits into: exactnum (integers, rationals, Q(sqrt5)), arbreal
(arbitrary-precision reals, constants, tanh-sinh quadrature), expr
(expression trees and evaluators), seriesdsl (identity language and the
shipped registry), engine (summation and verification) and cli.
"""

from .engine import (
    SumResult,
    VerificationReport,
    VerificationResult,
    VerifyConfig,
    algebraic_check,
    evaluate_sides,
    finite_check,
    radical_check,
    sum_series,
    verify_all,
    verify_identity,
)
from .errors import (
    ConvergenceError,
    DomainError,
    FibcatError,
    ParseError,
    TailBoundViolation,
    UnsupportedRecordError,
)
from .exactnum import ALPHA, BETA, SQRT5, QuadRat, binomial, catalan, fibonacci, lucas, qr_pow
from .expr import eval_exact_qsqrt5, eval_exact_rational, eval_numeric, free_vars, substitute
from .seriesdsl import (
    AlgebraicTail,
    FiniteSpec,
    GeometricTail,
    IdentityRecord,
    SeriesSpec,
    builtin_registry,
    parse_expression,
    parse_registry,
    serialize_record,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "AlgebraicTail",
    "BETA",
    "ConvergenceError",
    "DomainError",
    "FibcatError",
    "FiniteSpec",
    "GeometricTail",
    "IdentityRecord",
    "ParseError",
    "QuadRat",
    "SQRT5",
    "SeriesSpec",
    "SumResult",
    "TailBoundViolation",
    "UnsupportedRecordError",
    "VerificationReport",
    "VerificationResult",
    "VerifyConfig",
    "algebraic_check",
    "binomial",
    "builtin_registry",
    "catalan",
    "eval_exact_qsqrt5",
    "eval_exact_rational",
    "eval_numeric",
    "evaluate_sides",
    "fibonacci",
    "finite_check",
    "free_vars",
    "lucas",
    "parse_expression",
    "parse_registry",
    "qr_pow",
    "radical_check",
    "serialize_record",
    "substitute",
    "sum_series",
    "verify_all",
    "verify_identity",
]
