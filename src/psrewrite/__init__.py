"""Exact rewriting on truncated multivariate formal power series.

The engine divides series by a finite rule set with respect to the
opposite of the deglex monomial order (fixed, admissible and
degree-compatible), tracking big-O precision through every operation:
normal forms, cofactor certificates, ideal membership and congruence
verdicts, standard-basis falsification and confluence probes.  A companion module decides
normal-form and confluence properties of finite abstract rewriting
systems exhaustively.
"""

from .ars import (
    BACKWARD,
    FORWARD,
    Conversion,
    FiniteARS,
    SystemProperties,
    check_properties,
    eliminate_valleys,
    normal_forms,
    validate_conversion,
)
from .errors import (
    DimensionMismatchError,
    InvalidConversionError,
    InvalidTraceError,
    InvariantViolationError,
    NotReducibleError,
    ParseError,
    PreconditionFailedError,
    PrecisionUnattainableError,
    RewritingError,
    ZeroOrUnknownLeadingError,
)
from .monomials import Monomial
from .rewrite import (
    AttractivityReport,
    ConfluenceProbeReport,
    Member,
    MembershipVerdict,
    NotMember,
    ReductionStep,
    ReductionTrace,
    RewriteRule,
    RuleSet,
    StandardBasisCounterexample,
    UnknownAtPrecision,
    attractivity_check,
    cofactors,
    confluence_probe,
    congruence_test,
    falsify_standard_basis,
    multiple_to_zero_chain,
    normalize,
    normalize_random,
    reduce_step,
    reducible_monomials,
    translate,
)
from .series import TruncatedSeries, delta
from .textio import (
    format_conversion,
    format_series,
    format_trace,
    parse_ars_system,
    parse_conversion,
    parse_rules,
    parse_series,
)

__version__ = "0.1.0"
