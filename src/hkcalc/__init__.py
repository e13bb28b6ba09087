"""Exact computational kernel for Hilbert-Kunz functions and multiplicities
of quotients of polynomial rings over prime fields, with executable checks
for the associated colength inequalities.
"""

from .checks import (
    CheckReport,
    check_flatness,
    check_kunz,
    check_lemma21,
    check_rescaling,
    check_thm23,
    check_thm33,
)
from .errors import (
    AssociativityRatioError,
    CertificationError,
    HKError,
    InputError,
    ResourceLimitError,
)
from .groebner import GroebnerBasis, groebner_basis, normal_form
from .hk import EHKEstimate, HKReport, HKRow, ehk_estimate, hk_function, localized_frobenius_colength
from .ideals import Ideal, maximal_ideal
from .lengths import (
    INFINITE,
    MultiplicityResult,
    colength,
    count_standard_monomials,
    dimension,
    hilbert_samuel,
    is_finite,
    local_colength,
    quotient_length,
)
from .orders import MonomialOrder
from .parser import SessionInput, parse_polynomial, parse_session
from .poly import Polynomial
from .ring import PolynomialRing, PresentedRing

__version__ = "0.1.0"
