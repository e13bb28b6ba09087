"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes, so new error types should subclass one
of the three concrete categories below.
"""


class HKError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HKError):
    """Bad user input: parse errors, violated preconditions, mixed rings."""


class ResourceLimitError(HKError):
    """The S-pair cap or the bound on the term pairs of one polynomial
    product was exceeded (too many variables is an InputError)."""


class CertificationError(HKError):
    """A computed value could not be certified: a difference sequence that
    did not stabilize, or a ratio that did not divide."""


class AssociativityRatioError(CertificationError):
    """The localized-colength ratio did not divide exactly.

    Signals a violated precondition (typically: the declared prime is not
    actually prime, or not of the required dimension).
    """
