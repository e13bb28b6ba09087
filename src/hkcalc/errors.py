"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes, so new error types should subclass one
of the three concrete categories below.
"""


class HKError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HKError):
    """Bad user input: parse errors, violated preconditions, mixed rings."""


class ResourceLimitError(HKError):
    """The S-pair cap was exceeded (too many variables is an InputError)."""


class CertificationError(HKError):
    """A stabilized value could not be certified within its configured cap."""


class AssociativityRatioError(CertificationError):
    """The localized-colength ratio did not divide exactly.

    Signals a violated precondition (typically: the declared prime is not
    actually prime, or not of the required dimension).
    """
