"""Exception hierarchy shared by all twistkit modules, and the one check that
an index, bound or cut is an integer."""

import numpy as np


class TwistKitError(Exception):
    """Base class for all errors raised by this package."""


class FieldError(TwistKitError):
    """Invalid field specification (non-prime modulus, unknown kind, ...)."""


class FieldMismatchError(TwistKitError):
    """Operands live over different base fields."""


class DimensionMismatchError(TwistKitError):
    """Operand shapes are incompatible."""


class SingularMatrixError(TwistKitError):
    """A matrix that was required to be invertible is singular."""

    def __init__(self, message: str, rank: int):
        super().__init__(f"{message} (rank {rank})")
        self.rank = rank


class UnverifiedCandidateError(TwistKitError):
    """Operation requires a candidate whose verified flag is set."""


class MorphismError(TwistKitError):
    """The given coefficient matrix does not define an algebra morphism."""


class BlockFormError(TwistKitError):
    """Candidate lacks the required triangular block form."""


class SearchSpaceTooLargeError(TwistKitError):
    """Enumeration request exceeds the hard candidate-count guard."""


class SchemaError(TwistKitError):
    """Malformed JSON input."""


def _require_int(value, what: str):
    """``value``, refused with ``TypeError`` unless it is an integer: floats,
    and ``bool``, which is one."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value
