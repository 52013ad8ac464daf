"""Exception types shared across the package, and check_finite, the one place a non-finite array raises."""

import math

import numpy as np


class ParameterError(ValueError):
    """An argument is outside its documented domain (bad epsilon, fraction, ...)."""


class ContractError(ValueError):
    """A structural precondition was violated (shape mismatch, non-scalar objective, ...)."""


class DataError(ValueError):
    """A dataset violates its invariants (bad labels, empty dataset, ...)."""


class NonFiniteError(FloatingPointError):
    """A public operation produced NaN or Inf."""


class FormatError(ValueError):
    """A serialized file is malformed. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def check_finite(*arrays, message: str = "tensor contains NaN or Inf") -> None:
    """Raise NonFiniteError(message) if any of `arrays`, checked in order, holds a NaN or Inf.

    A float, np.float64 included (a subclass), is checked as a scalar by math.isfinite; anything else as an array."""
    for a in arrays:
        if not (math.isfinite(a) if isinstance(a, float) else np.isfinite(a).all()):
            raise NonFiniteError(message)
