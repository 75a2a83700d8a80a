"""Exception types, and the degree cap, shared across the library."""

from __future__ import annotations

import os

DEFAULT_DEGREE_CAP = 5000

DEGREE_CAP_ENV = "DYNLAB_DEGREE_CAP"


class DomainError(ValueError):
    """An argument lies outside an operation's domain."""


class ExactDivisionError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder.

    This is frequently not a bug but a mathematical fact: a falsified
    divisibility claim.  When the division ran to completion the offending
    remainder is attached so callers can report or inspect it.
    """

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size or degree cap."""


def degree_cap() -> int:
    """The largest degree a construction may build: DYNLAB_DEGREE_CAP, or
    DEFAULT_DEGREE_CAP when it is unset."""
    value = os.environ.get(DEGREE_CAP_ENV)
    if value is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(value)
    except ValueError:
        raise DomainError(f"{DEGREE_CAP_ENV} must be an integer") from None
    if cap < 0:
        raise DomainError(f"{DEGREE_CAP_ENV} must be >= 0, got {cap}")
    return cap
