"""Exception types shared across the library."""

from __future__ import annotations


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
