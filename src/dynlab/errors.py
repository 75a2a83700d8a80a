"""Exception types, and the degree cap, shared across the library."""

from __future__ import annotations

import os
import re
from typing import Callable

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


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits with an optional leading minus only."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_ascii_int.__name__ = "int"  # argparse names the type in its refusal


def degree_cap(cap: int | None = None) -> int:
    """The largest degree a construction may build: ``cap`` when given,
    else DYNLAB_DEGREE_CAP, else DEFAULT_DEGREE_CAP.  A negative cap, or an
    environment value that is not ASCII digits, is refused."""
    name = "cap"
    if cap is None:
        name = DEGREE_CAP_ENV
        try:
            cap = _ascii_int(os.environ.get(name, str(DEFAULT_DEGREE_CAP)))
        except ValueError:
            raise DomainError(f"{name} must be an integer") from None
    if cap < 0:
        raise DomainError(f"{name} must be >= 0, got {cap}")
    return cap


def _exact_degree(limit: int, floor: int,
                  degree: Callable[[], int]) -> int | None:
    """degree(), or None when 2**floor, a lower bound of the degree, is at
    least 2**64 * 2**limit.bit_length(): the degree is then past ``limit``
    and is not computed."""
    return degree() if floor < 64 + limit.bit_length() else None


def _refuse_over_cap(cap: int, what: str, floor: int,
                     degree: Callable[[], int],
                     name: str | None = None) -> None:
    """Raise ResourceLimitError when the degree of ``what`` is over cap.

    2**floor is at most the degree, and degree() is the degree itself,
    called only as ``_exact_degree`` calls it.  The refusal names the degree
    as ``name``, else by its value, which is exact up to 2**64 * cap; past
    that it may be 2**floor, a power of two below the degree.
    """
    value = _exact_degree(cap, floor, degree)
    if value is None or value > cap:
        shown = name or (f"2**{floor}" if value is None else value)
        raise ResourceLimitError(
            f"degree {shown} of {what} exceeds the cap {cap}")
