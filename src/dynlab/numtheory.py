"""Elementary multiplicative number theory on machine-scale integers.

Everything here is exact and deterministic.  Inputs are capped at 128 bits,
which is far beyond the sizes this library meets in practice (the largest
interesting constant is 12 decimal digits) but keeps the factoring strategy
honest: trial division by the primes below 1000, then ``is_prime`` and
Brent's variant of Pollard rho with a fixed iteration schedule on the
cofactor.  A cofactor below 10**6 is then prime, and ``is_prime`` is a proof
for every larger one below 3.3 * 10**24 (about 2**81), which covers the
cofactors below 10**12 that trial division to 10**6 used to prove.  It runs
the smallest base set proven for the size of n (Jaeschke; Jiang & Deng;
Sorenson & Webster), so a prime near 2**29 costs four modular powers.
Above 3.3 * 10**24, up to the cap, ``is_prime`` is a strong-pseudoprime test
with no known counterexample, not a proof.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from typing import NamedTuple

from .errors import DomainError

INPUT_BIT_CAP = 128

# Bound measured at 256 / 1000 / 65536 (CPython 3.11, 2 vCPU): factorize of
# 999983 * 999979 took 0.32 / 0.33 / 0.86 ms, of 2**127 - 1 2.0 / 2.2 / 2.6 ms,
# and 0.68 / 0.63 / 0.67 s over the grid benchmark (2.2 s at 10**6).
_TRIAL_BOUND = 1000

# Strong-pseudoprime bases.  Below psi_j, the least strong pseudoprime to the
# first j primes, those j bases are a proof: psi_13 is _MR_PROVEN_BELOW and
# the smaller psi_j are keyed by j.  From psi_13 on no witness set is proven;
# the extra primes only make a composite passing all of them unlikely (none
# is known), they do not make the test a proof.
_MR_PROVEN_BELOW = 3317044064679887385961981
_MR_PREFIX_PROVEN_BELOW = {4: 3215031751, 7: 341550071728321,
                           9: 3825123056546413051,
                           12: 318665857834031151167461}
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
             43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)


def _check_positive(n: int, what: str = "argument") -> None:
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"{what} must be a positive integer, got {n!r}")
    if n.bit_length() > INPUT_BIT_CAP:
        raise DomainError(f"{what} exceeds the {INPUT_BIT_CAP}-bit cap")


class _FactorizationFields(NamedTuple):
    value: int
    factors: tuple[tuple[int, int], ...]


class Factorization(_FactorizationFields):
    """A positive integer together with its canonical prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; their product equals ``value``.
    """

    __slots__ = ()

    def __new__(cls, value: int, factors: tuple[tuple[int, int], ...]):
        prod = 1
        prev = 1
        for p, k in factors:
            if k < 1:
                raise DomainError(f"exponent {k} < 1 in factorization")
            if p <= prev:
                raise DomainError("primes must be strictly increasing")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
            prev = p
            prod *= p**k
        if prod != value:
            raise DomainError(
                f"factor product {prod} does not equal value {value}")
        return super().__new__(cls, value, factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases: a proof of primality for n below
    3.3 * 10**24 (about 2**81), a strong probable-prime test above it.

    The bases are the first j primes for the least j in 4, 7, 9, 12, 13
    with n below psi_j: psi_4 = 3215031751 and psi_7 = 341550071728321
    (Jaeschke 1993), psi_9 = 3825123056546413051 (Jiang & Deng 2014),
    psi_12 and psi_13 (Sorenson & Webster 2015).  All 26 run from psi_13 on.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES if n >= _MR_PROVEN_BELOW else _MR_BASES[:13]
    for count, a in enumerate(bases, 1):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(r - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < _MR_PREFIX_PROVEN_BELOW.get(count, 0):
            break
    return True


def _primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    return tuple(i for i, v in enumerate(sieve) if v)


_SMALL_PRIMES = _primes_below(_TRIAL_BOUND)


def _brent_rho(n: int) -> int:
    """Find a nontrivial factor of an odd composite n with no small factors.

    Brent's cycle-finding variant of Pollard rho.  The constant schedule
    (c = 1, 2, 3, ...) makes the search deterministic.
    """
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to factor {n}")  # pragma: no cover


@lru_cache(maxsize=65536)
def factorize(n: int) -> Factorization:
    """Canonical prime factorization of a positive integer."""
    _check_positive(n, "factorize() argument")
    remaining = n
    counts: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > remaining:
            break
        while remaining % p == 0:
            counts[p] = counts.get(p, 0) + 1
            remaining //= p
    stack = [remaining] if remaining > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        g = _brent_rho(m)
        stack.extend((g, m // g))
    factors = tuple(sorted(counts.items()))
    return Factorization(value=n, factors=factors)


def mobius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)**(number of primes)."""
    _check_positive(n, "mobius() argument")
    fact = factorize(n)
    if any(k > 1 for _, k in fact.factors):
        return 0
    return -1 if len(fact.factors) % 2 else 1


def core_and_cocore(d: int) -> tuple[int, int]:
    """Largest squarefree factor of d and the complementary factor d/core."""
    _check_positive(d, "core_and_cocore() argument")
    core = reduce(lambda acc, p: acc * p, factorize(d).primes, 1)
    return core, d // core


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    _check_positive(n, "divisors() argument")
    divs = [1]
    for p, k in factorize(n).factors:
        divs = [d * p**i for d in divs for i in range(k + 1)]
    return sorted(divs)


@lru_cache(maxsize=65536)
def squarefree_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """Pairs (e, mobius(e)) over the squarefree divisors e of n, ascending.

    Cached, so the result is a tuple that callers cannot mutate.
    """
    _check_positive(n, "squarefree_divisors() argument")
    pairs = [(1, 1)]
    for p in factorize(n).primes:
        pairs += [(e * p, -mu) for e, mu in pairs]
    return tuple(sorted(pairs))


def _element_of_order(k: int, q: int) -> int:
    """The first g**((q - 1) / k), for g = 2, 3, ..., of exact order k mod
    the prime q (k divides q - 1).

    For k = q - 1 that is g itself, so the result is the least primitive
    root mod an odd prime q.
    """
    primes = factorize(k).primes
    for g in itertools.count(2):
        w = pow(g, (q - 1) // k, q)
        if w and all(pow(w, k // r, q) != 1 for r in primes):
            return w


def euler_phi(n: int) -> int:
    """Order of the multiplicative group of integers modulo n."""
    _check_positive(n, "euler_phi() argument")
    value = n
    for p in factorize(n).primes:
        value = value // p * (p - 1)
    return value
