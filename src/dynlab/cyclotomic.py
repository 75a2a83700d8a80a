"""Cyclotomic polynomials and exhaustive cyclotomic-factor scans.

The scan peels x and every cyclotomic factor (with multiplicity) off a
rational polynomial and certifies that the remaining cofactor has no
further such factors.

Candidate indices k are bounded through the totient: a cyclotomic factor
Phi_k of a degree-D polynomial has phi(k) <= D.  A k with r distinct prime
factors is at least the product of the first r primes P_1 ... P_r, and
k/phi(k) <= prod_{i<=r} P_i/(P_i - 1) =: R(r), so k <= D * R(r).  Starting
from the crude cap 2*D**2 (phi(k) >= sqrt(k/2)), the cap K is replaced by
floor(D * R(r(K))), r(K) the largest r whose primorial is <= K, until it
stops shrinking; every step is exact integer and Fraction arithmetic.

Before an exact division by Phi_k, each candidate passes a modular filter:
with P an integer multiple of the cofactor, q a prime with q = 1 (mod k)
and w of exact order k modulo q, Phi_k(w) = 0 (mod q).  Phi_k is monic with
integer coefficients, so Phi_k | P in Q[x] gives P = Phi_k * Q with Q in
Z[x], hence P(w) = 0 (mod q).  A nonzero P(w) mod q therefore proves that
Phi_k does not divide the cofactor; a zero value only sends k on to the
exact division, so the filter never changes an answer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .numtheory import core_and_cocore, factorize, is_prime
from .polycore import QQ, Polynomial, _clear_denominators

_totient_sieve: list[int] = [0, 1]


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Polynomial:
    """The monic minimal polynomial over Q of a primitive nth root of unity.

    Built from Phi_n(x) = Phi_rad(n)(x**(n/rad n)) and, for squarefree n
    with largest prime p = n/m, Phi_n(x) = Phi_m(x**p) / Phi_m(x) (one exact
    division), and memoized.
    """
    if n < 1:
        raise DomainError("cyclotomic index must be >= 1")
    rad, cocore = core_and_cocore(n)
    if n == 1:
        return Polynomial(QQ, (-1, 1))
    if cocore > 1:
        return _at_power(cyclotomic_poly(rad), cocore)
    p = factorize(n).primes[-1]
    base = cyclotomic_poly(n // p)
    return _at_power(base, p).div_exact(base)


def _at_power(poly: Polynomial, e: int) -> Polynomial:
    """poly(x**e)."""
    coeffs = [QQ.zero] * (poly.degree * e + 1)
    coeffs[::e] = poly.coeffs
    return Polynomial(QQ, coeffs)


def xn1_divides(p: Polynomial, n: int) -> bool:
    """Does x**n - 1 divide p?  Exponent folding, no long division."""
    if n < 1:
        raise DomainError("xn1_divides needs n >= 1")
    if p.ring is not QQ:
        raise DomainError("xn1_divides expects a rational polynomial")
    folded = [QQ.zero] * n
    for k, c in enumerate(p.coeffs):
        folded[k % n] += c
    return all(not c for c in folded)


def _totients_up_to(limit: int) -> list[int]:
    """Grow-and-cache totient sieve; returns the sieve array (index = k).

    Callers that race may each build a sieve; any of them is a valid one.
    """
    global _totient_sieve
    if len(_totient_sieve) > limit:
        return _totient_sieve
    size = max(limit + 1, 2 * len(_totient_sieve))
    sieve = list(range(size))
    for i in range(2, size):
        if sieve[i] == i:  # i prime
            for j in range(i, size, i):
                sieve[j] -= sieve[j] // i
    _totient_sieve = sieve
    return sieve


def _candidate_cap(max_phi: int) -> int:
    """An integer K with phi(k) <= max_phi only for k <= K (module docstring)."""
    cap = 2 * max_phi * max_phi
    while True:
        ratio, primorial = Fraction(1), 1
        for p in filter(is_prime, itertools.count(2)):
            if primorial * p > cap:
                break
            primorial *= p
            ratio *= Fraction(p, p - 1)
        shrunk = max_phi * ratio.numerator // ratio.denominator
        if shrunk >= cap:
            return cap
        cap = shrunk


def cyclotomic_candidates(max_phi: int) -> list[int]:
    """All k with phi(k) <= max_phi, ascending.

    They lie below the primorial cap of the module docstring (5293 for
    max_phi = 1100, against 2*max_phi**2 = 2420000), and the totients come
    from one sieve up to that cap.
    """
    if max_phi < 1:
        return []
    cap = _candidate_cap(max_phi)
    sieve = _totients_up_to(cap)
    return [k for k in range(1, cap + 1) if sieve[k] <= max_phi]


@lru_cache(maxsize=None)
def _root_of_unity_mod_prime(k: int) -> tuple[int, int]:
    """The least prime q = 1 (mod k) above 2**29 and a w of exact order k
    mod q.

    q lies far below 3.3 * 10**24, where ``is_prime`` is a proof.  Near 2**29
    q and w fit one CPython digit: for the 2134 candidates of degree 1100
    this search took 0.12 s and the Horner evaluations 0.30 s, against 0.51
    and 0.60 s above 2**61 (CPython 3.11, 2 vCPU).  A nonzero P(w) mod q
    still rules k out; a chance zero costs one exact division.
    """
    q = k * (2**29 // k + 1) + 1
    while not is_prime(q):
        q += k
    primes = factorize(k).primes
    for g in itertools.count(2):
        w = pow(g, (q - 1) // k, q)
        if all(pow(w, k // p, q) != 1 for p in primes):
            return q, w


def _vanishes_mod(coeffs_desc: list[int], k: int) -> bool:
    """Is P(w) = 0 (mod q), with (q, w) from ``_root_of_unity_mod_prime(k)``
    and P given by its integer coefficients from the top degree down?"""
    q, w = _root_of_unity_mod_prime(k)
    acc = 0
    for c in coeffs_desc:
        acc = (acc * w + c) % q
    return acc == 0


class CycloFactorReport(NamedTuple):
    """Outcome of a full cyclotomic-factor scan.

    input = x**x_multiplicity * prod of Phi_n**mult * cofactor holds exactly,
    and the cofactor is divisible by neither x nor any further cyclotomic.
    """

    input_degree: int
    x_multiplicity: int
    cyclo_indices: tuple[tuple[int, int], ...]
    cofactor_degree: int
    cofactor: Polynomial

    def to_json_dict(self) -> dict:
        return {
            "x_multiplicity": self.x_multiplicity,
            "cyclotomic": [{"n": n, "mult": m} for n, m in self.cyclo_indices],
            "cofactor_degree": self.cofactor_degree,
            "cofactor_coeffs": [QQ.format(c) for c in self.cofactor.coeffs],
        }


def cyclo_factor_scan(p: Polynomial) -> CycloFactorReport:
    """Extract the full x and cyclotomic content of a rational polynomial."""
    if p.ring is not QQ:
        raise DomainError("cyclo_factor_scan expects a rational polynomial")
    if p.is_zero:
        raise DomainError("cyclo_factor_scan of the zero polynomial")
    input_degree = p.degree
    x_mult = p.x_valuation
    cofactor = Polynomial(QQ, p.coeffs[x_mult:])
    candidates = cyclotomic_candidates(cofactor.degree)
    phi = _totients_up_to(candidates[-1] if candidates else 1)
    integral = _clear_denominators(cofactor.coeffs)[0][::-1]
    found: list[tuple[int, int]] = []
    for k in candidates:
        if phi[k] > cofactor.degree or not _vanishes_mod(integral, k):
            continue
        phi_k = cyclotomic_poly(k)
        mult = 0
        quot, rem = divmod(cofactor, phi_k)
        while rem.is_zero:
            mult += 1
            cofactor = quot
            if cofactor.degree < phi_k.degree:
                break
            quot, rem = divmod(cofactor, phi_k)
        if mult:
            found.append((k, mult))
            integral = _clear_denominators(cofactor.coeffs)[0][::-1]
    return CycloFactorReport(
        input_degree=input_degree,
        x_multiplicity=x_mult,
        cyclo_indices=tuple(found),
        cofactor_degree=cofactor.degree,
        cofactor=cofactor,
    )
