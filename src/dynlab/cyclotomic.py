"""Cyclotomic polynomials and exhaustive cyclotomic-factor scans.

The scan peels x and every cyclotomic factor (with multiplicity) off a
rational polynomial and certifies that the remaining cofactor has no
further such factors.

Candidate indices k are enumerated exactly: a cyclotomic factor Phi_k of
a degree-D polynomial has phi(k) <= D.  phi is multiplicative and
phi(p**e) = (p - 1) * p**(e - 1), so each k is 1 extended by prime powers
p**e, the primes taken in ascending order, with phi(k) known at every step.
A branch stops at the first prime whose p - 1 pushes phi past D, as every
later prime does too; from phi(1) = 1 that is the first prime above D + 1.

Before an exact division by Phi_k, each candidate passes a modular filter:
with P an integer polynomial that is a multiple of the cofactor in Q[x], q
a prime with q = 1 (mod k) and w of exact order k modulo q, Phi_k(w) = 0
(mod q).  Phi_k is monic with integer coefficients, so Phi_k | P in Q[x]
gives P = Phi_k * Q with Q in Z[x], hence P(w) = 0 (mod q).  A nonzero
P(w) mod q therefore proves that Phi_k does not divide the cofactor; a zero
value only sends k on to the exact division, so the filter never changes
an answer.

The cofactor divides the x-stripped input, so P may clear the denominators
of either; the filter evaluates whichever has fewer nonzero terms, by Horner
across the gaps between them (d * M_d has 2**omega(d) nonzero terms, its
cofactor about d).  After each successful division the new cofactor itself
is filtered before Phi_k is tried again.  Candidates share roots of unity:
each k takes the largest candidate K divisible by k, and w_K**(K/k) has
exact order k modulo q_K, so one prime search serves every divisor of K.
A scan makes at most one search per candidate it tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError
from .numtheory import (_element_of_order, _primes_below, core_and_cocore,
                        factorize, is_prime)
from .polycore import QQ, Polynomial, _clear_denominators


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


def cyclotomic_candidates(max_phi: int) -> dict[int, int]:
    """{k: phi(k)} for all k with phi(k) <= max_phi, in ascending k; empty
    when max_phi < 1.

    Enumerated by prime powers as the module docstring says (2134
    candidates for max_phi = 1100).
    """
    if max_phi < 1:
        return {}
    primes = _primes_below(max_phi + 2)
    phi: dict[int, int] = {}
    stack = [(1, 1, 0)]  # (k, phi(k), index of the first prime k may take)
    while stack:
        k, f, i = stack.pop()
        phi[k] = f
        for j in range(i, len(primes)):
            p = primes[j]
            pk, g = k * p, f * (p - 1)
            if g > max_phi:
                break
            while g <= max_phi:
                stack.append((pk, g, j + 1))
                pk, g = pk * p, g * p
    return dict(sorted(phi.items()))


@lru_cache(maxsize=None)
def _root_of_unity_mod_prime(k: int) -> tuple[int, int]:
    """The least prime q = 1 (mod k) above 2**29 and a w of exact order k
    mod q.

    q lies far below 3.3 * 10**24, where ``is_prime`` is a proof, and near
    2**29 q and w fit one CPython digit and ``is_prime`` runs four bases.
    The scan of 1100 * M_1100 tests 1832 of its 2134 candidates; their roots
    come from 601 searches, which take 0.02 s near 2**29 and 0.17 s above
    2**61, and the Horner evaluations of its 8-term input take 0.01 s
    (CPython 3.11, 2 vCPU).  A nonzero P(w) mod q still rules k out; a
    chance zero costs one exact division.
    """
    q = k * (2**29 // k + 1) + 1
    while not is_prime(q):
        q += k
    return q, _element_of_order(k, q)


def _shared_root(k: int, owner: int) -> tuple[int, int]:
    """(q, w) with w of exact order k mod q, from the root for a multiple
    ``owner`` of k."""
    q, w = _root_of_unity_mod_prime(owner)
    return q, pow(w, owner // k, q)


def _terms(poly: Polynomial) -> list[tuple[int, int]]:
    """The nonzero coefficients of an integer multiple of poly from the top
    degree down, each with the gap to the next lower nonzero degree (to 0
    after the last)."""
    ints = _clear_denominators(poly.coeffs)[0]
    exps = [e for e, c in enumerate(ints) if c][::-1]
    return [(ints[e], e - low) for e, low in zip(exps, exps[1:] + [0])]


def _vanishes_mod(terms: list[tuple[int, int]], q: int, w: int) -> bool:
    """Is P(w) = 0 (mod q), for P given by ``_terms``?"""
    acc = 0
    for c, gap in terms:
        acc = (acc + c) * (w if gap == 1 else pow(w, gap, q)) % q
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
    phi = cyclotomic_candidates(cofactor.degree)
    top = max(phi, default=1)
    input_terms = terms = _terms(cofactor)
    found: list[tuple[int, int]] = []
    for k, totient in phi.items():
        if totient > cofactor.degree:
            continue
        # the largest candidate divisible by k
        owner = next(m for m in range(top - top % k, 0, -k) if m in phi)
        q, w = _shared_root(k, owner)
        if not _vanishes_mod(terms, q, w):
            continue
        phi_k = cyclotomic_poly(k)
        mult = 0
        quot, rem = divmod(cofactor, phi_k)
        while rem.is_zero:
            mult += 1
            cofactor = quot
            cofactor_terms = _terms(cofactor)
            if (cofactor.degree < phi_k.degree
                    or not _vanishes_mod(cofactor_terms, q, w)):
                break
            quot, rem = divmod(cofactor, phi_k)
        if mult:
            found.append((k, mult))
            terms = min(input_terms, cofactor_terms, key=len)
    return CycloFactorReport(
        input_degree=input_degree,
        x_multiplicity=x_mult,
        cyclo_indices=tuple(found),
        cofactor_degree=cofactor.degree,
        cofactor=cofactor,
    )
