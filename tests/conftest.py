"""Shared independent oracles for the test suite.

These deliberately avoid the library's own fast paths: the dense fold
oracle works on raw integer coefficient lists, the factored form rebuilds
the folded necklace sum from the primes of d alone, and the Sylvester
oracle computes resultants as determinants.  xn1_divides and
hyperplane_forms are retired library functions kept here as oracles: the
first folds exponents of a rational polynomial, the second lists each
usable prime's dlog vector.
"""

from fractions import Fraction

from dynlab.characters import unit_group
from dynlab.errors import DomainError
from dynlab.numtheory import factorize, squarefree_divisors
from dynlab.polycore import QQ, Polynomial


def dense_necklace_int_coeffs(d: int) -> list[int]:
    """Coefficients of d * M_d as a plain integer list, ascending."""
    coeffs = [0] * (d + 1)
    for e, mu in squarefree_divisors(d):
        coeffs[d // e] += mu
    return coeffs


def fold_index(k: int, n: int, m: int = 0) -> int:
    """Exponent of x**k modulo x**m * (x**n - 1): k below m + n stays, and
    a larger k goes to m + (k - m) mod n."""
    return k if k < m + n else m + (k - m) % n


def dense_fold(coeffs: list[int], n: int, m: int = 0) -> list[int]:
    """Remainder of an integer polynomial modulo x**m * (x**n - 1), as the
    coefficient list of x**0 .. x**(m+n-1)."""
    folded = [0] * (m + n)
    for k, c in enumerate(coeffs):
        folded[fold_index(k, n, m)] += c
    return folded


def dense_fold_divisible(coeffs: list[int], n: int, m: int = 0) -> bool:
    """Remainder of an integer polynomial modulo x**m * (x**n - 1) is zero?

    Honest dense fold over every coefficient, no divisor-structure
    shortcuts: the slow side of the fast/slow agreement checks.  m = 0 is
    the fold modulo x**n - 1.
    """
    return not any(dense_fold(coeffs, n, m))


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


def hyperplane_forms(d: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(p, dlog of p over the generators of (Z/n)*) for each prime p | d
    prime to n: a character with exponent vector e lies in the hyperplane
    of p exactly when sum(e_i * c_i / order_i) is an integer."""
    group = unit_group(n)
    return [(p, group.dlog_of(p))
            for p in factorize(d).primes if n % p != 0]


def fold_inverse(k: int, n: int, m: int = 0) -> int:
    """The exponent j with fold_index(k*j) = 1, by orbit search over the
    folded powers of k; ArithmeticError when the orbit never returns to 1."""
    k = fold_index(k, n, m)
    seen = set()
    power, prev = k, 1
    while power not in seen:
        if power == 1:
            return prev
        seen.add(power)
        prev = power
        power = fold_index(power * k, n, m)
    raise ArithmeticError(f"{k} has no inverse in the ({m}, {n}) fold")


def factored_necklace_fold(d: int, n: int, m: int = 0) -> list[int]:
    """The product form [d] * prod over p | d of (1 - [p]**-1) of d * M_d,
    in the (m, n) fold, where [k] is x**k and [j][k] = [jk].

    The inverses are found by orbit search, so the form exists only where
    every prime class is invertible (ArithmeticError otherwise); there it
    equals dense_fold of the Moebius sum, by a route that never lists the
    divisors of d.
    """
    folded = [0] * (m + n)
    folded[fold_index(d, n, m)] = 1
    for p in factorize(d).primes:
        inv = fold_inverse(p, n, m)
        shifted = [0] * (m + n)
        for k, c in enumerate(folded):
            shifted[fold_index(k * inv, n, m)] += c
        folded = [a - b for a, b in zip(folded, shifted)]
    return folded


def sylvester_resultant(p, q) -> Fraction:
    """Resultant as the Sylvester determinant, by fraction Gaussian elimination."""
    m, n = p.degree, q.degree
    size = m + n
    if size == 0:
        return Fraction(1)
    pc = [Fraction(c) for c in reversed(p.coeffs)]
    qc = [Fraction(c) for c in reversed(q.coeffs)]
    rows = []
    for i in range(n):
        rows.append([Fraction(0)] * i + pc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + qc + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                rows[r] = [rc - factor * cc
                           for rc, cc in zip(rows[r], rows[col])]
    return det
