"""Necklace polynomials M_d and their dynamical analogues.

M_d(x) = (1/d) * sum of mu(e) * x**(d/e) over the squarefree divisors e of
d, so every question about it reduces to that divisor list: x**n - 1
divides M_d exactly when the Moebius weights mu(e), grouped by the residue
of the exponent d/e mod n, sum to zero in every class.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ResourceLimitError, degree_cap
from .numtheory import squarefree_divisors
from .polycore import QQ, Polynomial, _iterates


def necklace_poly(d: int) -> Polynomial:
    """M_d(x) = (1/d) * sum of mu(e) * x**(d/e) over divisors e of d."""
    if d < 1:
        raise DomainError("necklace polynomial index must be >= 1")
    # QQ.zero, not 0, so that coercion passes every slot through unchanged
    coeffs = [QQ.zero] * (d + 1)
    for e, mu in squarefree_divisors(d):
        coeffs[d // e] = Fraction(mu, d)
    return Polynomial(QQ, coeffs)


def fast_xn1_divides(d: int, n: int) -> bool:
    """Does x**n - 1 divide M_d?  Runs on the squarefree divisors of d only.

    Folds each exponent d/e into its class mod n and checks that every
    residue class sums to zero.
    """
    if d < 1 or n < 1:
        raise DomainError("fast_xn1_divides needs d, n >= 1")
    sums: dict[int, int] = {}
    for e, mu in squarefree_divisors(d):
        r = (d // e) % n
        sums[r] = sums.get(r, 0) + mu
    return all(v == 0 for v in sums.values())


def dynamical_necklace(f: Polynomial, d: int) -> Polynomial:
    """(1/d) * sum of mu(e) * f**(d/e)(x), the f-iterate analogue of M_d.

    Needs d invertible in the coefficient ring, so prime-field inputs are
    rejected when the characteristic divides d.  Its degree is k**d for f of
    degree k >= 2, and a degree over ``degree_cap()`` is refused before
    anything is built.
    """
    if d < 1:
        raise DomainError("dynamical necklace index must be >= 1")
    ring = f.ring
    if ring.characteristic and d % ring.characteristic == 0:
        raise DomainError(
            f"{d} is not invertible in characteristic {ring.characteristic}")
    k, cap = f.degree, degree_cap()
    # k**d > cap whenever 2**d > cap, so k**d is formed only for small d
    if k > 1 and (d >= cap.bit_length() or k**d > cap):
        raise ResourceLimitError(
            f"degree {k}**{d} of the dynamical necklace exceeds the cap {cap}")
    pairs = squarefree_divisors(d)
    iterates = _iterates(f, {d // e for e, _ in pairs})
    acc = Polynomial.zero(ring)
    for e, mu in pairs:
        acc = acc + iterates[d // e].scale(mu)
    return acc.scale(ring.exact_div(ring.one, ring.coerce(d)))
