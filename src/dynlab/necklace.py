"""Necklace polynomials and the bracket-operator calculus.

The bracket ring is spanned over Z by symbols [k] for natural k, with the
multiplication [j][k] = [jk].  The degree-d necklace operator is the
alternating sum of brackets over the squarefree divisors of d; its image
under [k] |-> x**k, divided by d, is the necklace polynomial M_d.

Quotients identify bracket indices the way exponents collapse in
Q[x]/(x**(m+n) - x**m): indices below m+n are kept, larger ones wrap into
the window [m, m+n).  Vanishing of the necklace operator in such a quotient
is exactly divisibility of M_d by x**m * (x**n - 1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, NotInvertibleError
from .numtheory import squarefree_divisors
from .polycore import QQ, Polynomial, _iterates


class PsiElement:
    """Integer linear combination of brackets [k]; immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for k, c in items:
            if k < 0 or not isinstance(k, int):
                raise DomainError(f"bracket index must be a natural number, got {k!r}")
            if c:
                acc[k] = acc.get(k, 0) + c
        object.__setattr__(self, "terms",
                           tuple(sorted((k, c) for k, c in acc.items() if c)))

    def __setattr__(self, *_):
        raise AttributeError("PsiElement instances are immutable")

    @classmethod
    def bracket(cls, k: int, coeff: int = 1) -> "PsiElement":
        return cls(((k, coeff),))

    @classmethod
    def zero(cls) -> "PsiElement":
        return cls()

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, k: int) -> int:
        for idx, c in self.terms:
            if idx == k:
                return c
        return 0

    def __eq__(self, other):
        return isinstance(other, PsiElement) and other.terms == self.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other: "PsiElement") -> "PsiElement":
        return PsiElement(list(self.terms) + list(other.terms))

    def __sub__(self, other: "PsiElement") -> "PsiElement":
        return self + (-other)

    def __neg__(self) -> "PsiElement":
        return PsiElement(tuple((k, -c) for k, c in self.terms))

    def __mul__(self, other):
        """Bracket product [j][k] = [jk], extended bilinearly."""
        if isinstance(other, int):
            return PsiElement(tuple((k, c * other) for k, c in self.terms))
        out: dict[int, int] = {}
        for j, cj in self.terms:
            for k, ck in other.terms:
                idx = j * k
                out[idx] = out.get(idx, 0) + cj * ck
        return PsiElement(out)

    def __rmul__(self, other: int):
        return self.__mul__(other)

    def positive_part(self) -> "PsiElement":
        return PsiElement(tuple((k, c) for k, c in self.terms if c > 0))

    def negative_part(self) -> "PsiElement":
        """The unique cancellation-free decomposition self = pos - neg."""
        return PsiElement(tuple((k, -c) for k, c in self.terms if c < 0))

    def apply_to_monomials(self, ring=QQ) -> Polynomial:
        """Image under [k] |-> x**k (zero element maps to the zero polynomial)."""
        if self.is_zero:
            return Polynomial.zero(ring)
        top = max(k for k, _ in self.terms)
        coeffs = [ring.zero] * (top + 1)
        for k, c in self.terms:  # the indices are distinct
            coeffs[k] = ring.coerce(c)
        return Polynomial(ring, coeffs)

    def __repr__(self):
        if not self.terms:
            return "PsiElement(0)"
        bits = []
        for k, c in self.terms:
            if c == 1:
                bits.append(f"+[{k}]")
            elif c == -1:
                bits.append(f"-[{k}]")
            else:
                bits.append(f"{c:+d}[{k}]")
        return f"PsiElement({' '.join(bits)})"


class _PsiQuotientFields(NamedTuple):
    m: int
    n: int


class PsiQuotient(_PsiQuotientFields):
    """Index quotient identifying k >= m+n with m + ((k - m) mod n)."""

    __slots__ = ()

    def __new__(cls, m: int, n: int):
        if m < 0 or n < 1:
            raise DomainError("quotient needs m >= 0 and n >= 1")
        return super().__new__(cls, m, n)

    def reduce_index(self, k: int) -> int:
        if k < self.m + self.n:
            return k
        return self.m + (k - self.m) % self.n

    def reduce(self, element: PsiElement) -> PsiElement:
        return PsiElement(tuple((self.reduce_index(k), c)
                                for k, c in element.terms))

    def bracket_mul(self, j: int, k: int) -> int:
        """Product of representative indices inside the quotient."""
        return self.reduce_index(j * k)

    def bracket_inverse(self, k: int) -> int:
        """Representative j with [k][j] = [1], found by orbit search.

        Exists only when the orbit of k under self-multiplication returns
        to 1; otherwise NotInvertibleError.
        """
        k = self.reduce_index(k)
        seen = set()
        power = k
        prev = 1
        while power not in seen:
            if power == 1:
                return prev
            seen.add(power)
            prev = power
            power = self.bracket_mul(power, k)
        raise NotInvertibleError(
            f"[{k}] is not invertible in the (m, n) = ({self.m}, {self.n}) quotient")


def necklace_operator(d: int) -> PsiElement:
    """Alternating bracket sum over squarefree divisors: term mu(e) at [d/e]."""
    if d < 1:
        raise DomainError("necklace operator index must be >= 1")
    return PsiElement(tuple((d // e, mu) for e, mu in squarefree_divisors(d)))


def necklace_operator_factored(d: int, quotient: PsiQuotient) -> PsiElement:
    """The product form [d] * prod over p | d of (1 - [p]^(-1)), in a quotient.

    The inverse brackets exist only in quotients where each prime class is
    invertible (NotInvertibleError otherwise), which is why the product form
    is evaluated here and not in the full bracket ring.
    """
    from .numtheory import factorize

    result = quotient.reduce(PsiElement.bracket(d))
    one = PsiElement.bracket(1)
    for p in factorize(d).primes:
        inv = PsiElement.bracket(quotient.bracket_inverse(p))
        result = quotient.reduce(result * (one - inv))
    return result


def necklace_poly(d: int) -> Polynomial:
    """M_d(x) = (1/d) * sum of mu(e) * x**(d/e) over divisors e of d."""
    if d < 1:
        raise DomainError("necklace polynomial index must be >= 1")
    return necklace_operator(d).apply_to_monomials().scale(Fraction(1, d))


def psi_vanishes(d: int, m: int, n: int) -> bool:
    """True when the degree-d necklace operator dies in the (m, n) quotient.

    Equivalent to x**m * (x**n - 1) dividing M_d.
    """
    return PsiQuotient(m, n).reduce(necklace_operator(d)).is_zero


def fast_xn1_divides(d: int, n: int) -> bool:
    """Does x**n - 1 divide M_d?  Runs on the squarefree divisors of d only.

    Folds each bracket index d/e into its class mod n and checks that every
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
    rejected when the characteristic divides d.
    """
    if d < 1:
        raise DomainError("dynamical necklace index must be >= 1")
    ring = f.ring
    if ring.characteristic and d % ring.characteristic == 0:
        raise DomainError(
            f"{d} is not invertible in characteristic {ring.characteristic}")
    pairs = squarefree_divisors(d)
    iterates = _iterates(f, {d // e for e, _ in pairs})
    acc = Polynomial.zero(ring)
    for e, mu in pairs:
        acc = acc + iterates[d // e].scale(mu)
    return acc.scale(ring.exact_div(ring.one, ring.coerce(d)))
