"""Dynatomic polynomials and universal divisibility relations.

The degree-d dynatomic polynomial of f is the alternating product over
divisors of d of (f-iterate minus x) factors; it is a genuine polynomial,
so it is built here as one exact division of the positively-weighted
product by the negatively-weighted one.  The preperiod-m dynatomic follows
the recurrence Phi_{f,m,n} = Phi_{f,1,n}(f**(m-1)), where Phi_{f,1,n} =
Phi_n(f) / Phi_n is the only further division.  A nonzero remainder here
is mathematical information (a falsified divisibility), and is propagated
as ExactDivisionError rather than silenced.

Tuple arithmetic alone decides whether a preperiod/period pair (m, n)
universally divides the shifted (c, d) dynatomic: those checks live in
``relation_conditions``; ``verify_relation`` performs the polynomial leg
for a concrete or parametric f.  It works modulo D = Phi_{f,m,n}, which
divides f**(m+n) - f**m, so f**k is congruent to f**k' for
k' = PsiQuotient(m, n).reduce_index(k).  Two routes, chosen by the tuple
and D alone:

1. N/Dn: Phi_{f,c,d} * Dn = N for products N, Dn of iterate differences.
   Dividing D out of each factor it divides gives Phi_{f,c,d} * Dn' =
   D**s * N', where s counts those factors in N less those in Dn.  When
   2 deg D < deg Phi_{f,c,d} such a factor F enters N' or Dn' as
   F / D mod D, read off the iterates up to f**(c+d) mod D**2; otherwise
   it stays 0 mod D, so s != 0 or Dn' = 0 and the leg is left open.  If
   s = 0 and Res(D, Dn') != 0, D is prime to Dn' (over Q(a) for Q[a]), so
   D | Phi_{f,c,d} - 1 exactly when N' = Dn' mod D, and Phi_{f,c,d} =
   N' / Dn' mod D.  That quotient is computed only over a field and only
   when (deg D)**2 < deg Phi_{f,c,d}.
2. Otherwise Phi_{f,c,d} is built and divided; so also when D is not
   smaller than Phi_{f,c,d}, or when D's leading coefficient is not a unit
   (in Q[a], not a nonzero constant), where reduction mod D would leave
   the coefficient ring.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import NamedTuple

from .cyclotomic import cyclotomic_poly
from .errors import DomainError, ResourceLimitError
from .necklace import PsiQuotient, fast_xn1_divides
from .numtheory import core_and_cocore, divisors, squarefree_divisors
from .polycore import QA, QQ, Polynomial, _iterates, resultant

DEFAULT_DEGREE_CAP = 5000

DEGREE_CAP_ENV = "DYNLAB_DEGREE_CAP"


def degree_cap() -> int:
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


def dynatomic_degree(k: int, d: int) -> int:
    """Degree of the d-th dynatomic polynomial of a degree-k map."""
    return sum(mu * k**(d // e) for e, mu in squarefree_divisors(d))


def generalized_dynatomic_degree(k: int, m: int, n: int) -> int:
    base = dynatomic_degree(k, n)
    if m == 0:
        return base
    return k**(m - 1) * (k - 1) * base


def _require_dynamical(f: Polynomial) -> None:
    if f.degree < 2:
        raise DomainError("dynatomic constructions need deg(f) >= 2")


def dynatomic_poly(f: Polynomial, d: int) -> Polynomial:
    """Product over e | d of (f**(d/e)(x) - x) ** mobius(e), exactly.

    All positive factors are multiplied before the single exact division by
    the negative ones, so one remainder check certifies polynomiality.
    """
    _require_dynamical(f)
    if d < 1:
        raise DomainError("dynatomic index must be >= 1")
    pairs = squarefree_divisors(d)
    table = _iterates(f, {d // e for e, _ in pairs})
    x = Polynomial.x(f.ring)
    num = Polynomial.one(f.ring)
    den = Polynomial.one(f.ring)
    for e, mu in pairs:
        factor = table[d // e] - x
        if mu == 1:
            num = num * factor
        else:
            den = den * factor
    return num.div_exact(den)


def generalized_dynatomic(f: Polynomial, m: int, n: int) -> Polynomial:
    """Preperiod-m, period-n dynatomic Phi_n(f**m) / Phi_n(f**(m-1)).

    The m = 0 case is plain dynatomic.  For m >= 1 it is P(f**(m-1)) with
    P = Phi_n(f) / Phi_n: composing on the right with g is a ring
    homomorphism, so Phi_n(f**m) = (P * Phi_n)(f**(m-1))
    = P(f**(m-1)) * Phi_n(f**(m-1)).  Only P needs a division.
    """
    _require_dynamical(f)
    if m < 0 or n < 1:
        raise DomainError("generalized dynatomic needs m >= 0, n >= 1")
    phi = dynatomic_poly(f, n)
    if m == 0:
        return phi
    phi = phi.compose(f).div_exact(phi)
    return phi if m == 1 else phi.compose(_iterates(f, {m - 1})[m - 1])


def telescope_check(f: Polynomial, m: int, n: int) -> bool:
    """Does the product of all (i <= m, j | n) dynatomics rebuild the gap?

    The gap is f**(m+n)(x) - f**m(x); equality is exact or the check fails.
    """
    _require_dynamical(f)
    if m < 0 or n < 1:
        raise DomainError("telescope_check needs m >= 0, n >= 1")
    product = Polynomial.one(f.ring)
    for i in range(m + 1):
        for j in divisors(n):
            product = product * generalized_dynatomic(f, i, j)
    table = _iterates(f, {m, m + n})
    return product == table[m + n] - table[m]


class _RelationTupleFields(NamedTuple):
    m: int
    n: int
    c: int
    d: int


class RelationTuple(_RelationTupleFields):
    """Indices (m, n, c, d) of a candidate divisibility relation."""

    __slots__ = ()

    def __new__(cls, m: int, n: int, c: int, d: int):
        if m < 0 or c < 0 or n < 1 or d < 1:
            raise DomainError("relation tuple needs m, c >= 0 and n, d >= 1")
        return super().__new__(cls, m, n, c, d)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "c": self.c, "d": self.d}


class ConditionReport(NamedTuple):
    """Clause-by-clause evaluation of the admissibility conditions.

    cond1: m > c or n does not divide d (keeps the two dynatomics apart);
    cond2: cocore(d) >= m - max(c-1, 0);
    cond3: x**n - 1 divides M_d;
    alt:   the separate route d > 1, c - 1 >= m, n = 1.
    """

    cond1: bool
    cond2: bool
    cond3: bool
    alt: bool

    @property
    def admissible(self) -> bool:
        return (self.cond1 and self.cond2 and self.cond3) or self.alt

    def to_json_dict(self) -> dict:
        return {"cond1": self.cond1, "cond2": self.cond2, "cond3": self.cond3,
                "alt": self.alt, "admissible": self.admissible}


def relation_conditions(t: RelationTuple) -> ConditionReport:
    """Arithmetic-only admissibility test for the tuple (m, n, c, d)."""
    cond1 = t.m > t.c or t.d % t.n != 0
    cond2 = core_and_cocore(t.d)[1] >= t.m - max(t.c - 1, 0)
    cond3 = fast_xn1_divides(t.d, t.n)
    alt = t.d > 1 and t.c - 1 >= t.m and t.n == 1
    return ConditionReport(cond1=cond1, cond2=cond2, cond3=cond3, alt=alt)


class DivisibilityEvidence(NamedTuple):
    """Outcome of one exact divisibility test for a relation tuple."""

    family: str
    ring: str
    seed: int | None
    divides: bool
    cofactor_degree: int | None
    remainder_degree: int | None

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "ring": self.ring,
            "seed": self.seed,
            "divides": self.divides,
            "cofactor_degree": self.cofactor_degree,
            "remainder_degree": self.remainder_degree,
        }


def _check_cap(k: int, pre: int, per: int, cap: int) -> None:
    """Refuse to build the (pre, per) dynatomic when its degree is over cap."""
    predicted = generalized_dynatomic_degree(k, pre, per)
    if predicted > cap:
        raise ResourceLimitError(
            f"degree {predicted} of the ({pre}, {per}) dynatomic exceeds "
            f"the cap {cap}")


def verify_relation(t: RelationTuple, f: Polynomial, *,
                    family: str | None = None,
                    seed: int | None = None,
                    cap: int | None = None) -> DivisibilityEvidence:
    """Exact test: does D = Phi_{f,m,n} divide Phi_{f,c,d} - 1?

    D is always built.  When its leading coefficient is a unit and it is
    smaller than Phi_{f,c,d}, one pass over the iterates mod D decides the
    leg if it can (see the module docstring): by N' = Dn' mod D, or by
    N' / Dn' mod D.  Otherwise Phi_{f,c,d} is built and divided.  The cap
    (5000, or DYNLAB_DEGREE_CAP) bounds what is built.  It is checked for
    D before anything is built, and for Phi_{f,c,d} before the iterates
    mod D**2, whose c + d compositions it bounds, and before the full
    construction.  Each refusal is a ResourceLimitError.  A leg that the
    pass decides with no factor 0 mod D builds neither, so it may answer
    past the cap.
    """
    _require_dynamical(f)
    cap = degree_cap() if cap is None else cap
    k = f.degree
    _check_cap(k, t.m, t.n, cap)
    divisor = generalized_dynatomic(f, t.m, t.n)
    top = generalized_dynatomic_degree(k, t.c, t.d)
    rem = None
    if divisor.degree < top and _unit_lead(divisor):
        rem = _quotient_remainder(t, f, divisor, cap)
    if rem is None:
        _check_cap(k, t.c, t.d, cap)
        rem = (generalized_dynatomic(f, t.c, t.d) - 1) % divisor
    return DivisibilityEvidence(
        family=family if family is not None else f.to_text(),
        ring=f.ring.tag,
        seed=seed,
        divides=rem.is_zero,
        cofactor_degree=top - divisor.degree if rem.is_zero else None,
        remainder_degree=None if rem.is_zero else rem.degree,
    )


def _unit_lead(divisor: Polynomial) -> bool:
    """Is the leading coefficient a unit, so that reduction mod D is exact?"""
    return divisor.ring is not QA or len(divisor.lc) == 1


def _residues(f: Polynomial, modulus: Polynomial,
              count: int) -> list[Polynomial]:
    """x, f(x), ..., f**count(x), each reduced mod modulus."""
    table = [Polynomial.x(f.ring) % modulus]
    for _ in range(count):
        table.append(f.compose(table[-1]) % modulus)
    return table


def _quotient_remainder(t: RelationTuple, f: Polynomial,
                        divisor: Polynomial, cap: int) -> Polynomial | None:
    """(Phi_{f,c,d} - 1) mod D for D = Phi_{f,m,n}, or None if undecided.

    Route 1 of the module docstring.  N and Dn collect the factors
    f**(c+d/e) - f**c (and, for c >= 1, those at c - 1 with the opposite
    sign) by the sign of mu(e), so that Phi_{f,c,d} * Dn = N exactly.
    Only the factors that are 0 mod D are lifted, and the iterates mod
    D**2 are built only when there is one.
    """
    ring = f.ring
    index = PsiQuotient(t.m, t.n).reduce_index
    residues = _residues(f, divisor, t.m + t.n - 1)
    shifts = ((t.c, 1), (t.c - 1, -1)) if t.c else ((0, 1),)
    factors = [(pre + t.d // e, pre, mu * sign)
               for e, mu in squarefree_divisors(t.d) for pre, sign in shifts]
    reduced = [residues[index(i)] - residues[index(j)] for i, j, _ in factors]
    top = generalized_dynatomic_degree(f.degree, t.c, t.d)
    lifts = None
    if 2 * divisor.degree < top and any(factor.is_zero for factor in reduced):
        _check_cap(f.degree, t.c, t.d, cap)
        lifts = _residues(f, divisor * divisor, t.c + t.d)
    num = den = Polynomial.one(ring)
    order = 0
    for (i, j, weight), factor in zip(factors, reduced):
        if factor.is_zero:
            order += weight
            if lifts is not None:
                factor = (lifts[i] - lifts[j]).div_exact(divisor)
        if weight == 1:
            num = num * factor % divisor
        else:
            den = den * factor % divisor
    # Euclid on D and Dn' takes about deg(D)**2 field operations, so the
    # inverse is taken only below deg Phi_{f,c,d}: past it, inverting can
    # cost more than building in full
    invert = divisor.degree ** 2 < top and ring is not QA
    if (not order and not den.is_zero and (num == den or invert)
            and not ring.is_zero(resultant(divisor, den))):
        if num == den:
            return Polynomial.zero(ring)
        return (num * _inverse_mod(den, divisor) - 1) % divisor
    return None


def _inverse_mod(u: Polynomial, modulus: Polynomial) -> Polynomial:
    """u**-1 mod modulus over a field, for u prime to modulus."""
    ring = u.ring
    r0, r1 = modulus, u % modulus
    s0, s1 = Polynomial.zero(ring), Polynomial.one(ring)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return s0.scale(ring.exact_div(ring.one, r0.lc)) % modulus


class RelationCertificate(NamedTuple):
    """A relation tuple, its admissibility, and the divisibility evidence."""

    indices: RelationTuple
    conditions: ConditionReport
    evidence: tuple[DivisibilityEvidence, ...]

    @property
    def all_divide(self) -> bool:
        return all(e.divides for e in self.evidence)

    def to_json_dict(self) -> dict:
        return {
            "tuple": self.indices.to_json_dict(),
            "conditions": self.conditions.to_json_dict(),
            "evidence": [e.to_json_dict() for e in self.evidence],
        }


def random_monic_integer_poly(rng: random.Random,
                              degree_range: tuple[int, int] = (2, 4),
                              coeff_bound: int = 9) -> Polynomial:
    """Monic with integer coefficients drawn uniformly from the bound."""
    k = rng.randint(*degree_range)
    coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(k)] + [1]
    return Polynomial(QQ, coeffs)


def build_relation_certificate(t: RelationTuple, *,
                               family: Polynomial | None = None,
                               family_label: str | None = None,
                               trials: int = 20,
                               seed: int = 0,
                               cap: int | None = None,
                               force: bool = False) -> RelationCertificate:
    """Assemble a certificate: conditions plus family and random legs.

    Verification only runs when the tuple is admissible (or forced); the
    random leg draws monic integer polynomials of degree 2..4 from the
    recorded seed so certificates are reproducible.
    """
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    conditions = relation_conditions(t)
    evidence: list[DivisibilityEvidence] = []
    if conditions.admissible or force:
        if family is not None:
            evidence.append(verify_relation(
                t, family, family=family_label or family.to_text(), cap=cap))
        rng = random.Random(seed)
        for _ in range(trials):
            f = random_monic_integer_poly(rng)
            evidence.append(verify_relation(t, f, seed=seed, cap=cap))
    return RelationCertificate(indices=t, conditions=conditions,
                               evidence=tuple(evidence))


def fixed_point_identity(f: Polynomial, alpha, d: int):
    """Compare the dynatomic at a fixed point with the cyclotomic at its multiplier.

    Returns (lhs, rhs, equal) where lhs is the degree-d dynatomic of f at
    alpha and rhs the d-th cyclotomic at f'(alpha).
    """
    if f.ring is not QQ:
        raise DomainError("the fixed-point identity is checked over Q")
    _require_dynamical(f)
    if d < 2:
        raise DomainError("the fixed-point identity needs d >= 2")
    alpha = Fraction(alpha)
    if f.evaluate(alpha) != alpha:
        raise DomainError(f"{alpha} is not a fixed point of {f.to_text()}")
    lhs = dynatomic_poly(f, d).evaluate(alpha)
    multiplier = f.derivative().evaluate(alpha)
    rhs = cyclotomic_poly(d).evaluate(multiplier)
    return lhs, rhs, lhs == rhs


def unit_relation_resultant(f: Polynomial, t: RelationTuple):
    """Res of the (m, n) dynatomic against the (c, d) one.

    For monic integer f this is the product of the (m, n) dynatomic over
    the roots of the (c, d) one: the certified value is 1 whenever the
    divisibility relation holds.  Over the parameter ring it is a
    polynomial in a; at a shared root it vanishes.
    """
    _require_dynamical(f)
    left = generalized_dynatomic(f, t.m, t.n)
    right = generalized_dynatomic(f, t.c, t.d)
    return resultant(left, right)
