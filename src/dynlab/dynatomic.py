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
for a concrete or parametric f.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import cyclotomic_poly
from .errors import DomainError, ResourceLimitError
from .necklace import fast_xn1_divides
from .numtheory import core_and_cocore, divisors, squarefree_divisors
from .polycore import QQ, Polynomial, _iterates

DEFAULT_DEGREE_CAP = 5000

DEGREE_CAP_ENV = "DYNLAB_DEGREE_CAP"


def degree_cap() -> int:
    value = os.environ.get(DEGREE_CAP_ENV)
    if value is None:
        return DEFAULT_DEGREE_CAP
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"{DEGREE_CAP_ENV} must be an integer") from None


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


@dataclass(frozen=True)
class RelationTuple:
    """Indices (m, n, c, d) of a candidate divisibility relation."""

    m: int
    n: int
    c: int
    d: int

    def __post_init__(self):
        if self.m < 0 or self.c < 0 or self.n < 1 or self.d < 1:
            raise DomainError("relation tuple needs m, c >= 0 and n, d >= 1")

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "c": self.c, "d": self.d}


@dataclass(frozen=True)
class ConditionReport:
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


@dataclass(frozen=True)
class DivisibilityEvidence:
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


def verify_relation(t: RelationTuple, f: Polynomial, *,
                    family: str | None = None,
                    seed: int | None = None,
                    cap: int | None = None) -> DivisibilityEvidence:
    """Exact test: does the (m, n) dynatomic divide the (c, d) one minus 1?

    Refuses (ResourceLimitError) before building anything when either
    dynatomic's degree would exceed the cap (5000, or DYNLAB_DEGREE_CAP).
    """
    _require_dynamical(f)
    cap = degree_cap() if cap is None else cap
    for pre, per in ((t.c, t.d), (t.m, t.n)):
        predicted = generalized_dynatomic_degree(f.degree, pre, per)
        if predicted > cap:
            raise ResourceLimitError(
                f"degree {predicted} of the ({pre}, {per}) dynatomic exceeds "
                f"the cap {cap}")
    divisor = generalized_dynatomic(f, t.m, t.n)
    shifted = generalized_dynatomic(f, t.c, t.d) - 1
    quot, rem = divmod(shifted, divisor)
    return DivisibilityEvidence(
        family=family if family is not None else f.to_text(),
        ring=f.ring.tag,
        seed=seed,
        divides=rem.is_zero,
        cofactor_degree=quot.degree if rem.is_zero else None,
        remainder_degree=None if rem.is_zero else rem.degree,
    )


@dataclass(frozen=True)
class RelationCertificate:
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
    from .polycore import resultant

    _require_dynamical(f)
    left = generalized_dynatomic(f, t.m, t.n)
    right = generalized_dynatomic(f, t.c, t.d)
    return resultant(left, right)
