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
divides f**(m+n) - f**m, so f**k is congruent to f**k' for k' = k below
m + n and k' = m + ((k - m) mod n) above (``_reduce_index``).  Two routes,
chosen by the tuple and D alone:

1. N/Dn: Phi_{f,c,d} * Dn = N for products N, Dn of the factors
   f**(p+d/e) - f**p at p = c (and at p = c - 1 with the opposite sign).
   Let g = f**n, h = g - x and u_k = (g**k - x) / h.  Taylor's formula
   g(x + h*u) = g(x) + g'*h*u mod h**2, over any commutative ring, gives
   u_(k+1) = 1 + g'*u_k mod h, so u_k = G_k(g') mod h, where G_k(y) =
   1 + y + ... + y**(k-1).  For p >= m and n | d/e the factor is H_p *
   u_k(f**p) with H_p = h(f**p) and k = d/(en).  D divides H_p, since
   f**(m+n) - f**m divides f**(p+n) - f**p, so u_k(f**p) = G_k(lambda)
   mod D for lambda = g'(f**p) = prod_{i<n} f'(f**(p+i)), which mod D is
   the same product at p = m.  At each shift the H_p have net exponent
   sum_{e | d/n} mu(e), 0 unless d = n; then c > m, and H_c / H_(c-1) =
   (f(A) - f(B)) / (A - B) with A - B = H_(c-1), which is f'(f**(c-1))
   mod D.  So Phi_{f,c,d} * Dn'' = N'' exactly, where N'' and Dn'' hold
   u_k(f**p) in place of each such factor, and N'' also H_c / H_(c-1)
   when d = n.  Such factors exist exactly when c >= m and n | d, and the
   pass takes them only when deg Phi_{f,c,d} <= cap; past the cap the leg
   is left open.  When D is prime to Dn'' (over Q(a) for Q[a]), D |
   Phi_{f,c,d} - 1 exactly when N'' = Dn'' mod D, and Phi_{f,c,d} = N'' /
   Dn'' mod D.  N'' = Dn'' is decided by Res(D, Dn'') != 0; any other leg,
   over a field with (deg D)**2 < deg Phi_{f,c,d}, by the extended Euclid
   alone, whose constant last remainder proves D prime to Dn''.
2. Otherwise (the pass checks its own gate) Phi_{f,c,d} is built and
   divided; so also when D is not smaller than Phi_{f,c,d}, or when D's
   lead is not a unit (in Q[a], not a nonzero constant), where reduction
   mod D would leave the coefficient ring.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .cyclotomic import cyclotomic_poly
from .errors import DomainError, _exact_degree, _refuse_over_cap, degree_cap
from .necklace import fast_xn1_divides
from .numtheory import core_and_cocore, squarefree_divisors
from .polycore import QA, QQ, Polynomial, _iterates, _power, resultant

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
        return self._asdict()


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
        return {**self._asdict(), "admissible": self.admissible}


def relation_conditions(t: RelationTuple) -> ConditionReport:
    """Arithmetic-only admissibility test for the tuple (m, n, c, d).

    Admissibility is sufficient, not necessary: a tuple it does not admit
    is not certified by this predicate, which does not say it fails; all 5
    legs of ``relation --m 0 --n 2 --c 1 --d 4 --force --trials 4`` divide.
    """
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
        return self._asdict()


def verify_relation(t: RelationTuple, f: Polynomial, *,
                    family: str | None = None,
                    seed: int | None = None,
                    cap: int | None = None) -> DivisibilityEvidence:
    """Exact test: does D = Phi_{f,m,n} divide Phi_{f,c,d} - 1?

    D is always built, and one pass over the iterates mod D, which checks
    its own gate, decides the leg if it can (see the module docstring): by
    N'' = Dn'' mod D, or by N'' / Dn'' mod D.  Otherwise Phi_{f,c,d} is
    built and divided.  The cap (5000, or DYNLAB_DEGREE_CAP; ``degree_cap``
    refuses one below 0) bounds what is built.  It is checked for D before
    anything is built, and for Phi_{f,c,d} before the full construction,
    each time from a lower bound of the degree first, so no degree far past
    the cap is formed.  A leg with c >= m and n | d has factors that are 0
    mod D; the pass replaces them by G_k(lambda) mod D only when
    deg Phi_{f,c,d} is within the cap, and past it leaves the leg to the
    full construction, which refuses it.  Each refusal is a
    ResourceLimitError.  Any other leg that the pass decides builds only D
    and the iterates mod D up to f**(m+n-1), so it may answer past the cap.
    """
    _require_dynamical(f)
    cap = degree_cap(cap)
    k = f.degree

    def refuse_over_cap(pre: int, per: int) -> None:
        # sum mu(e) * k**(per/e) >= k**(per-1), so the degree is at least
        # 2**(pre+per-2), and the refusal never builds a degree far past cap
        _refuse_over_cap(cap, f"the ({pre}, {per}) dynatomic", pre + per - 2,
                         lambda: generalized_dynatomic_degree(k, pre, per))

    refuse_over_cap(t.m, t.n)
    divisor = generalized_dynatomic(f, t.m, t.n)
    # the pass compares top only with deg D, (deg D)**2 and cap
    limit = max(cap, divisor.degree ** 2)
    top = _exact_degree(limit, t.c + t.d - 2,
                        lambda: generalized_dynatomic_degree(k, t.c, t.d))
    rem = _quotient_remainder(t, f, divisor,
                              limit + 1 if top is None else top, cap)
    if rem is None:
        refuse_over_cap(t.c, t.d)
        rem = (generalized_dynatomic(f, t.c, t.d) - 1) % divisor
    return DivisibilityEvidence(
        family=family if family is not None else f.to_text(),
        ring=f.ring.tag,
        seed=seed,
        divides=rem.is_zero,
        cofactor_degree=(generalized_dynatomic_degree(k, t.c, t.d)
                         - divisor.degree) if rem.is_zero else None,
        remainder_degree=None if rem.is_zero else rem.degree,
    )


def _reduce_index(m: int, n: int, k: int) -> int:
    """The k' < m + n with f**k congruent to f**k' mod f**(m+n) - f**m."""
    return k if k < m + n else m + (k - m) % n


def _quotient_remainder(t: RelationTuple, f: Polynomial, divisor: Polynomial,
                        top: int, cap: int) -> Polynomial | None:
    """(Phi_{f,c,d} - 1) mod D for D = Phi_{f,m,n}, or None if undecided.

    Route 1 of the module docstring, with its own gate: the pass runs only
    when deg D < top = deg Phi_{f,c,d} (or a stand-in above cap and
    (deg D)**2), so (c, d) != (m, n), and when D's lead is a unit (over
    Q[a], a constant).  N and Dn collect the factors f**(p+d/e) - f**p at
    p = c (and, for c >= 1, at p = c - 1 with the opposite sign) by the
    sign of mu(e), so that Phi_{f,c,d} * Dn = N.
    A factor with p >= m and n | d/e enters as G_(d/(en))(lambda) mod D.
    Such factors exist exactly when c >= m and n | d, and the pass takes
    them only when top <= cap; past it the leg is left open.  N'' = Dn''
    decides the leg by Res(D, Dn''); any other leg runs the Euclid only.
    """
    ring = f.ring
    m, n = t.m, t.n
    multiplier = t.c >= m and t.d % n == 0
    if (divisor.degree >= top or ring is QA and len(divisor.lc) > 1
            or multiplier and top > cap):
        return None
    residues = _iterates(f, range(m + n), divisor)
    num = den = one = Polynomial.one(ring)
    if multiplier:
        slope = f.derivative()
        lam = one
        for i in range(m, m + n):
            lam = lam * slope.compose(residues[i]) % divisor
        if t.d == n and t.c > m:
            # H_c / H_(c-1) = f'(f**(c-1)) mod D, the one H left over
            num = slope.compose(residues[_reduce_index(m, n, t.c - 1)]) \
                % divisor
    shifts = ((t.c, 1), (t.c - 1, -1)) if t.c else ((0, 1),)
    for e, mu in squarefree_divisors(t.d):
        k, r = divmod(t.d // e, n)
        for pre, sign in shifts:
            if pre >= m and not r:
                factor = _geometric_sum(lam, k, divisor)
            else:
                factor = (residues[_reduce_index(m, n, pre + t.d // e)]
                          - residues[_reduce_index(m, n, pre)])
            if mu * sign == 1:
                num = num * factor % divisor
            else:
                den = den * factor % divisor
    if den.is_zero:
        return None
    if num == den:
        return Polynomial.zero(ring) if resultant(divisor, den) else None
    # On the 471 legs this turns away in the relation benchmark's seeds
    # 11-20 and TestQuotientRoutes (2 vCPU, CPython 3.11), the inverse took
    # 1.17 s and the full build 0.40 s; at deg D = 144, 0.219 s to 0.013 s
    if ring is QA or divisor.degree ** 2 >= top:
        return None
    inverse = _inverse_mod(den, divisor)
    return None if inverse is None else (num * inverse - 1) % divisor


def _geometric_sum(lam: Polynomial, k: int,
                   modulus: Polynomial) -> Polynomial:
    """G_k(lam) = 1 + lam + ... + lam**(k-1) mod modulus: the offset of the
    k-th power of the affine map y -> lam*y + 1, kept as (slope, offset)."""
    def compose(u, v):
        return u[0] * v[0] % modulus, (u[0] * v[1] + u[1]) % modulus

    one = Polynomial.one(lam.ring)
    return _power(compose, (one, Polynomial.zero(lam.ring)), (lam, one), k)[1]


def _inverse_mod(u: Polynomial, modulus: Polynomial) -> Polynomial | None:
    """u**-1 mod modulus over a field, or None when the last nonzero
    remainder of the Euclid is not a constant (u is not prime to modulus)."""
    ring = u.ring
    r0, r1 = modulus, u % modulus
    s0, s1 = Polynomial.zero(ring), Polynomial.one(ring)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree:
        return None
    return s0 * ring.exact_div(ring.one, r0.lc) % modulus


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
    cap = degree_cap(cap)
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
    alpha = QQ.coerce(alpha)
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
