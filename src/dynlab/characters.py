"""Dirichlet characters, hyperplane covers, and divisibility certificates.

A character of modulus n is an exponent vector against a fixed cyclic
decomposition of the unit group mod n; its values are tracked as exact
rational angles (numerators against the group exponent), never floats.

``covers(d, n)`` decides divisibility of the degree-d necklace polynomial by
x**n - 1 through hyperplane covers.  Let D be the part of d on the primes
dividing n, and P the *entangled* primes: the p | D with v_p(d) > v_p(n).
A character chi is harmless when

* chi(p) = 1 for some usable prime p (p | d, p coprime to n), or
* chi(u_p) = 1 for some p in P, where u_p is a unit mod n with
  u_p = p mod n/p**v_p(n), or
* chi factors through none of the stratum moduli n/gcd(D/e, n), e running
  over the squarefree divisors of D;

and x**n - 1 | M_d exactly when every character is harmless.  For d coprime
to n, D = 1, P is empty and the one modulus is n itself, so this is the
plain hyperplane cover over the usable primes.

Proof that the last two clauses are the stratum test.  Write [k] for the
class of the exponent k mod n.  The D-part of the Moebius sum d*M_d, folded
mod x**n - 1, is the sum of mu(e)*[D/e] over squarefree e | D.  Its classes
split into strata by g = gcd(D/e, n), and the class [D/e] of stratum g
identifies with the unit (D/e)/g of the modulus m = n/g.  A character with
no usable witness is harmless exactly when it annihilates every stratum sum
whose modulus it factors through.

For p in P, v_p(D/e) >= v_p(d) - 1 >= v_p(n) whether or not p | e, so
p**v_p(n) divides every g and p is a unit mod every m.  For p | D outside P,
v_p(D/e) <= v_p(n), so v_p(g) = v_p(D/e) records whether p | e.  Hence the
e of stratum g are e_g*f, with e_g fixed by g and f running over the
squarefree products of P, and in Z[(Z/m)^*] the stratum sum is

    sum_f mu(e_g*f) [w_g*f**-1] = mu(e_g) [w_g] prod_{p in P} (1 - [p]**-1),

with w_g = D/(e_g*g) mod m.  Let chi factor through m.  Since m divides
n/p**v_p(n), u_p = p mod m, so one lift per prime serves every stratum, and
chi sends the sum to mu(e_g) chi(w_g) prod_{p in P} (1 - conj chi(u_p)).
chi(w_g) is a root of unity, so this vanishes exactly when chi(u_p) = 1 for
some p in P, a condition that does not depend on g.  So chi annihilates
every stratum sum it factors through exactly when it factors through no
stratum modulus or some chi(u_p) = 1.  A stratum sum that is 0 in the group
ring needs no special case: every chi factoring through its modulus sends
it to 0, so that chi has some chi(u_p) = 1.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple

from .errors import DomainError, ResourceLimitError
# unused here, but perfbench's tracer self-test asserts this binding exists
from .cyclotomic import cyclotomic_poly
from .necklace import fast_xn1_divides
from .numtheory import (_element_of_order, euler_phi, factorize,
                        squarefree_divisors)

PHI_CAP = 10**6


class UnitGroup(NamedTuple):
    """Cyclic decomposition of the units mod n with a full dlog table.

    Generator orders are prime powers; their product is phi(n).  ``dlog``
    maps every unit residue to its exponent vector over the generators, in
    the order of ``itertools.product`` over the orders.
    """

    modulus: int
    generators: tuple[tuple[int, int], ...]
    dlog: Mapping[int, tuple[int, ...]]
    exponent: int

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for _, o in self.generators)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    def dlog_of(self, q: int) -> tuple[int, ...]:
        r = q % self.modulus
        try:
            return self.dlog[r]
        except KeyError:
            raise DomainError(f"{q} is not a unit mod {self.modulus}") from None


class _CharacterFields(NamedTuple):
    group: UnitGroup
    exponents: tuple[int, ...]


class Character(_CharacterFields):
    """Exponent vector against the generator decomposition of a UnitGroup."""

    __slots__ = ()

    def __new__(cls, group: UnitGroup, exponents: tuple[int, ...]):
        orders = group.orders
        if len(exponents) != len(orders) or any(
                not 0 <= e < o for e, o in zip(exponents, orders)):
            raise DomainError("character exponents out of range")
        return super().__new__(cls, group, exponents)

    def angle(self, q: int) -> Fraction:
        """chi(q) as an exact angle in [0, 1): chi(q) = e^(2*pi*i*angle)."""
        group = self.group
        num = self._angle_numerator(group.dlog_of(q))
        return Fraction(num, group.exponent)

    def _angle_numerator(self, dlog_vec: tuple[int, ...]) -> int:
        group = self.group
        L = group.exponent
        total = 0
        for e, x, o in zip(self.exponents, dlog_vec, group.orders):
            total += e * x * (L // o)
        return total % L

    def value_is_one(self, q: int) -> bool:
        """Membership of chi in the hyperplane of q: chi(q) = 1."""
        return self._angle_numerator(self.group.dlog_of(q)) == 0


def _primitive_root_mod_pk(p: int, k: int) -> int:
    """The least primitive root mod the odd prime p, lifted to mod p**k."""
    g = _element_of_order(p - 1, p)
    if k == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _times_powers(residues: Iterator[int], g: int, order: int,
                  n: int) -> Iterator[int]:
    """r * g**j mod n for each r of residues and j < order, j fastest."""
    powers = [1]
    for _ in range(order - 1):
        powers.append(powers[-1] * g % n)
    for r in residues:
        for x in powers:
            yield r * x % n


@lru_cache(maxsize=None)
def unit_group(n: int) -> UnitGroup:
    """Structure of the unit group mod n as prime-power cyclic factors.

    Odd prime powers contribute a primitive root, split into prime-power
    pieces; 2**k with k >= 3 contributes -1 and 5.  The dlog table is built
    by brute-force enumeration, which is why phi(n) is capped: one pass pairs
    the residues, made lazily, with ``itertools.product`` over the orders.
    """
    if n < 1:
        raise DomainError("modulus must be >= 1")
    phi = euler_phi(n)
    if phi > PHI_CAP:
        raise ResourceLimitError(
            f"phi({n}) = {phi} exceeds the dlog enumeration cap {PHI_CAP}")
    if n <= 2:
        unit = 0 if n == 1 else 1
        return UnitGroup(modulus=n, generators=(), dlog={unit: ()}, exponent=1)
    gens: list[tuple[int, int]] = []
    for p, k in factorize(n).factors:
        q = p**k
        rest = n // q
        inv = pow(rest, -1, q) if q > 1 else 0

        def lift(residue: int) -> int:
            # CRT: residue mod q, 1 mod n/q
            return (1 + rest * ((residue - 1) * inv % q)) % n

        if p == 2:
            if k == 2:
                gens.append((lift(3), 2))
            elif k >= 3:
                gens.append((lift(q - 1), 2))
                gens.append((lift(5), 2**(k - 2)))
        else:
            g = _primitive_root_mod_pk(p, k)
            order = (p - 1) * p**(k - 1)
            for r, a in factorize(order).factors:
                piece = r**a
                gens.append((lift(pow(g, order // piece, q)), piece))
    exponent = math.lcm(*(o for _, o in gens)) if gens else 1
    residues: Iterator[int] = iter((1,))
    for g, order in gens:
        residues = _times_powers(residues, g, order, n)
    table = dict(zip(residues, itertools.product(*(range(o) for _, o in gens))))
    if len(table) != phi:  # pragma: no cover - structural self-check
        raise AssertionError(f"unit group mod {n}: enumerated {len(table)} "
                             f"of {phi} residues")
    return UnitGroup(modulus=n, generators=tuple(gens), dlog=table,
                     exponent=exponent)


class CoverCertificate(NamedTuple):
    """Re-checkable record of a hyperplane-cover decision.

    One witness entry per character: a usable prime p with chi(p) = 1, or
    None.  A character without a witness is harmless exactly when it lies in
    an entangled prime's hyperplane or factors through no stratum modulus
    (see the module docstring); the first character that is neither is
    recorded as ``failing_character``.
    """

    d: int
    n: int
    usable_primes: tuple[int, ...]
    covered: bool
    witnesses: tuple[tuple[tuple[int, ...], int | None], ...]
    failing_character: tuple[int, ...] | None

    def lazy_json_dict(self) -> dict:
        """The certificate's JSON object, with tuples for arrays and the
        witness entries as a one-pass iterator, so that a writer can render
        them one at a time."""
        return {
            "d": str(self.d),
            "n": self.n,
            "usable_primes": self.usable_primes,
            "covered": self.covered,
            "witnesses": ({"chi": chi, "p": p} for chi, p in self.witnesses),
            "failing_character": self.failing_character,
        }


def _entangled_hyperplanes(d: int, n: int) -> tuple[list[int], set[int]]:
    """The lifts u_p of the entangled primes, and the stratum moduli.

    For each p | d with v_p(d) > v_p(n) >= 1, the unit u_p mod n with
    u_p = p mod n/p**v_p(n) and u_p = 1 mod p**v_p(n); and the set of
    moduli n/gcd(D/e, n) over the squarefree e | D, where D is the part of d
    on the primes dividing n (see the module docstring).
    """
    D = 1
    lifts = []
    for p, k in factorize(d).factors:
        if n % p == 0:
            D *= p**k
            q = math.gcd(n, p**k)
            if q < p**k:  # v_p(d) > v_p(n), and q = p**v_p(n)
                rest = n // q
                lifts.append(p + rest * ((1 - p) * pow(rest, -1, q) % q))
    moduli = {n // math.gcd(D // e, n) for e, _ in squarefree_divisors(D)}
    return lifts, moduli


def _angle_table(group: UnitGroup, q: int) -> list[int]:
    """Flat table of the angle numerators of chi(q) over all characters.

    The order is the ``itertools.product`` order of ``UnitGroup.dlog``: one
    list comprehension per generator, the last generator varying fastest.
    """
    L = group.exponent
    table = [0]
    for x, o in zip(group.dlog_of(q), group.orders):
        steps = [e * x * (L // o) % L for e in range(o)]
        table = [(a + s) % L for a in table for s in steps]
    return table


def covers(d: int, n: int) -> CoverCertificate:
    """Decide x**n - 1 | M_d by hyperplane covers in the character group.

    For each usable prime p one flat table holds the angle numerator of
    chi(p) for every character (``_angle_table``); the witness of a
    character is the first usable p whose angle there is 0.  If some
    character has no witness, the lifts u_p of the entangled primes mark
    more characters harmless the same way, and a Character object is built
    only for a character still unmarked, to test whether it factors through
    a stratum modulus (see the module docstring for the proof).  The
    ``covered`` verdict always matches ``fast_xn1_divides(d, n)``; the
    certificate carries one witness (or None) per character and is
    independently re-checkable.  Its exponent vectors are the dlog table's
    own tuples, in the ``itertools.product`` order of ``UnitGroup.dlog``.
    """
    if d < 1 or n < 1:
        raise DomainError("covers needs d, n >= 1")
    usable = tuple(p for p in factorize(d).primes if n % p != 0)
    group = unit_group(n)
    found: list[int | None] = [None] * group.order
    for p in reversed(usable):  # so that the first usable prime wins
        found = [p if a == 0 else w
                 for a, w in zip(_angle_table(group, p), found)]
    vectors = group.dlog.values()  # in itertools.product order, shared
    failing: tuple[int, ...] | None = None
    if None in found:
        lifts, moduli = _entangled_hyperplanes(d, n)
        harmless = [w is not None for w in found]
        for u in lifts:
            harmless = [h or a == 0
                        for a, h in zip(_angle_table(group, u), harmless)]
        # kernel of reduction U_n -> U_m per modulus, for factor-through tests
        kernels = [tuple(u for u in group.dlog if u % m == 1 % m)
                   for m in moduli]
        for exponents, ok in zip(vectors, harmless):
            if ok:
                continue
            chi = Character(group, exponents)
            if any(all(chi.value_is_one(u) for u in kernel)
                   for kernel in kernels):
                failing = exponents
                break
    return CoverCertificate(
        d=d, n=n, usable_primes=usable, covered=failing is None,
        witnesses=tuple(zip(vectors, found)), failing_character=failing)


def equivalence_sweep(d_max: int, n_max: int) -> list[tuple[int, int]]:
    """Every (d, n) on the grid where the cover and necklace criteria differ.

    Both directions of the equivalence say this is empty; the sweep is the
    executable form of that claim.
    """
    if d_max < 1 or n_max < 1:
        raise DomainError("sweep bounds must be >= 1")
    disagreements = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            if covers(d, n).covered != fast_xn1_divides(d, n):
                disagreements.append((d, n))
    return disagreements
