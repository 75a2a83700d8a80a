"""Differential tests against sympy on seeded inputs: the ring protocol,
``resultant`` over Q, F_p and Q[a], whose zero test must agree with the
degree of sympy's gcd, ``factorize``/``euler_phi``/``is_prime`` against
``factorint``/``totient``/``isprime``, and ``cyclotomic_poly``.

Q[a] elements are compared as sympy expressions in ``a``; polynomials over
Q[a] as expressions in ``x`` and ``a``.  Skipped when sympy is absent.
"""

import random
from fractions import Fraction

import pytest

from dynlab.cyclotomic import cyclotomic_poly
from dynlab.errors import ExactDivisionError
from dynlab.numtheory import INPUT_BIT_CAP, euler_phi, factorize, is_prime
from dynlab.polycore import (QA, QQ, CoefficientRing, Polynomial,
                             PrimeField, resultant)

sympy = pytest.importorskip("sympy")
x, a = sympy.symbols("x a")


def rand_qa(rng, max_len=4, integral=False):
    dens = (1,) if integral else (1, 1, 2, 3, 5)
    cs = [Fraction(rng.randint(-9, 9), rng.choice(dens))
          for _ in range(rng.randint(0, max_len))]
    return QA.coerce(tuple(cs))


def qa_expr(u):
    return sum((sympy.Rational(c.numerator, c.denominator) * a**i
                for i, c in enumerate(u)), sympy.Integer(0))


def expr_qa(expr):
    coeffs = sympy.Poly(sympy.expand(expr), a, domain="QQ").all_coeffs()
    return QA.coerce(tuple(Fraction(int(c.p), int(c.q))
                           for c in reversed(coeffs)))


def poly_expr(poly):
    if poly.ring is QA:
        return sum((qa_expr(c) * x**k for k, c in enumerate(poly.coeffs)),
                   sympy.Integer(0))
    return sum((c * x**k for k, c in enumerate(poly.coeffs)), sympy.Integer(0))


def sympy_resultant(f, g, **opts):
    """sympy.resultant with the higher degree first, sign fixed up here.

    sympy 1.14 drops the sign (-1)**(deg f * deg g) when deg f < deg g:
    resultant(x + 2, x**3 + 1, x) gives 7, while lc(f)**3 * g(-2) = -7 and
    sympy's own Sylvester determinant agree on -7.
    """
    fe, ge = poly_expr(f), poly_expr(g)
    if f.degree < g.degree:
        sign = (-1)**(f.degree * g.degree)
        return sign * sympy.resultant(ge, fe, x, **opts)
    return sympy.resultant(fe, ge, x, **opts)


def rand_qa_poly(rng, degree):
    cs = [rand_qa(rng, 3) for _ in range(degree)]
    lead = ()
    while not lead:
        lead = rand_qa(rng, 2)
    return Polynomial(QA, cs + [lead])


def rand_fp_poly(rng, field, degree):
    cs = [rng.randrange(field.p) for _ in range(degree)]
    return Polynomial(field, cs + [rng.randrange(1, field.p)])


def test_qa_mul():
    rng = random.Random(101)
    for _ in range(200):
        u, v = rand_qa(rng), rand_qa(rng)
        assert QA.mul(u, v) == expr_qa(qa_expr(u) * qa_expr(v))


@pytest.mark.parametrize("kind", ["monic_integer", "fractional"])
def test_qa_exact_div(kind):
    rng = random.Random(202)
    for _ in range(150):
        integral = kind == "monic_integer"
        w = rand_qa(rng, 4, integral=integral)
        v = ()
        while len(v) < 2:
            v = rand_qa(rng, 3, integral=integral)
        if integral:
            v = v[:-1] + (Fraction(1),)
        u = expr_qa(qa_expr(w) * qa_expr(v))
        quot, rem = sympy.div(qa_expr(u), qa_expr(v), a)
        assert rem == 0
        assert QA.exact_div(u, v) == expr_qa(quot) == w


def test_qa_exact_div_inexact_raises():
    rng = random.Random(303)
    checked = 0
    while checked < 100:
        u, v = rand_qa(rng, 5), rand_qa(rng, 3)
        if len(v) < 2 or sympy.rem(qa_expr(u), qa_expr(v), a) == 0:
            continue
        with pytest.raises(ExactDivisionError):
            QA.exact_div(u, v)
        checked += 1


def test_qa_pow():
    rng = random.Random(404)
    for _ in range(60):
        u = rand_qa(rng, 3)
        k = rng.randint(0, 6)
        assert QA.pow(u, k) == expr_qa(qa_expr(u)**k)


@pytest.mark.parametrize("p", [2, 7, 101, 2147483647])
def test_prime_field_pow(p):
    rng = random.Random(505 + p)
    field = PrimeField(p)
    for _ in range(100):
        u, k = rng.randrange(p), rng.randint(0, 40)
        expected = int(sympy.Integer(u)**k % p)
        assert field.pow(u, k) == expected
        # the generic square-and-multiply agrees with three-argument pow
        assert CoefficientRing.pow(field, u, k) == expected


@pytest.mark.parametrize("p", [7, 101])
def test_prime_field_resultant_and_gcd(p):
    rng = random.Random(606 + p)
    field = PrimeField(p)
    for _ in range(80):
        f = rand_fp_poly(rng, field, rng.randint(0, 5))
        g = rand_fp_poly(rng, field, rng.randint(0, 5))
        if rng.random() < 0.4:  # plant a common factor
            h = rand_fp_poly(rng, field, rng.randint(1, 2))
            f, g = f * h, g * h
        fe, ge = poly_expr(f), poly_expr(g)
        expected = sympy_resultant(f, g, modulus=p)
        assert resultant(f, g) == int(expected) % p
        sym_gcd = sympy.gcd(sympy.Poly(fe, x, modulus=p),
                            sympy.Poly(ge, x, modulus=p))
        assert (not resultant(f, g)) == (sym_gcd.degree() > 0)


def rand_q_poly(rng, degree):
    cs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))
          for _ in range(degree + 1)]
    while not cs[-1]:
        cs[-1] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
    return Polynomial(QQ, cs)


def test_q_resultant_and_gcd():
    # the relation quotient route certifies coprimality by a nonzero
    # resultant over Q, so pairs with a planted common factor must give 0
    rng = random.Random(808)
    planted = 0
    for _ in range(80):
        f = rand_q_poly(rng, rng.randint(0, 6))
        g = rand_q_poly(rng, rng.randint(0, 6))
        if rng.random() < 0.4:
            h = rand_q_poly(rng, rng.randint(1, 3))
            f, g = f * h, g * h
            planted += 1
        expected = sympy_resultant(f, g)
        assert resultant(f, g) == Fraction(int(expected.p), int(expected.q))
        sym_gcd = sympy.gcd(sympy.Poly(poly_expr(f), x),
                            sympy.Poly(poly_expr(g), x))
        assert (not resultant(f, g)) == (sym_gcd.degree() > 0)
    assert planted >= 20


def test_qa_resultant_and_gcd():
    rng = random.Random(707)
    for _ in range(25):
        f = rand_qa_poly(rng, rng.randint(1, 3))
        g = rand_qa_poly(rng, rng.randint(1, 3))
        if rng.random() < 0.5:  # plant a common factor
            h = rand_qa_poly(rng, 1)
            f, g = f * h, g * h
        assert resultant(f, g) == expr_qa(sympy_resultant(f, g))
        # by Gauss's lemma, f and g share a factor of positive x-degree
        # over Q(a) exactly when their gcd in Q[x, a] has one
        sym_gcd = sympy.gcd(poly_expr(f), poly_expr(g))
        assert (not resultant(f, g)) == (sympy.degree(sym_gcd, x) > 0)


def rand_factorable(rng):
    """A number up to the 128-bit cap whose prime factors are at most 24 bits,
    times, half the time, one prime cofactor of any size that still fits."""
    n = 1
    for _ in range(rng.randint(0, 6)):
        p = int(sympy.nextprime(rng.getrandbits(rng.choice((4, 8, 16, 24)))))
        factor = p**rng.randint(1, 3)
        if (n * factor).bit_length() > INPUT_BIT_CAP:
            break
        n *= factor
    room = INPUT_BIT_CAP - n.bit_length()
    if rng.random() < 0.5 and room > 2:
        n *= int(sympy.prevprime(1 << rng.randint(2, room)))
    return n


def test_factorize_and_euler_phi_against_sympy():
    rng = random.Random(808)
    inputs = list(range(1, 3001))
    inputs += [rand_factorable(rng) for _ in range(200)]
    inputs += [rng.randrange(1, 1 << 64) for _ in range(100)]
    inputs += [2**127 - 1, (2**61 - 1) * (2**31 - 1), (1 << INPUT_BIT_CAP) - 1]
    for n in inputs:
        assert n.bit_length() <= INPUT_BIT_CAP
        assert dict(factorize(n).factors) == sympy.factorint(n), n
        assert euler_phi(n) == sympy.totient(n), n


def test_is_prime_against_sympy():
    rng = random.Random(4090)
    inputs = []
    for _ in range(300):
        n = rng.getrandbits(rng.randint(40, 90)) | 1
        inputs += [n, int(sympy.nextprime(n))]
    for n in inputs:
        assert is_prime(n) == sympy.isprime(n), n


def test_cyclotomic_poly_against_sympy():
    # Every n up to 300, the largest-radical n up to 1500 and a seeded sample
    # of the rest (sympy builds each one from scratch: all of 1..1500 costs
    # about 15 s of sympy time).
    rng = random.Random(1500)
    inputs = list(range(1, 301))
    inputs += [210, 330, 390, 420, 462, 510, 546, 570, 630, 660, 690, 714,
               770, 798, 840, 858, 870, 910, 924, 930, 966, 990, 1001, 1020,
               1050, 1092, 1110, 1155, 1260, 1320, 1365, 1386, 1428, 1430,
               1470, 1485, 1496, 1500]
    inputs += rng.sample(range(301, 1501), 100)
    for n in inputs:
        coeffs = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()
        assert cyclotomic_poly(n).coeffs == tuple(
            Fraction(int(c)) for c in reversed(coeffs)), n
