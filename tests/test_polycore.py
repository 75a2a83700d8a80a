import random
from fractions import Fraction

import pytest

from conftest import sylvester_resultant
from dynlab.errors import DomainError, ExactDivisionError
from dynlab.dynatomic import fixed_point_identity
from dynlab.polycore import (QA, QQ, Polynomial, PrimeField, _iterates,
                             parse_polynomial, resultant)

X = Polynomial.x(QQ)


def rand_poly(rng, ring=QQ, max_deg=4, rational=True):
    deg = rng.randint(0, max_deg)
    if ring is QQ:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4) if rational else 1)
                  for _ in range(deg + 1)]
    elif ring is QA:
        coeffs = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3)))
                  for _ in range(deg + 1)]
    else:
        coeffs = [rng.randint(0, ring.p - 1) for _ in range(deg + 1)]
    return Polynomial(ring, coeffs)


class TestRingArithmetic:
    def test_addition_cancels_leading_terms(self):
        assert (X**2 - 1) + 1 == X**2
        assert ((X**3 + X) - (X**3)).degree == 1

    def test_product(self):
        assert (X - 1) * (X + 1) == X**2 - 1

    def test_scale_produces_necklace_shape(self):
        m6 = (X**6 - X**3 - X**2 + X).scale(Fraction(1, 6))
        assert m6.coeffs == (Fraction(0), Fraction(1, 6), Fraction(-1, 6),
                             Fraction(-1, 6), Fraction(0), Fraction(0),
                             Fraction(1, 6))

    def test_ring_mismatch_rejected(self):
        with pytest.raises(DomainError):
            X + Polynomial.x(QA)

    def test_degree_additivity_over_integral_domains(self):
        rng = random.Random(1)
        for ring in (QQ, QA, PrimeField(7)):
            for _ in range(50):
                p, q = rand_poly(rng, ring), rand_poly(rng, ring)
                if p.is_zero or q.is_zero:
                    continue
                assert (p * q).degree == p.degree + q.degree


def repeated_product(base, k):
    """Reference power: k plain products, no shortcut for one-term bases."""
    result = Polynomial.one(base.ring)
    for _ in range(k):
        result = result * base
    return result


class TestMonomialPower:
    RINGS = [QQ, PrimeField(7), PrimeField(2**61 - 1), QA]
    COEFFS = {"Q": [1, -1, Fraction(-3, 2), 0],
              "Fp": [1, 3, -1, 0],
              "Qa": [1, (Fraction(1, 2), 1), (0, -3), QA.param, ()]}

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_one_term_power_matches_repeated_product(self, ring):
        for c in self.COEFFS[ring.tag]:
            for degree in (0, 1, 3):
                p = Polynomial.monomial(ring, degree, c)
                for k in (0, 1, 2, 5, 12):
                    assert p**k == repeated_product(p, k), (c, degree, k)

    def test_monomial_canonical_form(self):
        assert Polynomial.monomial(QQ, 3, 0).is_zero
        assert Polynomial.monomial(QA, 2, ()).is_zero
        assert Polynomial.monomial(PrimeField(5), 2, 10).is_zero
        for ring in self.RINGS:
            m = Polynomial.monomial(ring, 4, 2)
            assert m == Polynomial(ring, [0, 0, 0, 0, 2])

    def test_addition_with_zero_entries(self):
        rng = random.Random(17)
        for ring in self.RINGS:
            for _ in range(50):
                p, q = rand_poly(rng, ring, 6), rand_poly(rng, ring, 6)
                n = max(len(p.coeffs), len(q.coeffs))
                expected = [ring.add(p.coeff(i), q.coeff(i)) for i in range(n)]
                assert p + q == Polynomial(ring, expected)


class TestEvaluationAndComposition:
    def test_evaluate_examples(self):
        assert (X**2 + X - 5).evaluate(3) == 7
        assert (X**7 + 42).evaluate(0) == 42
        m6 = (X**6 - X**3 - X**2 + X).scale(Fraction(1, 6))
        assert m6.evaluate(1) == 0

    def test_compose_examples(self):
        q = X**2 + 1
        assert Polynomial.x(QQ).compose(q) == q
        assert q.compose(Polynomial.x(QQ)) == q
        assert q.compose(q) == X**4 + 2 * X**2 + 2
        assert (X**2).compose(X**3) == X**6

    def test_compose_associative(self):
        rng = random.Random(7)
        for _ in range(40):
            p, q, r = (rand_poly(rng, max_deg=3) for _ in range(3))
            assert p.compose(q).compose(r) == p.compose(q.compose(r))

    def test_iterate(self):
        assert (X**2).iterate(3) == X**8
        assert (X**5 - 3).iterate(0) == X
        assert (X**2 + 1).iterate(2) == X**4 + 2 * X**2 + 2

    def test_iterates_compose_no_further_than_needed(self, monkeypatch):
        calls = []
        compose = Polynomial.compose
        monkeypatch.setattr(Polynomial, "compose",
                            lambda p, q: calls.append(1) or compose(p, q))
        f = X**2 + 1
        assert f.iterate(5) == f.compose(f.iterate(4))
        assert len(calls) == 5 + 1 + 4
        calls.clear()
        table = _iterates(f, {2, 5})
        assert sorted(table) == [0, 2, 5] and len(calls) == 5

    @pytest.mark.parametrize("ring", [QQ, PrimeField(5), QA])
    def test_iterates_reduced_mod_a_modulus(self, ring):
        f = Polynomial(ring, (1, 2, 1, 1))
        for modulus in (Polynomial(ring, (3, 1)), Polynomial(ring, (1, 0, 1, 0, 1))):
            table = _iterates(f, range(5), modulus)
            assert table == {k: f.iterate(k) % modulus for k in range(5)}

    def test_derivative_examples(self):
        assert (X**8 - X**2).derivative() == 8 * X**7 - 2 * X
        f5 = PrimeField(5)
        poly = Polynomial(f5, [0, 2, 0, 0, 0, 1])  # x^5 + 2x
        assert poly.derivative() == Polynomial.constant(f5, 2)


class TestTruthValue:
    @pytest.mark.parametrize("ring", [QQ, PrimeField(7), QA])
    def test_falsy_exactly_when_zero(self, ring):
        zero, one = Polynomial.zero(ring), Polynomial.one(ring)
        x = Polynomial.x(ring)
        assert not zero and not bool(x - x)
        assert one and x and -x and bool(x + 1)
        assert not any([zero, x - x]) and any([zero, x])
        # the remainders of exact divisions
        assert not any(divmod(x**3 - x, d)[1] for d in (x, x + 1, x - 1))
        assert any(divmod(x**2 + 2, d)[1] for d in (x, x + 1))


class TestDivision:
    def test_div_exact_examples(self):
        assert (X**4 - X).div_exact(X**2 - X) == X**2 + X + 1
        p = X**3 + 2 * X - 7
        assert p.div_exact(p) == Polynomial.one(QQ)
        assert (X**6 - 1).div_exact(X**2 - X + 1) == X**4 + X**3 - X - 1

    def test_div_exact_failure_carries_remainder(self):
        with pytest.raises(ExactDivisionError) as err:
            (X**2 + 1).div_exact(X - 1)
        assert err.value.remainder == Polynomial.constant(QQ, 2)

    def test_euclidean_reconstruction(self):
        rng = random.Random(13)
        for ring in (QQ, PrimeField(11)):
            for _ in range(200):
                p, q = rand_poly(rng, ring, 6), rand_poly(rng, ring, 4)
                if q.is_zero:
                    continue
                quot, rem = divmod(p, q)
                assert quot * q + rem == p
                assert rem.degree < q.degree

    def test_rem_example(self):
        _, rem = divmod(X**5, X**2 - 1)
        assert rem == X

    def test_exact_division_roundtrip_per_ring(self):
        rng = random.Random(99)
        for ring in (QQ, QA, PrimeField(13)):
            for _ in range(1000):
                a, b = rand_poly(rng, ring, 3), rand_poly(rng, ring, 3)
                if b.is_zero:
                    continue
                assert (a * b).div_exact(b) == a

    def test_param_ring_division_needs_exact_leading_coeff(self):
        a_poly = Polynomial.constant(QA, QA.param)
        with pytest.raises(ExactDivisionError):
            # dividing x by (a*x) forces 1/a, which leaves Q[a]
            Polynomial.x(QA).div_exact(a_poly * Polynomial.x(QA))


class TestResultant:
    def test_examples(self):
        assert resultant(X - 2, X**2 - 1) == 3
        assert resultant(X**2 + X + 1, X**2 + X + 2) == 1
        shared = (X - 3) * (X + 1)
        other = (X - 3) * (X - 5)
        assert resultant(shared, other) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DomainError):
            resultant(Polynomial.zero(QQ), X)

    def test_matches_sylvester_determinant(self):
        rng = random.Random(31415)
        for _ in range(250):
            p = rand_poly(rng, QQ, 6)
            q = rand_poly(rng, QQ, 6)
            if p.degree < 1 or q.degree < 1:
                continue
            assert resultant(p, q) == sylvester_resultant(p, q)

    def test_matches_sylvester_mod_p(self):
        rng = random.Random(27)
        for _ in range(150):
            p_mod = rng.choice([5, 7, 13])
            ring = PrimeField(p_mod)
            p, q = rand_poly(rng, ring, 5), rand_poly(rng, ring, 5)
            if p.degree < 1 or q.degree < 1:
                continue
            lifted_p = Polynomial(QQ, p.coeffs)
            lifted_q = Polynomial(QQ, q.coeffs)
            expected = int(sylvester_resultant(lifted_p, lifted_q)) % p_mod
            assert resultant(p, q) == expected

    def test_swap_sign_and_multiplicativity(self):
        rng = random.Random(161)
        for _ in range(120):
            p, q, r = (rand_poly(rng, QQ, 4) for _ in range(3))
            if min(p.degree, q.degree, r.degree) < 1:
                continue
            assert resultant(p, q) == (-1)**(p.degree * q.degree) * resultant(q, p)
            assert resultant(p, q * r) == resultant(p, q) * resultant(p, r)

    def test_param_ring_resultant_specializes(self):
        fa = parse_polynomial("x^2 + a")
        xa = Polynomial.x(QA)
        phi1 = fa - xa
        phi2 = fa + xa + 1
        res = resultant(phi1, phi2)
        assert res == QA.coerce("4*a + 3")
        for val in (Fraction(0), Fraction(-1), Fraction(5, 3)):
            specialized = resultant(phi1.specialize(val), phi2.specialize(val))
            assert specialized == Fraction(4) * val + 3


class TestParamRing:
    def test_specialization_is_a_homomorphism(self):
        rng = random.Random(555)
        for _ in range(200):
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            p, q = rand_poly(rng, QA, 3), rand_poly(rng, QA, 3)
            assert (p * q).specialize(value) == p.specialize(value) * q.specialize(value)
            assert (p + q).specialize(value) == p.specialize(value) + q.specialize(value)
            assert p.compose(q).specialize(value) == \
                p.specialize(value).compose(q.specialize(value))

    def test_lift_and_specialize_roundtrip(self):
        p = X**3 - 2 * X + Polynomial.constant(QQ, Fraction(1, 2))
        lifted = Polynomial(QA, [(c,) if c else () for c in p.coeffs])
        assert lifted.specialize(7) == p


class TestTextAndJson:
    def test_parse_examples(self):
        assert parse_polynomial("x^2 + x - 5") == X**2 + X - 5
        assert parse_polynomial("1/6*x^6 - 1/6*x^3") == \
            (X**6 - X**3).scale(Fraction(1, 6))
        assert parse_polynomial("(x - 1)*(x + 1)") == X**2 - 1
        fa = parse_polynomial("x^2+a")
        assert fa.ring is QA

    def test_parse_rejects_garbage(self):
        for bad in ("x +", "x^-2", "x^y", "2//3", "(x", "x$"):
            with pytest.raises(DomainError):
                parse_polynomial(bad)

    def test_parse_ring_mismatch(self):
        with pytest.raises(DomainError):
            parse_polynomial("x + a", QQ)

    def test_roundtrip_fuzz(self):
        rng = random.Random(4242)
        for ring in (QQ, QA):
            for _ in range(200):
                p = rand_poly(rng, ring, 5)
                assert parse_polynomial(p.to_text(), ring) == p

    def test_json_roundtrip(self):
        rng = random.Random(777)
        for ring in (QQ, QA, PrimeField(11)):
            for _ in range(100):
                p = rand_poly(rng, ring, 5)
                assert Polynomial.from_json_dict(p.to_json_dict()) == p

    def test_zero_denominator_is_domain_error(self):
        for ring in (QQ, QA):
            with pytest.raises(DomainError):
                ring.coerce("1/0")
            with pytest.raises(DomainError):
                Polynomial.from_json_dict({"ring": ring.tag, "coeffs": ["1/0"]})

    @pytest.mark.parametrize("text,expected", [
        ("2*-x^2", -2 * X**2),
        ("x^2*-1", -X**2),
        ("2*-x^2*3", -6 * X**2),
        ("2*--x", 2 * X),
        ("2*-(x+1)^2", -2 * (X + 1)**2),
        ("-x^2*+3 - -x", -3 * X**2 + X),
    ])
    def test_sign_after_star_negates_the_power(self, text, expected):
        assert parse_polynomial(text) == expected

    def test_long_product_parses(self):
        assert parse_polynomial("*".join(["x"] * 2000)) == X**2000

    def test_nesting_depth_bound(self):
        assert parse_polynomial("(" * 100 + "x^2" + ")" * 100) == X**2
        for depth in (101, 1200, 100000):
            with pytest.raises(DomainError, match="nested deeper than 100"):
                parse_polynomial("(" * depth + "x^2" + ")" * depth)

    def test_json_shape(self):
        data = parse_polynomial("x^2+a").to_json_dict()
        assert data == {"ring": "Qa", "coeffs": ["a", "0", "1"]}
        data_fp = Polynomial(PrimeField(5), [1, 2]).to_json_dict()
        assert data_fp == {"ring": "Fp", "p": 5, "coeffs": ["1", "2"]}


# Refusals: (call, exception, message fragment).  The rational reads refuse
# floats, zero denominators and every string form but [+-]digits[/digits]
# instead of reading them some other way.
REFUSALS = [
    *(pytest.param(lambda text=text: QQ.coerce(text), DomainError,
                   "cannot interpret", id=f"Q-string-{name}")
      for name, text in (("decimal", "1.5"), ("exponent", "1e3"),
                         ("underscore", "1_000"), ("spaces", " 7 "),
                         ("newline", "7\n"), ("arabic-digit", "\u0663"),
                         ("signed-den", "3/-4"))),
    pytest.param(lambda: PrimeField(7).coerce("1.5"),
                 DomainError, "cannot interpret", id="Fp-decimal"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Q", "coeffs": ["1e2000000"]}),
                 DomainError, "cannot interpret", id="json-exponent"),
    pytest.param(lambda: Polynomial(QA, [(0.1,)]),
                 DomainError, "cannot interpret 0.1", id="Qa-float"),
    pytest.param(lambda: PrimeField(7).coerce("1/0"),
                 DomainError, "zero denominator", id="Fp-zero-den"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Fp", "p": 7, "coeffs": ["1/0"]}),
                 DomainError, "zero denominator", id="Fp-json-zero-den"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Q", "coeffs": "12"}),
                 DomainError, "coeffs must be a list", id="json-coeffs-string"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Fp", "coeffs": ["1"]}),
                 DomainError, "needs its prime p", id="Fp-json-no-p"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Fp", "p": 7.9, "coeffs": ["1"]}),
                 DomainError, "needs its prime p", id="Fp-json-float-p"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Fp", "p": "abc", "coeffs": ["1"]}),
                 DomainError, "needs its prime p", id="Fp-json-string-p"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Fp", "p": True, "coeffs": ["1"]}),
                 DomainError, "needs its prime p", id="Fp-json-bool-p"),
    pytest.param(lambda: Polynomial.from_json_dict(
                     {"ring": "Q", "coeffs": ["1", True]}),
                 DomainError, "must not be a bool", id="json-bool-coeff"),
    pytest.param(lambda: parse_polynomial("x^2+a").specialize(0.1),
                 DomainError, "cannot interpret 0.1", id="specialize-float"),
    pytest.param(lambda: fixed_point_identity(X**2, 1.0, 3),
                 DomainError, "cannot interpret 1.0", id="fixed_point-float"),
    pytest.param(lambda: parse_polynomial("(x+1"),
                 DomainError, "unexpected end", id="parse-end"),
    pytest.param(lambda: parse_polynomial("(x+1 x"),
                 DomainError, "unbalanced parentheses", id="parse-unbalanced"),
    pytest.param(lambda: parse_polynomial("x+1)"),
                 DomainError, "trailing tokens", id="parse-close"),
    pytest.param(lambda: parse_polynomial("2 x"),
                 DomainError, "trailing tokens", id="parse-juxtaposed"),
]


@pytest.mark.parametrize("call,exc,fragment", REFUSALS)
def test_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
