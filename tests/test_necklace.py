from fractions import Fraction

import pytest

from conftest import (dense_fold, dense_fold_divisible,
                      dense_necklace_int_coeffs, factored_necklace_fold,
                      fold_index, fold_inverse)
from dynlab.dynatomic import _reduce_index
from dynlab.errors import DomainError, ResourceLimitError
from dynlab.necklace import dynamical_necklace, fast_xn1_divides, necklace_poly
from dynlab.numtheory import core_and_cocore
from dynlab.polycore import QQ, Polynomial, PrimeField, parse_polynomial

X = Polynomial.x(QQ)


class TestNecklacePolynomial:
    def test_first_necklace_is_x(self):
        assert necklace_poly(1) == X

    def test_degree_six(self):
        assert necklace_poly(6) == (X**6 - X**3 - X**2 + X).scale(Fraction(1, 6))

    def test_degree_105_sparse_support(self):
        expected = (X**105 - X**35 - X**21 - X**15
                    + X**7 + X**5 + X**3 - X).scale(Fraction(1, 105))
        assert necklace_poly(105) == expected

    def test_degree_and_valuation_laws(self):
        for d in range(1, 10_001, 7):
            poly = necklace_poly(d)
            assert poly.degree == d
            assert poly.x_valuation == core_and_cocore(d)[1]

    def test_valuation_law_dense_initial_range(self):
        for d in range(1, 1500):
            assert necklace_poly(d).x_valuation == core_and_cocore(d)[1]

    def test_matches_dense_oracle(self):
        zero = Fraction(0)
        for d in range(1, 2001):
            coeffs = necklace_poly(d).coeffs
            assert all(type(c) is Fraction for c in coeffs), d
            assert coeffs == tuple(Fraction(c, d) if c else zero
                                   for c in dense_necklace_int_coeffs(d)), d

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            necklace_poly(0)


class TestPsiQuotient:
    """The paper's bracket identities in the (m, n) quotient, where [k] is
    x**k folded modulo x**m * (x**n - 1), checked on the conftest oracles."""

    def test_reduce_examples(self):
        assert dense_fold_divisible(dense_necklace_int_coeffs(6), 2, 0)
        assert dense_fold_divisible(dense_necklace_int_coeffs(4), 2, 2)
        for m, n in ((0, 2), (1, 1), (3, 4)):
            assert dense_fold([0, 1], n, m) == [0, 1] + [0] * (m + n - 2)

    def test_zero_index_folds_at_m_zero(self):
        # [6] + [2] in the (0, 2) quotient is 2[0]
        assert dense_fold([0, 0, 1, 0, 0, 0, 1], 2, 0) == [2, 0]

    def test_representative_window(self):
        for k in range(40):
            r = _reduce_index(2, 3, k)
            assert 0 <= r < 5
            if k < 5:
                assert r == k
            else:
                assert r >= 2 and (r - k) % 3 == 0

    def test_bracket_inverse(self):
        assert fold_index(3 * fold_inverse(3, 4, 0), 4, 0) == 1
        with pytest.raises(ArithmeticError):
            fold_inverse(2, 2, 2)
        with pytest.raises(ArithmeticError):
            fold_inverse(2, 4, 0)

    def test_factored_operator_matches_mobius_sum(self):
        # [d] * prod (1 - [p]^{-1}) equals the alternating bracket sum in
        # quotients where every prime class is invertible
        cases = [(6, 0, 7), (6, 0, 11), (10, 0, 7), (105, 0, 4),
                 (105, 1, 8), (30, 1, 7), (12, 0, 7)]
        for d, m, n in cases:
            assert factored_necklace_fold(d, n, m) == \
                dense_fold(dense_necklace_int_coeffs(d), n, m), (d, m, n)


class TestVanishing:
    def test_spec_triples(self):
        assert dense_fold_divisible(dense_necklace_int_coeffs(6), 2, 0)
        assert not dense_fold_divisible(dense_necklace_int_coeffs(6), 2, 2)
        assert dense_fold_divisible(dense_necklace_int_coeffs(4), 2, 2)

    def test_vanishing_iff_polynomial_divisibility(self):
        # both directions on the grid d <= 60, m <= 4, n <= 12
        for d in range(1, 61):
            coeffs = dense_necklace_int_coeffs(d)
            dmd = necklace_poly(d).scale(d)  # integer coefficients
            for m in range(0, 5):
                for n in range(1, 13):
                    modulus = Polynomial.monomial(QQ, m) * \
                        (Polynomial.monomial(QQ, n) - 1)
                    divisible = (dmd % modulus).is_zero
                    assert dense_fold_divisible(coeffs, n, m) == divisible, \
                        (d, m, n)


class TestFastDivisibility:
    def test_spec_examples(self):
        assert fast_xn1_divides(105, 8)
        assert not fast_xn1_divides(6, 4)
        for d in range(2, 40):
            assert fast_xn1_divides(d, 1)
        assert not fast_xn1_divides(1, 1)

    def test_agrees_with_dense_fold_on_full_grid(self):
        for d in range(1, 301):
            coeffs = dense_necklace_int_coeffs(d)
            for n in range(1, 301):
                assert fast_xn1_divides(d, n) == dense_fold_divisible(coeffs, n), (d, n)

    def test_strata_pairs_where_naive_unit_reasoning_fails(self):
        # cocore collapse cases: the entangled part of d is non-squarefree
        for d, n in ((4, 2), (8, 2), (8, 4), (12, 4), (16, 8), (36, 4)):
            assert fast_xn1_divides(d, n), (d, n)
        for d, n in ((4, 4), (2, 2), (6, 4), (8, 16)):
            assert not fast_xn1_divides(d, n), (d, n)


class TestDynamicalNecklace:
    def test_base_cases(self):
        f = X**2
        assert dynamical_necklace(f, 1) == f
        assert dynamical_necklace(f, 2) == (X**4 - X**2).scale(Fraction(1, 2))

    def test_divisibility_by_gap_polynomial(self):
        m2 = dynamical_necklace(X**2, 2)
        assert m2.div_exact(X**4 - X**2) == Polynomial.constant(QQ, Fraction(1, 2))

    def test_gap_divides_when_conditions_hold(self):
        fs = [X**2, X**2 + 1, X**3 - X + 1, parse_polynomial("x^2 + a")]
        for f in fs:
            # keep deg(f**d) and the parameter-degree growth desk-scale
            max_d = 5 if f.degree == 3 else (6 if f.ring.tag == "Qa" else 8)
            for d in range(1, max_d + 1):
                cocore = core_and_cocore(d)[1]
                mfd = dynamical_necklace(f, d)
                for m in range(0, 3):
                    for n in range(1, 4):
                        if cocore >= m and fast_xn1_divides(d, n):
                            gap = f.iterate(m + n) - f.iterate(m)
                            assert (mfd % gap).is_zero, (f, d, m, n)

    def test_char_p_rejected_when_not_invertible(self):
        f5 = PrimeField(5)
        f = Polynomial(f5, [0, 2, 0, 0, 0, 1])
        with pytest.raises(DomainError):
            dynamical_necklace(f, 10)
        assert dynamical_necklace(f, 2).degree == 25

    def test_degree_cap_refuses_before_building(self, monkeypatch):
        monkeypatch.setenv("DYNLAB_DEGREE_CAP", "16")
        assert dynamical_necklace(X**2, 4).degree == 16
        assert dynamical_necklace(X + 1, 40).degree <= 1  # never capped
        for f, d in ((X**2, 5), (X**3, 3), (X**2, 10**9)):
            with pytest.raises(ResourceLimitError, match="exceeds the cap 16"):
                dynamical_necklace(f, d)

    def test_counting_interpretation_small(self):
        # M_d(q) counts monic irreducibles of degree d over F_q (brute force
        # at tiny scale here; the acceptance suite covers d <= 6)
        def monic_polys(q, d):
            from itertools import product
            for tail in product(range(q), repeat=d):
                yield tail + (1,)

        def poly_mod(num, den, q):
            num = list(num)
            while len(num) >= len(den):
                c = num[-1]
                shift = len(num) - len(den)
                for i, dc in enumerate(den):
                    num[shift + i] = (num[shift + i] - c * dc) % q
                num.pop()
            while num and num[-1] == 0:
                num.pop()
            return num

        def is_irreducible(poly, q):
            d = len(poly) - 1
            for deg in range(1, d // 2 + 1):
                for den in monic_polys(q, deg):
                    if not poly_mod(poly, den, q):
                        return False
            return True

        for q in (2, 3):
            for d in range(1, 5):
                brute = sum(1 for f in monic_polys(q, d) if is_irreducible(f, q))
                assert necklace_poly(d).evaluate(q) == brute


# Refusals: (call, exception, message fragment)
REFUSALS = [
    pytest.param(lambda: fast_xn1_divides(0, 3),
                 DomainError, "fast_xn1_divides needs d, n >= 1",
                 id="fast_xn1_divides-d0"),
    pytest.param(lambda: dynamical_necklace(X**2, 0),
                 DomainError, "dynamical necklace index must be >= 1",
                 id="dynamical-d0"),
]


@pytest.mark.parametrize("call,exc,fragment", REFUSALS)
def test_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
