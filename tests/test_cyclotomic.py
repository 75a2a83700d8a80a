import math
import random
import threading
from array import array
from fractions import Fraction

import pytest

from conftest import xn1_divides
from dynlab import cyclotomic, numtheory
from dynlab.cyclotomic import (CycloFactorReport, _root_of_unity_mod_prime,
                               cyclo_factor_scan, cyclotomic_candidates,
                               cyclotomic_poly)
from dynlab.errors import DomainError
from dynlab.necklace import fast_xn1_divides, necklace_poly
from dynlab.numtheory import divisors, euler_phi, factorize, is_prime
from dynlab.polycore import QQ, Polynomial, PrimeField

X = Polynomial.x(QQ)

# The largest totient bound whose 2*D**2 candidate list the tests rebuild.
OLD_LIST_MAX_PHI = 1025


@pytest.fixture(scope="module")
def small_totients():
    """(k, phi(k)) for every k <= 2 * 1025**2 with phi(k) <= 1025, from a
    test-local sieve over that whole range."""
    n = 2 * OLD_LIST_MAX_PHI**2
    phi = array("q", range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            phi[p::p] = array("q", [v - v // p for v in phi[p::p]])
    return [(k, phi[k]) for k in range(1, n + 1) if phi[k] <= OLD_LIST_MAX_PHI]


def old_candidates(pairs, max_phi):
    """The candidate list as the scan used to build it: k <= 2*D**2."""
    assert max_phi <= OLD_LIST_MAX_PHI
    return [k for k, f in pairs if f <= max_phi and k <= 2 * max_phi**2]


def old_scan(pairs, p):
    """Test-local copy of the trial-division scan that the modular filter
    replaced: divide by every Phi_k with phi(k) <= the cofactor degree."""
    x_mult = p.x_valuation
    cofactor = Polynomial(QQ, p.coeffs[x_mult:])
    found = []
    for k in old_candidates(pairs, cofactor.degree):
        if cofactor.degree == 0:
            break
        if euler_phi(k) > cofactor.degree:
            continue
        phi_k = cyclotomic_poly(k)
        mult = 0
        quot, rem = divmod(cofactor, phi_k)
        while rem.is_zero:
            mult += 1
            cofactor = quot
            if cofactor.degree < phi_k.degree:
                break
            quot, rem = divmod(cofactor, phi_k)
        if mult:
            found.append((k, mult))
    return x_mult, tuple(found), cofactor


def assert_scan_matches_old(pairs, p):
    report = cyclo_factor_scan(p)
    x_mult, found, cofactor = old_scan(pairs, p)
    assert report.x_multiplicity == x_mult
    assert report.cyclo_indices == found
    assert report.cofactor == cofactor
    assert report.cofactor_degree == cofactor.degree


class TestCyclotomicPoly:
    def test_first_values(self):
        assert cyclotomic_poly(1) == X - 1
        assert cyclotomic_poly(2) == X + 1
        assert cyclotomic_poly(3) == X**2 + X + 1
        assert cyclotomic_poly(6) == X**2 - X + 1
        assert cyclotomic_poly(12) == X**4 - X**2 + 1

    def test_monic_integer_degree_phi(self):
        for n in range(1, 121):
            poly = cyclotomic_poly(n)
            assert poly.coeffs[-1] == 1
            assert poly.degree == euler_phi(n)
            assert all(c.denominator == 1 for c in poly.coeffs)

    def test_product_over_divisors_rebuilds_xn_minus_1(self):
        for n in range(1, 301):
            product = Polynomial.one(QQ)
            for m in divisors(n):
                product = product * cyclotomic_poly(m)
            assert product == Polynomial.monomial(QQ, n) - 1

    def test_value_at_zero(self):
        for n in range(2, 200):
            assert cyclotomic_poly(n).evaluate(0) == 1

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            cyclotomic_poly(0)

    def test_cache_is_thread_safe(self):
        errors = []

        def worker(lo):
            try:
                for n in range(lo, lo + 60):
                    poly = cyclotomic_poly(n)
                    if poly.degree != euler_phi(n):
                        errors.append(n)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(lo,))
                   for lo in (1, 20, 40, 1, 30)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestXn1Divides:
    def test_examples(self):
        assert xn1_divides(necklace_poly(105), 8)
        assert xn1_divides(necklace_poly(3), 2)
        assert xn1_divides(X**4 - 1, 4)
        assert not xn1_divides(X**4 - 1, 3)

    def test_n_equals_1_is_root_at_one(self):
        rng = random.Random(44)
        for _ in range(100):
            p = Polynomial(QQ, [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))])
            if p.is_zero:
                continue
            assert xn1_divides(p, 1) == (p.evaluate(1) == 0)

    def test_matches_long_division(self):
        rng = random.Random(45)
        for _ in range(150):
            p = Polynomial(QQ, [rng.randint(-4, 4) for _ in range(rng.randint(1, 12))])
            n = rng.randint(1, 6)
            if p.is_zero:
                continue
            modulus = Polynomial.monomial(QQ, n) - 1
            assert xn1_divides(p, n) == (p % modulus).is_zero

    def test_cross_module_consistency(self):
        for d in range(1, 121):
            md = necklace_poly(d)
            for n in range(1, 61):
                assert xn1_divides(md, n) == fast_xn1_divides(d, n), (d, n)


class TestCandidates:
    def test_bound_and_completeness(self):
        cands = list(cyclotomic_candidates(16))
        assert all(euler_phi(k) <= 16 for k in cands)
        brute = [k for k in range(1, 2 * 16 * 16 + 1) if euler_phi(k) <= 16]
        assert cands == brute

    def test_totient_lower_bound_justifies_cap(self):
        for k in range(1, 5000):
            assert euler_phi(k) >= math.isqrt(k // 2)

    def test_equals_old_quadratic_list(self, small_totients):
        for max_phi in list(range(1, 501)) + [1024, 1025]:
            assert (list(cyclotomic_candidates(max_phi))
                    == old_candidates(small_totients, max_phi)), max_phi

    @pytest.mark.parametrize("max_phi", [1, 16, 200, 1100])
    def test_values_are_totients(self, max_phi):
        # the scan reads phi(k) from these values
        cands = cyclotomic_candidates(max_phi)
        assert all(phi == euler_phi(k) for k, phi in cands.items())

    def test_nonpositive_bound(self):
        assert cyclotomic_candidates(0) == {}
        assert cyclotomic_candidates(-3) == {}


class TestRootOfUnity:
    def test_prime_and_exact_order(self):
        for k in range(1, 5001):
            q, w = _root_of_unity_mod_prime(k)
            assert (q - 1) % k == 0, k
            assert q < numtheory._MR_PROVEN_BELOW
            assert is_prime(q), k
            assert pow(w, k, q) == 1, k
            for p in factorize(k).primes:
                assert pow(w, k // p, q) != 1, (k, p)

    def test_root_of_phi_k(self):
        for k in (1, 2, 3, 12, 30, 97, 210, 256, 1001):
            q, w = _root_of_unity_mod_prime(k)
            value = 0
            for c in reversed(cyclotomic_poly(k).coeffs):
                value = (value * w + int(c)) % q
            assert value == 0, k


class TestScan:
    def test_trivial_example(self):
        report = cyclo_factor_scan(X**3 - X)
        assert report.x_multiplicity == 1
        assert report.cyclo_indices == ((1, 1), (2, 1))
        assert report.cofactor_degree == 0

    def test_multiplicity_extraction(self):
        poly = (X - 1)**3 * (X + 1) * X**2 * (X**2 + X + 2)
        report = cyclo_factor_scan(poly)
        assert report.x_multiplicity == 2
        assert report.cyclo_indices == ((1, 3), (2, 1))
        assert report.cofactor == X**2 + X + 2

    def test_reconstruction_invariant(self):
        rng = random.Random(808)
        for _ in range(25):
            poly = Polynomial.monomial(QQ, rng.randint(0, 2))
            for _ in range(rng.randint(0, 3)):
                poly = poly * cyclotomic_poly(rng.randint(1, 12))
            poly = poly * Polynomial(QQ, [rng.randint(1, 5), 0, 0, 1])
            report = cyclo_factor_scan(poly)
            rebuilt = Polynomial.monomial(QQ, report.x_multiplicity)
            for k, mult in report.cyclo_indices:
                rebuilt = rebuilt * cyclotomic_poly(k)**mult
            assert rebuilt * report.cofactor == poly

    def test_cofactor_is_cyclotomic_free(self):
        report = cyclo_factor_scan(necklace_poly(105).scale(105))
        cofactor = report.cofactor
        assert cofactor.x_valuation == 0
        for k in cyclotomic_candidates(cofactor.degree):
            assert not (cofactor % cyclotomic_poly(k)).is_zero, k

    def test_matches_old_scan_on_planted_polynomials(self, small_totients):
        rng = random.Random(5293)
        for _ in range(30):
            poly = Polynomial.monomial(QQ, rng.randint(0, 3))
            for _ in range(rng.randint(0, 4)):
                poly = poly * cyclotomic_poly(rng.randint(1, 40))**rng.randint(1, 2)
            den = rng.choice((1, 1, 2, 3, 7))
            rest = Polynomial(QQ, [Fraction(rng.randint(-20, 20), den)
                                   for _ in range(rng.randint(1, 30))]
                              + [rng.choice((1, 2, -3))])
            poly = poly * rest
            assert_scan_matches_old(small_totients, poly)

    def test_matches_old_scan_on_necklaces(self, small_totients):
        for d in list(range(1, 201)) + [210, 420, 840]:
            assert_scan_matches_old(small_totients, necklace_poly(d).scale(d))

    def test_matches_old_scan_on_shifted_cyclotomics(self, small_totients):
        for n in range(1, 301):
            assert_scan_matches_old(small_totients, cyclotomic_poly(n) - 1)

    def test_matches_old_scan_on_sparse_sums(self, small_totients):
        # 3-8 signed monomials at degree up to 600, half of them with
        # coefficient sum 0 and exponents on a common step, so that dividing
        # out the cyclotomic factors leaves a dense cofactor
        rng = random.Random(600)
        for i in range(6):
            step = rng.choice((1, 2, 3, 4, 6))
            exps = rng.sample(range(600 // step + 1), rng.randint(3, 8))
            coeffs = [0] * (max(exps) * step + 1)
            for e in exps:
                coeffs[e * step] = rng.choice((-3, -2, -1, 1, 1, 2))
            if i % 2:
                coeffs[exps[0] * step] -= sum(coeffs)
            poly = Polynomial(QQ, coeffs)
            if poly.degree > 0:
                assert_scan_matches_old(small_totients, poly)

    @pytest.mark.parametrize("k", [1, 6, 12, 30, 105])
    def test_filter_ends_the_multiplicity_loop(self, small_totients,
                                               monkeypatch, k):
        # Phi_k**3 times a sparse cofactor of degree >= phi(k): the new
        # cofactor fails the filter, so no trial division leaves a remainder
        remainders = []

        def spy(a, b):
            quot, rem = divmod(a, b)
            remainders.append(rem)
            return quot, rem

        poly = cyclotomic_poly(k)**3 * (X**200 + 2 * X**7 + 3)
        monkeypatch.setattr(cyclotomic, "divmod", spy, raising=False)
        report = cyclo_factor_scan(poly)
        monkeypatch.undo()
        assert (k, 3) in report.cyclo_indices
        assert remainders and all(rem.is_zero for rem in remainders)
        assert_scan_matches_old(small_totients, poly)

    def test_matches_old_scan_on_rational_sparse_inputs(self, small_totients):
        third, seventh = Fraction(1, 3), Fraction(-2, 7)
        for poly in (third * X**5 - third * X**2,
                     (third * X**40 + seventh * X**3)
                     * cyclotomic_poly(6)**2 * X**4,
                     (X**90 - 1).scale(Fraction(5, 9)) * X,
                     (seventh * X**120 + third * X**60 + 1)
                     * cyclotomic_poly(20) * X**7):
            assert_scan_matches_old(small_totients, poly)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            cyclo_factor_scan(Polynomial.zero(QQ))

    def test_json_shape(self):
        report = cyclo_factor_scan(X**3 - X)
        assert report.to_json_dict() == {
            "x_multiplicity": 1,
            "cyclotomic": [{"n": 1, "mult": 1}, {"n": 2, "mult": 1}],
            "cofactor_degree": 0,
            "cofactor_coeffs": ["1"],
        }


# Refusals: (call, exception, message fragment)
REFUSALS = [
    pytest.param(lambda: xn1_divides(X**2 - 1, 0),
                 DomainError, "needs n >= 1", id="xn1_divides-n0"),
    pytest.param(lambda: cyclo_factor_scan(
                     Polynomial(PrimeField(5), [4, 0, 1])),
                 DomainError, "expects a rational polynomial", id="scan-F5"),
]


@pytest.mark.parametrize("call,exc,fragment", REFUSALS)
def test_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
