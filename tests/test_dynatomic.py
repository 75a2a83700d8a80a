import collections
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (dense_fold_divisible, dense_necklace_int_coeffs,
                      iterate, telescope_check)
from dynlab import dynatomic, errors
from dynlab.dynatomic import (DivisibilityEvidence, RelationTuple,
                              _quotient_remainder,
                              build_relation_certificate,
                              dynatomic_degree, dynatomic_poly,
                              fixed_point_identity, generalized_dynatomic,
                              generalized_dynatomic_degree,
                              random_monic_integer_poly, relation_conditions,
                              unit_relation_resultant, verify_relation)
from dynlab.errors import DomainError, ResourceLimitError
from dynlab.necklace import necklace_poly
from dynlab.numtheory import divisors, squarefree_divisors
from dynlab.polycore import (QA, QQ, Polynomial, PrimeField, parse_polynomial,
                             resultant)

X = Polynomial.x(QQ)
F_SQUARE = X**2
F_SQ1 = X**2 + 1
F_CUBE1 = parse_polynomial("x^3 + 1")
F_PARAM = parse_polynomial("x^2 + a")


class TestDynatomicPoly:
    def test_period_one_is_f_minus_x(self):
        for f in (F_SQUARE, F_SQ1, F_CUBE1):
            assert dynatomic_poly(f, 1) == f - Polynomial.x(f.ring)

    def test_square_map_period_two(self):
        assert dynatomic_poly(F_SQUARE, 2) == X**2 + X + 1

    def test_param_family_period_two(self):
        assert dynatomic_poly(F_PARAM, 2) == parse_polynomial("x^2 + x + a + 1")

    def test_low_degree_rejected(self):
        with pytest.raises(DomainError):
            dynatomic_poly(X + 1, 2)

    def test_degree_law_matches_necklace_values(self):
        rng = random.Random(11)
        for k in (2, 3):
            for d in range(1, 7):
                f = Polynomial(QQ, [rng.randint(-4, 4) for _ in range(k)] + [1])
                expected = d * necklace_poly(d).evaluate(k)
                assert dynatomic_poly(f, d).degree == expected
                assert dynatomic_degree(k, d) == expected


class TestGeneralizedDynatomic:
    def test_m_zero_is_plain(self):
        assert generalized_dynatomic(F_SQ1, 0, 3) == dynatomic_poly(F_SQ1, 3)

    def test_param_preperiod_one(self):
        assert generalized_dynatomic(F_PARAM, 1, 1) == \
            parse_polynomial("x^2 + x + a")

    def test_cube_plus_one(self):
        assert generalized_dynatomic(F_CUBE1, 1, 1) == \
            parse_polynomial("x^6 + x^4 + 2*x^3 + x^2 + x + 1")

    def test_quadratic_with_linear_term(self):
        f = parse_polynomial("x^2 + 3*x + 1")
        assert generalized_dynatomic(f, 1, 1) == f + X + 3

    def test_degree_formula(self):
        rng = random.Random(12)
        for k in (2, 3):
            f = Polynomial(QQ, [rng.randint(-3, 3) for _ in range(k)] + [1])
            for m in range(0, 3):
                for n in range(1, 4):
                    got = generalized_dynatomic(f, m, n).degree
                    assert got == generalized_dynatomic_degree(k, m, n), (k, m, n)


def _retired_generalized(f, n, ms):
    """Phi_n(f**m) div_exact Phi_n(f**(m-1)) for each m in ms.

    The construction generalized_dynatomic used before the recurrence; each
    Phi_n(f**k) is composed once and serves two consecutive quotients.
    """
    phi = dynatomic_poly(f, n)
    out = {0: phi}
    inner, prev = Polynomial.x(f.ring), phi
    for m in range(1, max(ms) + 1):
        inner = f.compose(inner)
        cur = phi.compose(inner)
        if m in ms:
            out[m] = cur.div_exact(prev)
        prev = cur
    return out


# The degree bounds keep the whole comparison near 8 s.  The old
# construction costs 5-8 s per quartic leg of degree 2880 over Q, about 40 s
# for x^3+a*x+1 at (4, 2) (degree 324) over Q[a], where coefficients grow
# with every iterate, and the new one alone runs for minutes at (4, 3).
@pytest.mark.parametrize("text,ring,max_degree", [
    ("x^2-x-1", QQ, 1000),
    ("x^4+x+1", QQ, 1000),
    ("x^2-3/4", QQ, 1000),
    ("2*x^2-1/3", QQ, 1000),
    ("x^2+x+3", PrimeField(5), 3000),
    ("x^3+2*x+1", PrimeField(7), 3000),
    ("x^2+a", QA, 100),
    ("a*x^2+1", QA, 100),
    ("x^3+a*x+1", QA, 100),
])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_matches_retired_construction(text, ring, max_degree, n):
    f = parse_polynomial(text, ring)
    ms = [m for m in range(5)
          if generalized_dynatomic_degree(f.degree, m, n) <= max_degree]
    expected = _retired_generalized(f, n, ms)
    for m in ms:
        assert generalized_dynatomic(f, m, n) == expected[m], (text, m, n)


class TestTelescope:
    def test_spec_cases(self):
        assert telescope_check(F_SQUARE, 1, 2)
        assert telescope_check(F_SQ1, 0, 1)
        assert telescope_check(F_CUBE1, 0, 2)

    def test_acceptance_grid(self):
        for f in (F_SQUARE, F_SQ1):
            for m in range(0, 3):
                for n in range(1, 4):
                    assert telescope_check(f, m, n), (f, m, n)
        for m in range(0, 3):
            for n in range(1, 3):
                assert telescope_check(F_CUBE1, m, n), (m, n)

    def test_param_family(self):
        assert telescope_check(F_PARAM, 1, 2)


class TestConditions:
    def test_admissible_example(self):
        report = relation_conditions(RelationTuple(1, 2, 1, 3))
        assert report.cond1 and report.cond2 and report.cond3
        assert not report.alt and report.admissible

    def test_non_admissible_d6(self):
        report = relation_conditions(RelationTuple(0, 2, 0, 6))
        assert not report.cond1 and report.cond2 and report.cond3
        assert not report.admissible

    def test_alternative_clause(self):
        report = relation_conditions(RelationTuple(1, 1, 2, 5))
        assert report.alt and report.admissible

    def test_cocore_clause(self):
        assert not relation_conditions(RelationTuple(3, 1, 0, 6)).cond2
        assert relation_conditions(RelationTuple(3, 1, 0, 8)).cond2

    def test_cond2_and_cond3_are_the_necklace_fold(self):
        # x**m' * (x**n - 1) | d*M_d with m' = max(0, m - max(c-1, 0)):
        # cond2 is the x-power, cond3 the x**n - 1 factor
        folds = {}
        for m, c, n, d in itertools.product(range(6), range(6), range(1, 13),
                                            range(1, 61)):
            shift = max(0, m - max(c - 1, 0))
            if (d, shift, n) not in folds:
                folds[d, shift, n] = dense_fold_divisible(
                    dense_necklace_int_coeffs(d), n, shift)
            report = relation_conditions(RelationTuple(m, n, c, d))
            assert (report.cond2 and report.cond3) == folds[d, shift, n], \
                (m, n, c, d)

    def test_json_shape(self):
        data = relation_conditions(RelationTuple(1, 2, 1, 3)).to_json_dict()
        assert data == {"cond1": True, "cond2": True, "cond3": True,
                        "alt": False, "admissible": True}


class TestVerifyRelation:
    def test_divides_examples(self):
        ev = verify_relation(RelationTuple(0, 2, 0, 3), F_SQ1)
        assert ev.divides and ev.remainder_degree is None

        ev = verify_relation(RelationTuple(1, 1, 0, 2), F_SQ1)
        assert ev.divides and ev.cofactor_degree == 0

    def test_generic_failure_for_family(self):
        ev = verify_relation(RelationTuple(0, 2, 0, 6), F_PARAM)
        assert not ev.divides
        assert ev.cofactor_degree is None
        assert ev.remainder_degree is not None

    def test_special_parameters_flip_to_divisible(self):
        for value in (Fraction(-1), Fraction(-5, 4)):
            ev = verify_relation(RelationTuple(0, 2, 0, 6),
                                 F_PARAM.specialize(value))
            assert ev.divides, value

    def test_degree_guard(self):
        # c >= m and n | d, so some factors of these are 0 mod D; the pass
        # takes their multiplier form only within the cap, and the (c, d)
        # leg is over it
        with pytest.raises(ResourceLimitError, match=r"\(0, 13\) dynatomic"):
            verify_relation(RelationTuple(0, 1, 0, 13), F_SQ1)
        with pytest.raises(ResourceLimitError, match=r"\(0, 6\) dynatomic"):
            verify_relation(RelationTuple(0, 2, 0, 6), F_SQ1, cap=10)
        with pytest.raises(ResourceLimitError, match=r"\(6, 3\) dynatomic"):
            verify_relation(RelationTuple(6, 3, 0, 1), F_SQ1, cap=100)
        # the cap bounds what is built: route 1 builds only Phi_2 here
        ev = verify_relation(RelationTuple(0, 2, 0, 5), F_SQ1, cap=10)
        assert ev.divides and ev.cofactor_degree == 28
        # (1, 1, 2, 5) is an alt-clause tuple: every factor is 0 mod D, so
        # the multiplier decides it, under the cap on Phi_{2,5} (degree 60)
        ev = verify_relation(RelationTuple(1, 1, 2, 5), F_SQ1, cap=60)
        assert ev.divides and ev.cofactor_degree == 60 - 2
        with pytest.raises(ResourceLimitError, match=r"degree 60 of the "
                                                     r"\(2, 5\) dynatomic"):
            verify_relation(RelationTuple(1, 1, 2, 5), F_SQ1, cap=59)
        # D = Phi_{1,2} has degree 2, but Phi_{2,12} has degree 8040, over
        # the default cap, so the leg is refused before the pass starts
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=r"degree 8040 of the "
                                                     r"\(2, 12\) dynatomic"):
            verify_relation(RelationTuple(1, 2, 2, 12),
                            parse_polynomial("x^2+x+3"))
        assert time.perf_counter() - start < 0.5
        # no factor of (2, 1, 0, 7) is 0 mod D = Phi_{2,1}, so N / Dn mod D
        # decides the leg and Phi_{0,7} (degree 126) is never built
        t = RelationTuple(2, 1, 0, 7)
        ev = verify_relation(t, F_SQ1, cap=125)
        assert not ev.divides and ev.remainder_degree == 2
        assert ev == _full_construction(t, F_SQ1, None)[1]
        # (2, 1, 1, 2000) divides, and its cofactor degree (603 digits) is
        # exact although the pass compared only a stand-in with the cap
        f = parse_polynomial("x^2+x+3")
        ev = verify_relation(RelationTuple(2, 1, 1, 2000), f)
        assert ev.divides and ev.cofactor_degree == (
            generalized_dynatomic_degree(2, 1, 2000)
            - generalized_dynatomic_degree(2, 2, 1))
        assert len(str(ev.cofactor_degree)) == 603
        # the exact degrees of these legs have millions of digits: the lower
        # bound 2**(m+n-2) refuses them, and the refusal names it
        for t, leg in ((RelationTuple(0, 1, 1, 10**7), "(1, 10000000)"),
                       (RelationTuple(10**7, 1, 0, 1), "(10000000, 1)")):
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as exc:
                verify_relation(t, parse_polynomial("x^3+a"))
            assert time.perf_counter() - start < 0.5
            assert str(exc.value) == (f"degree 2**9999999 of the {leg} "
                                      f"dynatomic exceeds the cap 5000")

    @pytest.mark.parametrize("d", [24, 60, 10**6])
    def test_quotient_route_past_the_cap(self, d):
        start = time.perf_counter()
        ev = verify_relation(RelationTuple(1, 1, 0, d), F_SQ1)
        elapsed = time.perf_counter() - start
        assert ev.divides and ev.remainder_degree is None
        assert ev.cofactor_degree == (generalized_dynatomic_degree(2, 0, d)
                                      - generalized_dynatomic_degree(2, 1, 1))
        assert elapsed < 0.5

    def test_multiplier_route_on_vanishing_factors(self):
        # The factors of (0, 2, 0, 6) with 2 | d/e are 0 mod D = Phi_2, and
        # enter the pass as G_k(lambda) mod D.  Built in full (degree 4020,
        # about 6 s), Phi_{0,6} - 1 leaves a remainder of degree 10 mod D
        f = Polynomial(QQ, [6, 3, 0, 6, 1])
        start = time.perf_counter()
        ev = verify_relation(RelationTuple(0, 2, 0, 6), f)
        elapsed = time.perf_counter() - start
        assert not ev.divides and ev.remainder_degree == 10
        assert elapsed < 0.5

    @pytest.mark.parametrize("m", [0, 1])
    def test_multiplier_route_at_c_two(self, m):
        # D = Phi_{m,2} has degree 2 and the factors of Phi_{2,10} with
        # 2 | d/e are 0 mod D, so they enter the pass as G_k(lambda) mod D.
        # Building Phi_{2,10} in full (degree 1980) takes about 7 s
        start = time.perf_counter()
        ev = verify_relation(RelationTuple(m, 2, 2, 10),
                             parse_polynomial("x^2+x+3"))
        elapsed = time.perf_counter() - start
        assert ev.divides and ev.cofactor_degree == 1978
        assert elapsed < 0.5

    def test_degree_guard_env_override(self, monkeypatch):
        monkeypatch.setenv("DYNLAB_DEGREE_CAP", "40")
        with pytest.raises(ResourceLimitError):
            verify_relation(RelationTuple(0, 2, 0, 6), F_SQ1)
        monkeypatch.setenv("DYNLAB_DEGREE_CAP", "100")
        assert verify_relation(RelationTuple(0, 2, 0, 6), F_SQ1) is not None


def _full_construction(t, f, seed):
    """Build Phi_{f,c,d} and divide, as verify_relation did before the
    quotient routes; returns (remainder, evidence)."""
    divisor = generalized_dynatomic(f, t.m, t.n)
    quot, rem = divmod(generalized_dynatomic(f, t.c, t.d) - 1, divisor)
    return rem, DivisibilityEvidence(
        family=f.to_text(), ring=f.ring.tag, seed=seed, divides=rem.is_zero,
        cofactor_degree=quot.degree if rem.is_zero else None,
        remainder_degree=None if rem.is_zero else rem.degree)


def _multiplier_factor(t):
    """Has Phi_{f,c,d} a factor f**(p+d/e) - f**p with p >= m and n | d/e,
    one that the pass replaces by G_(d/(en))(lambda) mod D?"""
    return any(p >= t.m and (t.d // e) % t.n == 0
               for e, _ in squarefree_divisors(t.d)
               for p in {t.c, max(t.c - 1, 0)})


def _cross_check(t, f, seed, tables):
    """verify_relation against the full construction, and the N/Dn pass's
    exact remainder against the full one; returns the route.  tables
    records the (modulus, count) of every residue table the pass builds."""
    rem, expected = _full_construction(t, f, seed)
    assert verify_relation(t, f, seed=seed, cap=10**6) == expected, (t, f)
    divisor = generalized_dynatomic(f, t.m, t.n)
    if divisor.ring is QA and len(divisor.lc) > 1:
        return "lead"
    top = generalized_dynatomic_degree(f.degree, t.c, t.d)
    if divisor.degree >= top:
        return "full"
    tables.clear()
    fast = _quotient_remainder(t, f, divisor, top, 10**6)
    # one table, mod D, on every leg
    assert tables == [(divisor, t.m + t.n - 1)], (t, f)
    if fast is None:
        return "full"
    assert fast == rem, (t, f)
    route = "N/Dn" if fast.is_zero else "inverse"
    return route + " multiplier" if _multiplier_factor(t) else route


def _seeded_legs(t, family, seed, trials):
    legs = [(t, family, None)]
    rng = random.Random(seed)
    legs += [(t, random_monic_integer_poly(rng), seed) for _ in range(trials)]
    return legs


def _test_suite_legs():
    """Every tuple, family and seed that criteria 05/06 and this file use."""
    from test_acceptance import ACCEPTED_TUPLES

    legs = []
    for tup in ACCEPTED_TUPLES:
        legs += _seeded_legs(RelationTuple(*tup), F_PARAM, 0, 20)
    t06 = RelationTuple(0, 2, 0, 6)
    legs += [(t06, F_PARAM, None), (t06, F_SQ1, None)]
    legs += [(t06, F_PARAM.specialize(v), None)
             for v in (Fraction(-1), Fraction(-5, 4))]
    for tup in ((0, 2, 0, 3), (1, 1, 0, 2), (0, 2, 0, 5), (1, 1, 2, 5),
                (6, 3, 0, 1)):
        legs.append((RelationTuple(*tup), F_SQ1, None))
    # a leading coefficient in a: reduction mod D leaves Q[a][x]
    legs.append((RelationTuple(0, 2, 0, 5), parse_polynomial("a*x^2+1"), None))
    legs += _seeded_legs(RelationTuple(1, 2, 1, 3), F_PARAM, 0, 5)
    for seed in (0, 7, 8):
        legs += _seeded_legs(RelationTuple(1, 1, 0, 2), F_PARAM, seed, 4)
    rng = random.Random(77)
    for tup in ((1, 1, 0, 2), (0, 2, 0, 3), (1, 2, 1, 3)):
        legs += [(RelationTuple(*tup), random_monic_integer_poly(rng, (2, 3)),
                  None) for _ in range(5)]
    return legs


def _box_legs():
    """Admissible and forced tuples with deg Phi_{c,d} <= 240 for quartics
    and a smaller divisor, x^2+a and 3 seeded trials each."""
    legs = []
    for m, n, c, d in itertools.product(range(4), range(1, 4), range(5),
                                        range(1, 7)):
        top = generalized_dynatomic_degree(4, c, d)
        if generalized_dynatomic_degree(4, m, n) < top <= 240:
            t = RelationTuple(m, n, c, d)
            seed = 1000 * m + 100 * n + 10 * c + d
            legs += _seeded_legs(t, F_PARAM, seed, 3)
    return legs


def _prime_field_legs():
    """Maps over F_2, F_3 and F_5, where D often splits into factors of
    different exact period: there N = Dn mod D can hold while D shares a
    factor with Dn, and only the resultant keeps route 1 sound."""
    rng = random.Random(2718)
    maps = [parse_polynomial("x^2+x", PrimeField(2)),
            parse_polynomial("x^2+1", PrimeField(2))]
    for p in (3, 5):
        for _ in range(2):
            coeffs = [rng.randrange(p), rng.randrange(p), 1]
            maps.append(Polynomial(PrimeField(p), coeffs))
    legs = []
    for f in maps:
        for m, n, c, d in itertools.product(range(4), range(1, 4), range(4),
                                            range(1, 6)):
            top = generalized_dynatomic_degree(2, c, d)
            if generalized_dynatomic_degree(2, m, n) < top <= 60:
                legs.append((RelationTuple(m, n, c, d), f, None))
    return legs


class TestQuotientRoutes:
    @pytest.mark.parametrize("legs,routes_seen", [
        (_test_suite_legs, {"N/Dn", "N/Dn multiplier", "inverse multiplier",
                            "full", "lead"}),
        (_box_legs, {"N/Dn", "N/Dn multiplier", "inverse",
                     "inverse multiplier", "full"}),
        (_prime_field_legs, {"N/Dn", "N/Dn multiplier", "inverse",
                             "inverse multiplier", "full"}),
    ], ids=["suite", "box", "prime_fields"])
    def test_agrees_with_full_construction(self, legs, routes_seen,
                                           monkeypatch):
        tables = []
        build = dynatomic._iterates

        def spy(f, needed, modulus=None):
            tables.append((modulus, max(needed)))
            return build(f, needed, modulus)

        monkeypatch.setattr(dynatomic, "_iterates", spy)
        routes = collections.Counter()
        for t, f, seed in legs():
            routes[_cross_check(t, f, seed, tables)] += 1
        assert set(routes) == routes_seen, routes


class TestCertificates:
    def test_admissible_certificate_verifies(self):
        cert = build_relation_certificate(
            RelationTuple(1, 2, 1, 3), family=F_PARAM, trials=5, seed=0)
        assert cert.conditions.admissible
        assert len(cert.evidence) == 6
        assert cert.all_divide

    def test_non_admissible_skips_evidence(self):
        cert = build_relation_certificate(
            RelationTuple(0, 2, 0, 6), family=F_PARAM, trials=5, seed=0)
        assert not cert.conditions.admissible
        assert cert.evidence == ()

    def test_force_runs_and_reports_failure(self):
        cert = build_relation_certificate(
            RelationTuple(0, 2, 0, 6), family=F_PARAM, trials=0, seed=0,
            force=True)
        assert not cert.evidence[0].divides

    def test_seed_reproducibility(self):
        one = build_relation_certificate(RelationTuple(1, 1, 0, 2),
                                         trials=4, seed=7)
        two = build_relation_certificate(RelationTuple(1, 1, 0, 2),
                                         trials=4, seed=7)
        assert one == two
        other = build_relation_certificate(RelationTuple(1, 1, 0, 2),
                                           trials=4, seed=8)
        assert other != one

    def test_json_schema(self):
        cert = build_relation_certificate(RelationTuple(1, 1, 0, 2),
                                          family=F_PARAM, trials=1, seed=0)
        data = json.loads(json.dumps(cert.to_json_dict()))
        assert data["tuple"] == {"m": 1, "n": 1, "c": 0, "d": 2}
        assert set(data["conditions"]) == {"cond1", "cond2", "cond3", "alt",
                                           "admissible"}
        for ev in data["evidence"]:
            assert set(ev) == {"family", "ring", "seed", "divides",
                               "cofactor_degree", "remainder_degree"}
            assert (ev["cofactor_degree"] is None) != \
                (ev["remainder_degree"] is None)


class TestFixedPointIdentity:
    def test_worked_example(self):
        f = X**2 - 6
        assert fixed_point_identity(f, 3, 2) == (7, 7, True)
        lhs, rhs, equal = fixed_point_identity(f, 3, 4)
        assert rhs == 37 and equal

    def test_zero_multiplier(self):
        lhs, rhs, equal = fixed_point_identity(F_SQUARE, 0, 2)
        assert lhs == 1 and equal

    def test_rejects_non_fixed_point(self):
        with pytest.raises(DomainError):
            fixed_point_identity(F_SQUARE, 2, 2)

    def test_seeded_constructed_fixed_points(self):
        rng = random.Random(314)
        for _ in range(50):
            alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            shift = X - alpha
            f = shift.scale(lam) + alpha + shift * shift
            d = rng.randint(2, 5)
            lhs, rhs, equal = fixed_point_identity(f, alpha, d)
            assert equal, (alpha, lam, d)


class TestUnitRelationResultant:
    def test_value_one_certificates(self):
        assert unit_relation_resultant(F_SQ1, RelationTuple(1, 1, 0, 2)) == 1
        assert unit_relation_resultant(F_CUBE1, RelationTuple(1, 1, 0, 2)) == 1

    def test_param_family_nonconstant(self):
        res = unit_relation_resultant(F_PARAM, RelationTuple(0, 1, 0, 2))
        assert len(res) > 1  # genuine dependence on the parameter

    def test_monic_divisibility_forces_resultant_one(self):
        rng = random.Random(77)
        tuples = [RelationTuple(1, 1, 0, 2), RelationTuple(0, 2, 0, 3),
                  RelationTuple(1, 2, 1, 3)]
        for t in tuples:
            for _ in range(5):
                f = random_monic_integer_poly(rng, (2, 3))
                assert verify_relation(t, f).divides
                assert unit_relation_resultant(f, t) == 1, (t, f)


class TestCharacteristicP:
    def setup_method(self):
        self.field = PrimeField(5)
        self.f = Polynomial(self.field, [0, 2, 0, 0, 0, 1])  # x^5 + 2x

    def test_gap_derivative_is_nonzero_constant(self):
        for m in range(0, 3):
            for n in range(1, 4):
                gap = iterate(self.f, m + n) - iterate(self.f, m)
                deriv = gap.derivative()
                assert deriv.degree == 0
                expected = (pow(2, m + n, 5) - pow(2, m, 5)) % 5
                assert deriv.coeffs[0] == expected

    def test_common_root_resultant_vanishes(self):
        phi1 = dynatomic_poly(self.f, 1)
        phi4 = dynatomic_poly(self.f, 4)
        assert phi4.degree == 600
        assert resultant(phi1, phi4) == 0


def _degree_cap_from(value):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(errors.DEGREE_CAP_ENV, value)
        return errors.degree_cap()


# Refusals: (call, exception, message fragment)
REFUSALS = [
    pytest.param(lambda: dynatomic_poly(F_SQ1, 0),
                 DomainError, "dynatomic index must be >= 1", id="poly-d0"),
    pytest.param(lambda: generalized_dynatomic(F_SQ1, -1, 1),
                 DomainError, "needs m >= 0, n >= 1", id="generalized-m-1"),
    pytest.param(lambda: fixed_point_identity(
                     Polynomial(PrimeField(7), [0, 0, 1]), 1, 3),
                 DomainError, "checked over Q", id="fixed_point-F7"),
    pytest.param(lambda: fixed_point_identity(F_SQUARE, 1, 1),
                 DomainError, "needs d >= 2", id="fixed_point-d1"),
    pytest.param(lambda: verify_relation(RelationTuple(1, 1, 0, 2), F_SQ1,
                                         cap=-3),
                 DomainError, "must be >= 0, got -3", id="verify-cap-3"),
    pytest.param(lambda: build_relation_certificate(
                     RelationTuple(1, 1, 0, 2), family=F_SQ1, cap=-3),
                 DomainError, "must be >= 0, got -3", id="certificate-cap-3"),
    *(pytest.param(lambda value=value: _degree_cap_from(value),
                   DomainError, "DYNLAB_DEGREE_CAP must be an integer",
                   id=f"degree_cap-{name}")
      for name, value in (("abc", "abc"), ("arabic-digit", "\u0663"),
                          ("underscore", "1_000"))),
]


@pytest.mark.parametrize("call,exc,fragment", REFUSALS)
def test_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
