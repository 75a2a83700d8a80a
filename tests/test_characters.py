import importlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import (dense_fold_divisible, dense_necklace_int_coeffs,
                      hyperplane_forms, is_trivial)
from dynlab.characters import (Character, CoverCertificate,
                               _entangled_hyperplanes, _primitive_root_mod_pk,
                               covers, equivalence_sweep, unit_group)
from dynlab.cli import _json_pieces
from dynlab.cyclotomic import cyclotomic_poly
from dynlab.errors import DomainError, ResourceLimitError
from dynlab.necklace import fast_xn1_divides
from dynlab.numtheory import (euler_phi, factorize, is_prime,
                              squarefree_divisors)
from dynlab.polycore import QQ, Polynomial


class TestUnitGroup:
    def test_structure_65(self):
        group = unit_group(65)
        assert sorted(group.orders) == [3, 4, 4]
        assert group.order == 48 == euler_phi(65)
        assert group.exponent == 12

    def test_structure_8(self):
        assert sorted(unit_group(8).orders) == [2, 2]

    def test_trivial_moduli(self):
        for n in (1, 2):
            group = unit_group(n)
            assert group.orders == ()
            assert group.order == 1

    def test_two_power_split(self):
        group = unit_group(32)
        assert sorted(group.orders) == [2, 8]

    def test_dlog_reconstructs_residues(self):
        for n in (3, 5, 8, 12, 16, 30, 65, 96, 343):
            group = unit_group(n)
            assert len(group.dlog) == euler_phi(n)
            for residue, vec in group.dlog.items():
                prod = 1 % n
                for (g, _), e in zip(group.generators, vec):
                    prod = prod * pow(g, e, n) % n
                assert prod == residue, (n, residue)

    def test_dlog_is_in_product_order(self):
        # covers() takes its exponent vectors from dlog.values(), in order;
        # the unwrapped builder keeps the cache small
        for n in range(1, 3000):
            group = unit_group.__wrapped__(n)
            assert list(group.dlog.values()) == list(
                itertools.product(*(range(o) for o in group.orders))), n

    def test_orders_are_prime_powers_and_exact(self):
        from dynlab.numtheory import factorize
        for n in (5, 7, 9, 16, 27, 65, 100):
            group = unit_group(n)
            for g, order in group.generators:
                assert len(factorize(order).factors) == 1
                assert pow(g, order, n) == 1
                for p, _ in factorize(order).factors:
                    assert pow(g, order // p, n) != 1

    def test_primitive_root_lift_past_a_wieferich_root(self):
        # 5 is the least primitive root mod 40487 but 5**40486 = 1 mod
        # 40487**2, so the lift adds p; unit_group never gets there under
        # PHI_CAP, as phi(40487**2) is far above it
        p = 40487
        assert pow(5, p - 1, p * p) == 1
        g = _primitive_root_mod_pk(p, 2)
        assert g == 5 + p
        assert pow(g, p - 1, p * p) != 1

    def test_non_unit_rejected(self):
        with pytest.raises(DomainError):
            unit_group(10).dlog_of(5)

    def test_phi_cap(self):
        with pytest.raises(ResourceLimitError):
            # smallest prime above the cap; phi(p) = p - 1 > 10**6
            unit_group(1_000_003)


class TestCharacters:
    def test_count_and_order(self):
        group = unit_group(36)
        chars = [Character(group, e) for e in group.dlog.values()]
        assert len(chars) == euler_phi(36)
        assert is_trivial(chars[0])

    def test_trivial_character_always_one(self):
        group = unit_group(20)
        triv = Character(group, (0,) * len(group.orders))
        for q in group.dlog:
            assert triv.value_is_one(q)

    def test_identity_element_always_one(self):
        group = unit_group(65)
        for exponents in group.dlog.values():
            assert Character(group, exponents).value_is_one(66)

    def test_mod5_generator(self):
        group = unit_group(5)
        chi = Character(group, (1,))
        assert not chi.value_is_one(2)
        assert chi.angle(2) in (Fraction(1, 4), Fraction(3, 4))

    def test_angles_are_exact_homomorphisms(self):
        group = unit_group(35)
        rng = random.Random(6)
        units = list(group.dlog)
        for exponents in itertools.islice(group.dlog.values(), 12):
            chi = Character(group, exponents)
            for _ in range(20):
                u, v = rng.choice(units), rng.choice(units)
                lhs = chi.angle(u * v % 35)
                rhs = (chi.angle(u) + chi.angle(v)) % 1
                assert lhs == rhs

    def test_exponent_bounds_enforced(self):
        group = unit_group(5)
        with pytest.raises(DomainError):
            Character(group, (4, 0))
        with pytest.raises(DomainError):
            Character(group, (7,))

    def test_hyperplane_size_orthogonality(self):
        # |H_q| = phi(n) / ord(q) for every unit q
        for n in list(range(1, 101)) + [105, 120, 144, 200]:
            group = unit_group(n)
            for q in group.dlog:
                order, acc = 1, q % n
                while acc != 1 % n:
                    acc = acc * q % n
                    order += 1
                count = sum(1 for e in group.dlog.values()
                            if Character(group, e).value_is_one(q))
                assert count * order == group.order, (n, q)


class TestCovers:
    def test_spec_examples(self):
        cert = covers(3, 2)
        assert cert.covered and cert.usable_primes == (3,)
        cert = covers(2, 5)
        assert not cert.covered
        assert cert.failing_character is not None
        assert not covers(1, 1).covered

    def test_big_d_certificate(self):
        cert = covers(440512358437, 65)
        assert cert.covered
        assert cert.usable_primes == (47, 73, 79, 151, 229)
        assert len(cert.witnesses) == 48
        assert all(p is not None for _, p in cert.witnesses)

    def test_line_arrangement_examples(self):
        for d in (157 * 181 * 337 * 389,
                  79 * 181 * 389,
                  47 * 109 * 151 * 157 * 317 * 337):
            assert covers(d, 65).covered, d

    def test_witnesses_are_recheckable(self):
        group = unit_group(36)
        cert = covers(30, 36)
        for exps, p in cert.witnesses:
            chi = Character(group, exps)
            if p is not None:
                assert p in cert.usable_primes
                assert chi.value_is_one(p)
        if cert.failing_character is not None:
            chi = Character(group, cert.failing_character)
            assert all(not chi.value_is_one(p) for p in cert.usable_primes)

    def test_failing_character_genuinely_uncovered(self):
        cert = covers(2, 5)
        group = unit_group(5)
        chi = Character(group, cert.failing_character)
        assert all(not chi.value_is_one(p) for p in cert.usable_primes)

    def test_monotone_in_prime_support(self):
        rng = random.Random(17)
        for _ in range(40):
            d = rng.randint(2, 400)
            n = rng.randint(1, 40)
            if covers(d, n).covered:
                extra = rng.choice([2, 3, 5, 7, 11, 13])
                assert covers(d * extra, n).covered, (d, n, extra)

    def test_primes_one_mod_n_cover_everything(self):
        rng = random.Random(23)
        done = 0
        while done < 20:
            n = rng.randint(2, 40)
            p = 1 + n * rng.randint(1, 30)
            if not is_prime(p):
                continue
            mult = rng.randint(1, 60)
            assert covers(p * mult, n).covered, (p, n, mult)
            done += 1

    def test_agrees_with_necklace_criterion_spot(self):
        rng = random.Random(29)
        for _ in range(150):
            d = rng.randint(1, 600)
            n = rng.randint(1, 48)
            assert covers(d, n).covered == fast_xn1_divides(d, n), (d, n)

    def test_agrees_with_dense_fold_including_entangled_pairs(self):
        # pairs where d shares square factors with n: the certificate must
        # still track honest polynomial divisibility
        pairs = [(4, 2), (8, 2), (8, 4), (12, 4), (16, 8), (36, 4), (36, 12),
                 (4, 4), (2, 2), (6, 4), (8, 16), (27, 9), (54, 6), (81, 3)]
        for d, n in pairs:
            brute = dense_fold_divisible(dense_necklace_int_coeffs(d), n)
            assert covers(d, n).covered == brute, (d, n)

    def test_hyperplane_forms_are_dlog_vectors(self):
        forms = dict(hyperplane_forms(440512358437, 65))
        assert set(forms) == {47, 73, 79, 151, 229}
        group = unit_group(65)
        # 229 = 47^2 * 151^(-1) mod 65, so its form is twice the 47-form
        # minus the 151-form, componentwise mod the generator orders
        assert 47 * 47 * pow(151, -1, 65) % 65 == 229 % 65
        combo = tuple((2 * a - b) % o for a, b, o in
                      zip(forms[47], forms[151], group.orders))
        assert combo == forms[229]
        # each form really cuts out the hyperplane
        for p, form in forms.items():
            chi_members = sum(1 for e in group.dlog.values()
                              if Character(group, e).value_is_one(p))
            assert form == group.dlog_of(p)
            assert chi_members >= 1

    def test_witnesses_share_the_dlog_vectors(self):
        cert = covers(66356058851, 266)
        vectors = unit_group(266).dlog.values()
        assert all(chi is v for (chi, _), v in zip(cert.witnesses, vectors))

    def test_certificate_json_schema(self):
        # the bytes the CLI writes for the certificate, read back
        data = json.loads("".join(_json_pieces(covers(3, 2).lazy_json_dict())))
        assert data == {
            "d": "3",
            "n": 2,
            "usable_primes": [3],
            "covered": True,
            "witnesses": [{"chi": [], "p": 3}],
            "failing_character": None,
        }


def _strata_sums(d, n):
    """Bracket sums of the n-entangled part of d, split by gcd strata.

    The factor D of d supported on primes dividing n contributes the sum of
    mu(e) * [D/e] over squarefree e | D.  Each index class [D/e mod n] has
    gcd g with n and identifies with the unit (D/e)/g of the modulus n/g;
    the map returned here sends g to the accumulated integer combination on
    those units (zero coefficients and empty strata dropped).
    """
    D = 1
    for p, k in factorize(d).factors:
        if n % p == 0:
            D *= p**k
    sums = {}
    for e, mu in squarefree_divisors(D):
        val = D // e
        g = math.gcd(val, n)
        w = (val // g) % (n // g)
        bucket = sums.setdefault(g, {})
        bucket[w] = bucket.get(w, 0) + mu
    for g in list(sums):
        sums[g] = {w: c for w, c in sums[g].items() if c}
        if not sums[g]:
            del sums[g]
    return sums


def _lift_unit(w, m, n):
    """Some unit mod n congruent to the unit w mod m (m divides n)."""
    if m == 1:
        return 1 % n
    return next(u % n for u in range(w, n + w, m) if math.gcd(u, n) == 1)


def q_polynomial_kills_sum(chi, entries, m):
    """Whether chi annihilates a stratum sum: the sum as a polynomial over Q
    in a root of unity of order L (the group exponent), reduced modulo
    Phi_L."""
    group = chi.group
    L = group.exponent
    acc = [0] * L
    for w, coeff in entries.items():
        u = _lift_unit(w, m, group.modulus)
        acc[chi._angle_numerator(group.dlog_of(u))] += coeff
    poly = Polynomial(QQ, acc)
    if poly.is_zero:
        return True
    return (poly % cyclotomic_poly(L)).is_zero


def _covers_by_character_loop(d, n):
    """The per-character loop with the stratum sums that ``covers``
    replaced, kept as a reference: one Character per element of the group,
    each tested against every usable prime with ``value_is_one``, and a
    character without a witness against every stratum sum it factors
    through, by reduction modulo a cyclotomic polynomial over Q."""
    usable = tuple(p for p in factorize(d).primes if n % p != 0)
    group = unit_group(n)
    strata = _strata_sums(d, n)
    kernels = {g: tuple(u for u in group.dlog if u % (n // g) == 1 % (n // g))
               for g in strata}
    witnesses = []
    failing = None
    for exponents in group.dlog.values():
        chi = Character(group, exponents)
        witness = next((p for p in usable if chi.value_is_one(p)), None)
        witnesses.append((chi.exponents, witness))
        if witness is not None or failing is not None:
            continue
        for g, entries in strata.items():
            if any(not chi.value_is_one(u) for u in kernels[g]):
                continue
            if not q_polynomial_kills_sum(chi, entries, n // g):
                failing = chi.exponents
                break
    return CoverCertificate(
        d=d, n=n, usable_primes=usable, covered=failing is None,
        witnesses=tuple(witnesses), failing_character=failing)


def _entangled_pair(rng):
    """A seeded (d, n) in which d raises at least one prime of n above its
    power in n; the other primes of n get a random power up to two above."""
    n = rng.randint(2, 4000)
    factors = factorize(n).factors
    raised = rng.randrange(len(factors))
    d = rng.randrange(1, 10**4)
    for i, (p, k) in enumerate(factors):
        d *= p**(k + rng.randint(1, 2) if i == raised
                 else rng.randint(0, k + 2))
    return d, n


class TestCoversAgainstCharacterLoop:
    def test_every_pair_up_to_60(self):
        for d in range(1, 61):
            for n in range(1, 61):
                assert covers(d, n) == _covers_by_character_loop(d, n), (d, n)

    def test_seeded_large_pairs(self):
        rng = random.Random(41)
        pairs = []
        for i in range(24):
            d = rng.randrange(2, 10**12)
            n = rng.randint(2, 4000)
            if i % 2:
                # a prime p = 1 (mod n) makes d covered
                p = next(q for q in range(n * rng.randint(1, 200) + 1,
                                          10**9, n) if is_prime(q))
                d = d * p if d * p < 10**12 else p
            pairs.append((d, n))
        entangled = [_entangled_pair(random.Random(seed))
                     for seed in range(12)]
        assert all(_entangled_hyperplanes(d, n)[0] for d, n in entangled)
        verdicts = set()
        for d, n in pairs + entangled:
            cert = covers(d, n)
            verdicts.add(cert.covered)
            assert cert.covered == fast_xn1_divides(d, n), (d, n)
            assert cert == _covers_by_character_loop(d, n), (d, n)
        assert verdicts == {True, False}


def test_each_clause_decides_some_character():
    """On d, n <= 60, some character is harmless by a usable witness, some
    (without one) by an entangled prime's hyperplane, and some (with
    neither) because it factors through no stratum modulus."""
    decided = {"witness": 0, "entangled": 0, "no stratum": 0}
    for n in range(1, 61):
        group = unit_group(n)
        for d in range(1, 61):
            lifts, moduli = _entangled_hyperplanes(d, n)
            kernels = [[u for u in group.dlog if u % m == 1 % m]
                       for m in moduli]
            for exponents, p in covers(d, n).witnesses:
                chi = Character(group, exponents)
                if p is not None:
                    decided["witness"] += 1
                elif any(chi.value_is_one(u) for u in lifts):
                    decided["entangled"] += 1
                elif not any(all(chi.value_is_one(u) for u in kernel)
                             for kernel in kernels):
                    decided["no stratum"] += 1
    assert all(decided.values()), decided


def test_strata_test_cancels_a_nonzero_sum():
    """1 + w + w**2 = 0 for w of order 3: the reference's reduction modulo
    Phi_L finds a stratum sum that vanishes with nonzero coefficients."""
    group = unit_group(7)
    thirds = {Fraction(k, 3) for k in range(3)}
    chi = next(c for c in map(Character, itertools.repeat(group),
                              group.dlog.values())
               if {c.angle(u) for u in range(1, 7)} == thirds)
    reps = {}
    for u in range(1, 7):
        reps.setdefault(chi.angle(u), u)
    entries = {u: 1 for u in reps.values()}
    assert q_polynomial_kills_sum(chi, entries, 7)
    entries.popitem()
    assert not q_polynomial_kills_sum(chi, entries, 7)


class TestEquivalenceSweep:
    def test_small_grid_empty(self):
        assert equivalence_sweep(60, 30) == []

    def test_single_cell(self):
        assert equivalence_sweep(1, 1) == []

    def test_both_criteria_on_every_pair(self, monkeypatch):
        # The sweep is the independent route: unlike the grid scan it may not
        # skip pairs that cannot divide, so each criterion sees all 30 * 20.
        module = importlib.import_module("dynlab.characters")
        calls = {"covers": 0, "fast_xn1_divides": 0}

        def counted(name):
            original = getattr(module, name)

            def wrapper(d, n):
                calls[name] += 1
                return original(d, n)
            return wrapper

        for name in calls:
            monkeypatch.setattr(module, name, counted(name))
        assert equivalence_sweep(30, 20) == []
        assert calls == {"covers": 600, "fast_xn1_divides": 600}


# Refusals: (call, exception, message fragment)
REFUSALS = [
    pytest.param(lambda: covers(0, 5),
                 DomainError, "covers needs d, n >= 1", id="covers-d0"),
    pytest.param(lambda: equivalence_sweep(0, 5),
                 DomainError, "sweep bounds must be >= 1", id="sweep-d0"),
    pytest.param(lambda: unit_group(0),
                 DomainError, "modulus must be >= 1", id="unit_group-0"),
]


@pytest.mark.parametrize("call,exc,fragment", REFUSALS)
def test_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()
