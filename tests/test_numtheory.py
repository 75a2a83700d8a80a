import math
import random

import pytest

from dynlab import numtheory
from dynlab.errors import DomainError
from dynlab.numtheory import (Factorization, core_and_cocore, divisors,
                              euler_phi, factorize, is_prime, mobius,
                              squarefree_divisors)

# 12-digit d's of the kind `dynlab cover` meets: products of primes below
# 10**7, most with two or more prime factors above the trial-division bound.
COVER_DS = (106614571061, 110741893213, 116619153481, 120513055565,
            122624827913, 129312987575, 133063438889, 135927737575,
            142744426439, 145124451125, 149260527931, 149993665925,
            167798951291, 173757745183, 432863902867, 440512358437)


def trial_division(n):
    """Test-local oracle: the factorization by trial division up to sqrt(n)."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return tuple(sorted(factors.items()))


def test_factorize_twelve_digit_constant():
    fact = factorize(440512358437)
    assert fact.factors == ((47, 2), (73, 1), (79, 1), (151, 1), (229, 1))


def test_factorize_unit_and_small():
    assert factorize(1).factors == ()
    assert factorize(105).factors == ((3, 1), (5, 1), (7, 1))


def test_factorize_rejects_bad_input():
    for bad in (0, -5):
        with pytest.raises(DomainError):
            factorize(bad)
    with pytest.raises(DomainError):
        factorize(1 << 129)


def test_factorization_invariants_enforced():
    with pytest.raises(DomainError):
        Factorization(value=12, factors=((3, 1), (2, 2)))  # out of order
    with pytest.raises(DomainError):
        Factorization(value=12, factors=((2, 2), (4, 1)))  # 4 not prime
    with pytest.raises(DomainError):
        Factorization(value=10, factors=((2, 1),))  # wrong product


def test_factorize_left_inverse_of_multiplication():
    rng = random.Random(2024)
    primes = [2, 3, 5, 7, 11, 13, 17, 101, 997, 10007, 999983]
    for _ in range(10_000):
        n = 1
        for _ in range(rng.randint(0, 5)):
            factor = rng.choice(primes) ** rng.randint(1, 3)
            if (n * factor).bit_length() > 128:
                break
            n *= factor
        fact = factorize(n)
        rebuilt = math.prod(p**k for p, k in fact.factors)
        assert rebuilt == n == fact.value


def test_small_primes_are_the_primes_below_the_bound():
    bound = numtheory._TRIAL_BOUND
    assert numtheory._SMALL_PRIMES == tuple(
        p for p in range(2, bound) if trial_division(p) == ((p, 1),))


def test_factorize_windows_match_trial_division():
    # Below the square of the trial-division bound a cofactor is prime
    # without a test; at and above it is_prime and rho take over.  10**6 was
    # the old trial-division bound.
    for center in {numtheory._TRIAL_BOUND**2, 10**6}:
        for n in range(center - 1500, center + 1500):
            assert factorize(n).factors == trial_division(n), n


@pytest.mark.parametrize("p", [997, 1009, 1013, 999979, 999983])
def test_factorize_products_of_primes_near_the_bounds(p):
    for q in (997, 1009, 1013, 999979, 999983):
        assert trial_division(q) == ((q, 1),)
        n = p * q
        expected = ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))
        assert factorize(n).factors == expected
    assert factorize(p**2).factors == ((p, 2),)
    assert factorize(p**3).factors == ((p, 3),)
    assert factorize(p**3 * 1009).factors == trial_division(p**3 * 1009)


def test_factorize_cover_ds_match_trial_division():
    for d in COVER_DS:
        assert factorize(d).factors == trial_division(d), d


def test_factorize_mersenne_products():
    m31, m61, m127 = 2**31 - 1, 2**61 - 1, 2**127 - 1
    assert factorize(m61 * m31).factors == ((m31, 1), (m61, 1))
    assert factorize(m127).factors == ((m127, 1),)
    assert factorize(m61 * 999983).factors == ((999983, 1), (m61, 1))


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(105) == -1
    assert mobius(2 * 3 * 5 * 7) == 1
    with pytest.raises(DomainError):
        mobius(0)


def test_mobius_divisor_sum():
    for n in range(2, 10_001):
        assert sum(mobius(e) for e in divisors(n)) == 0
    assert sum(mobius(e) for e in divisors(1)) == 1


def test_core_and_cocore():
    assert core_and_cocore(105) == (105, 1)
    assert core_and_cocore(440512358437) == (9372603371, 47)
    assert core_and_cocore(12) == (6, 2)
    core, cocore = core_and_cocore(720)
    assert core * cocore == 720 and core == 30


def test_divisors():
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(1) == [1]
    assert divisors(105) == [1, 3, 5, 7, 15, 21, 35, 105]
    assert divisors(12)[0] == 1 and divisors(12)[-1] == 12
    assert divisors(12) == sorted(divisors(12))


def test_squarefree_divisors_sign_structure():
    pairs = squarefree_divisors(12)
    assert dict(pairs) == {1: 1, 2: -1, 3: -1, 6: 1}
    for n in (1, 7, 36, 210):
        for e, mu in squarefree_divisors(n):
            assert mu == mobius(e)


def test_squarefree_divisors_cached_as_tuple():
    first = squarefree_divisors(12)
    assert isinstance(first, tuple)
    assert squarefree_divisors(12) is first
    assert dict(squarefree_divisors(12)) == {1: 1, 2: -1, 3: -1, 6: 1}


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(65) == 48
    assert euler_phi(8) == 4


def test_euler_phi_matches_gcd_count():
    for n in range(1, 2001):
        brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == brute


def test_is_prime_basics():
    known = {2, 3, 5, 7, 11, 13, 97, 1000003, 2147483647}
    for p in known:
        assert is_prime(p)
    for c in (0, 1, 4, 9, 561, 1000001, 2147483647 * 3):
        assert not is_prime(c)
    # strong pseudoprime stress: Carmichael numbers
    for c in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not is_prime(c)


def thirteen_base_is_prime(n):
    """Test-local copy of the test that ran the first 13 prime bases on every
    n below psi_13."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_is_prime_matches_a_sieve_below_a_million():
    n = 10**6
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n, i)))
    assert [i for i in range(n) if is_prime(i)] == [
        i for i in range(n) if sieve[i]]


@pytest.mark.parametrize("bits", [32, 48, 64])
def test_is_prime_matches_thirteen_bases(bits):
    rng = random.Random(bits)
    draws = [rng.getrandbits(bits) | 1 for _ in range(2000)]
    # the next prime above some draws, and products of two half-size primes
    for n in draws[:60]:
        while not thirteen_base_is_prime(n):
            n += 2
        draws.append(n)
    half = [n for n in draws if thirteen_base_is_prime(n)][:20]
    for p in half:
        q = rng.getrandbits(bits // 2) | 1
        while not thirteen_base_is_prime(q):
            q += 2
        draws.append((p >> (bits // 2)) | 1)
        draws.append(q * (q + 2))
    for n in draws:
        assert is_prime(n) == thirteen_base_is_prime(n), n


@pytest.mark.parametrize("n", [3215031751, 2152302898747, 3474749660383,
                               341550071728321, 3825123056546413051])
def test_is_prime_boundary_pseudoprimes_are_composite(n):
    # psi_4 ... psi_9: each is a strong pseudoprime to the bases below the
    # set that the test runs at its size
    assert not is_prime(n)


# (prime, bases run): primes near 2**29 and the primes nearest each psi_j
@pytest.mark.parametrize("n,count", [
    (536871001, 4), (3215031751 - 2, 4), (3215031751 + 16, 7),
    (341550071728321 - 32, 7), (341550071728321 + 40, 9), (2**61 - 1, 9),
    (3825123056546413051 - 72, 9), (3825123056546413051 + 6, 12),
    (318665857834031151167461 - 20, 12), (318665857834031151167461 + 22, 13),
    (3317044064679887385961981 - 168, 13),
    (3317044064679887385961981 + 142, 26)])
def test_is_prime_runs_the_smallest_proven_base_set(n, count):
    ran = []

    class CountingBases(tuple):
        def __getitem__(self, index):
            return CountingBases(tuple.__getitem__(self, index))

        def __iter__(self):
            for a in tuple.__iter__(self):
                ran.append(a)
                yield a

    saved = numtheory._MR_BASES
    numtheory._MR_BASES = CountingBases(saved)
    try:
        assert is_prime(n)
    finally:
        numtheory._MR_BASES = saved
    assert ran == list(saved[:count])


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and the
# first 13 prime bases.
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_psi_12_is_composite():
    # 41, the 13th base, is a witness
    assert not is_prime(PSI_12)
    assert PSI_12 < numtheory._MR_PROVEN_BELOW


def test_is_prime_psi_13_is_composite():
    # a strong pseudoprime to all 13 proven bases: only a base above 41
    # exposes it
    assert PSI_13 == numtheory._MR_PROVEN_BELOW
    assert numtheory._MR_BASES[12] == 41
    assert not is_prime(PSI_13)


def test_is_prime_runs_thirteen_bases_below_psi_13():
    calls = []

    class CountingBases(tuple):
        def __getitem__(self, index):
            calls.append(index)
            return tuple.__getitem__(self, index)

    saved = numtheory._MR_BASES
    numtheory._MR_BASES = CountingBases(saved)
    try:
        assert is_prime(2**61 - 1)
        assert calls == [slice(None, 13, None)]
        calls.clear()
        assert is_prime(2**89 - 1)
        assert calls == []
    finally:
        numtheory._MR_BASES = saved


def brute_order(w, q):
    """Multiplicative order of w mod q by repeated products, or None."""
    x = w % q
    for e in range(1, q):
        if x == 1:
            return e
        x = x * w % q
    return None


def test_element_of_order_matches_brute_force_orders():
    for q in filter(is_prime, range(2, 200)):
        for k in divisors(q - 1):
            expected = next(
                w for w in (pow(g, (q - 1) // k, q) for g in range(2, 2 * q + 2))
                if brute_order(w, q) == k)
            w = numtheory._element_of_order(k, q)
            assert w == expected and brute_order(w, q) == k, (k, q)


def test_element_of_order_q_minus_1_is_the_least_primitive_root():
    for q in filter(is_prime, range(2, 200)):
        least = next(g for g in range(1, q) if brute_order(g, q) == q - 1)
        assert numtheory._element_of_order(q - 1, q) == least, q
