"""The integer kernels under Polynomial multiplication and division.

Each kernel is compared with a plain loop kept here as the reference:
schoolbook convolution for ``_convolve``, the coefficient-by-coefficient
ring loop for each ring's ``_product`` over Q, F_p and Q[a],
``_divmod_generic`` for the integer division loop ``_divmod_ints`` over Z
and F_p and for the packed Q[a] division ``QA._divmod``, and plain Horner
for ``Polynomial.compose``.
Inputs are seeded.  Every division kernel returns a zero quotient and the
numerator itself when the numerator's degree is below the divisor's.
"""

import operator
import random
import sys
from fractions import Fraction

import pytest

import dynlab.polycore as polycore
from dynlab.cyclotomic import cyclotomic_poly
from dynlab.dynatomic import dynatomic_poly
from dynlab.errors import DomainError, ExactDivisionError
from dynlab.polycore import (QA, QQ, Polynomial, PrimeField, _SCHOOLBOOK_TERMS,
                             _convolve, _divmod_generic, _divmod_ints,
                             _unpack, parse_polynomial)

PRIMES = (2, 7121, 2**61 - 1)


def schoolbook(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def bias_unpack(value, w, n):
    """The slot reader _unpack replaced: a bias of 2**(8w-1) added to every
    slot of value makes each one nonnegative, read back unsigned."""
    half = 1 << (8 * w - 1)
    bias = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    buf = (value + bias).to_bytes(n * w, "little")
    return [int.from_bytes(buf[k:k + w], "little") - half
            for k in range(0, n * w, w)]


def signed(rng, bits):
    if bits == 0:
        return 0
    return rng.choice((-1, 1)) * rng.getrandbits(bits)


def sparse(rng, length, nonzero, bits):
    cs = [0] * length
    for j in rng.sample(range(length), min(nonzero, length)):
        cs[j] = signed(rng, bits) or 1
    return cs


class TestConvolve:
    def test_random_signed_lists(self):
        rng = random.Random(2024)
        for _ in range(60):
            bits_a, bits_b = rng.choice((0, 1, 8, 64, 500, 4000)), rng.choice(
                (0, 1, 8, 64, 500, 4000))
            a = [signed(rng, bits_a) for _ in range(rng.randint(0, 200))]
            b = [signed(rng, bits_b) for _ in range(rng.randint(0, 200))]
            assert _convolve(a, b) == schoolbook(a, b)

    @pytest.mark.parametrize("nonzero", [1, 2, _SCHOOLBOOK_TERMS - 1,
                                         _SCHOOLBOOK_TERMS,
                                         _SCHOOLBOOK_TERMS + 1, 150])
    def test_both_sides_of_the_crossover(self, nonzero):
        rng = random.Random(nonzero)
        for bits in (1, 30, 200, 1500):
            long = [signed(rng, bits) for _ in range(rng.randint(150, 200))]
            short = sparse(rng, rng.randint(nonzero, 150), nonzero, bits)
            assert _convolve(long, short) == schoolbook(long, short)
            assert _convolve(short, long) == schoolbook(short, long)

    def test_all_negative_operands(self):
        rng = random.Random(5)
        for bits in (1, 7, 8, 9, 100):
            a = [-rng.getrandbits(bits) - 1 for _ in range(80)]
            b = [-rng.getrandbits(bits) - 1 for _ in range(60)]
            assert _convolve(a, b) == schoolbook(a, b)
            assert _convolve(a, a) == schoolbook(a, a)

    def test_extreme_coefficients_at_the_slot_boundary(self):
        # every output attains the packing bound max|a| * max|b| * len(b)
        # up to sign, for every residue of its bit length mod 8
        for k in range(1, 41):
            top = 2**k - 1
            for n in (_SCHOOLBOOK_TERMS, 97):
                for a, b in (([top] * n, [top] * n),
                             ([top] * n, [-top] * n),
                             ([-top] * (n + 3), [-top] * n),
                             ([top, -top] * n, [-top, top] * n)):
                    assert _convolve(a, b) == schoolbook(a, b)

    def test_unpack_reads_every_signed_slot(self):
        # slots of -2**(8w-1) below a top slot of 1 put |value| just above
        # 2**(8w(n-1)-2), the bound that sizes the slot count; runs of slots
        # at either end of the range, both alternations and a negative top
        # slot make the borrows land on slots that wrap
        rng = random.Random(8)
        for w in (1, 2, 5):
            half, base = 1 << (8 * w - 1), 1 << (8 * w)
            edge = (-half, -half + 1, -1, 0, 1, half - 1)
            drawn = [[rng.choice(edge) if rng.random() < 0.7
                      else rng.randrange(-half, half)
                      for _ in range(rng.randint(0, 7))] for _ in range(400)]
            extreme = [slots for n in range(1, 7) for slots in (
                [-half] * n, [half - 1] * n, [-half, half - 1] * n,
                [half - 1, -half] * n, [half - 1] * n + [-half],
                [1] * n + [-1], [-half] * n + [-1], [0] * n + [-half])]
            for slots in drawn + extreme + [[]]:
                while slots and not slots[-1]:
                    slots.pop()
                value = sum(c * base**k for k, c in enumerate(slots))
                # the slot count that QA._divmod sizes from the bit length
                count = (value.bit_length() + 1) // (8 * w) + 1
                assert len(slots) <= count <= len(slots) + 1
                for extra in (0, 1, 2):
                    size = len(slots) + extra
                    assert (_unpack(value, w, size)
                            == bias_unpack(value, w, size)
                            == slots + [0] * extra)

    def test_zero_runs_and_single_terms(self):
        rng = random.Random(11)
        for bits in (1, 64, 3000):
            dense = [signed(rng, bits) or 1 for _ in range(120)]
            runs = ([0] * 50 + [signed(rng, bits) or 1] * 40 + [0] * 30
                    + [signed(rng, bits) or 1] * 5)
            single = [0] * 70 + [signed(rng, bits) or 1]
            for b in (runs, single, [0] * 10, [signed(rng, bits) or 1]):
                assert _convolve(dense, b) == schoolbook(dense, b)
                assert _convolve(b, runs) == schoolbook(b, runs)


def qa_elem_mul(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return QA.coerce(tuple(out))


def ring_loop_mul(ring, a, b):
    """The coefficient-by-coefficient ring product, used as the reference."""
    if not a or not b:
        return ()
    mul = qa_elem_mul if ring is QA else ring.mul
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if ai and bj:
                out[i + j] = ring.add(out[i + j], mul(ai, bj))
    n = len(out)
    while n and not out[n - 1]:
        n -= 1
    return tuple(out[:n])


def rand_coeff(rng, ring, bits):
    if rng.random() < 0.3:
        return 0 if ring is not QA else ()
    if ring is QQ:
        return Fraction(signed(rng, bits), rng.choice((1, 1, 2, 3, 12, 2**bits + 1)))
    if ring is QA:
        return tuple(Fraction(signed(rng, bits), rng.choice((1, 5, 7)))
                     for _ in range(rng.randint(0, 4)))
    return rng.randrange(ring.p)


def rand_poly(rng, ring, length, bits):
    return Polynomial(ring, [rand_coeff(rng, ring, bits) for _ in range(length)])


def assert_canonical(poly):
    cs = poly.coeffs
    assert isinstance(cs, tuple)
    assert not cs or cs[-1]
    for c in cs:
        if poly.ring is QQ:
            assert type(c) is Fraction
        elif poly.ring is QA:
            assert isinstance(c, tuple) and (not c or c[-1] != 0)
            assert all(type(f) is Fraction for f in c)
        else:
            assert type(c) is int and 0 <= c < poly.ring.p


@pytest.mark.parametrize("ring", [QQ, QA] + [PrimeField(p) for p in PRIMES],
                         ids=["Q", "Qa"] + [f"F{p}" for p in PRIMES])
def test_products_match_the_ring_loop(ring):
    rng = random.Random(repr(ring))
    lengths = (0, 1, 2, 5, 40, 60) if ring is QA else (0, 1, 2, 5, 40, 150)
    for _ in range(30):
        bits = rng.choice((1, 10, 90, 400))
        f = rand_poly(rng, ring, rng.choice(lengths), bits)
        g = rand_poly(rng, ring, rng.choice(lengths), bits)
        for prod, expected in ((f * g, ring_loop_mul(ring, f.coeffs, g.coeffs)),
                               (f * f, ring_loop_mul(ring, f.coeffs, f.coeffs))):
            assert prod.coeffs == expected
            assert_canonical(prod)
    zero = Polynomial.zero(ring)
    assert (zero * zero).coeffs == ()
    assert (rand_poly(rng, ring, 50, 30) * zero).coeffs == ()


@pytest.mark.parametrize("p", PRIMES)
def test_fp_division(p):
    field = PrimeField(p)
    rng = random.Random(p)
    for _ in range(60):
        den = rand_poly(rng, field, rng.randint(1, 60), 0)
        num = rand_poly(rng, field, rng.randint(0, 150), 0)
        if den.is_zero:
            continue
        quot, rem = _divmod_ints(num.coeffs, den.coeffs, p)
        assert (quot, rem) == _divmod_generic(field, num.coeffs, den.coeffs)
        q, r = divmod(num, den)
        assert (q.coeffs, r.coeffs) == (quot, rem)
        assert q * den + r == num
        assert r.degree < den.degree
        assert_canonical(q)
        assert_canonical(r)


def test_z_monic_division_matches_the_ring_loop():
    """QQ._divmod's integer route, for integer and rational numerators."""
    rng = random.Random(1100)
    for _ in range(60):
        bits = rng.choice((1, 10, 90))
        den = Polynomial(QQ, [signed(rng, bits) for _ in range(rng.randint(0, 40))]
                         + [1])
        ints = Polynomial(QQ, [signed(rng, bits)
                               for _ in range(rng.randint(0, 120))])
        for num in (ints, rand_poly(rng, QQ, rng.randint(0, 120), bits)):
            expected = _divmod_generic(QQ, num.coeffs, den.coeffs)
            assert QQ._divmod(num.coeffs, den.coeffs) == expected
            q, r = divmod(num, den)
            assert (q.coeffs, r.coeffs) == expected
            assert q * den + r == num
            assert_canonical(q)
            assert_canonical(r)


@pytest.mark.parametrize("ring", [QQ, PrimeField(7)], ids=["Z", "F7"])
def test_division_by_sparse_cyclotomics(ring):
    """Phi_k for k <= 60 is monic and sparse; the integer loop visits only
    its nonzero terms below the lead."""
    rng = random.Random(repr(ring))
    p = ring.p if ring is not QQ else None
    for k in range(1, 61):
        den = Polynomial(ring, cyclotomic_poly(k).coeffs)
        den_ints = [int(c) for c in den.coeffs]
        for length in (0, den.degree, den.degree + 1, 3 * den.degree + 7):
            num = Polynomial(ring, [signed(rng, 40) for _ in range(length)])
            expected = _divmod_generic(ring, num.coeffs, den.coeffs)
            ints = [int(c) for c in num.coeffs]
            assert _divmod_ints(ints, den_ints, p) == expected
            q, r = divmod(num, den)
            assert (q.coeffs, r.coeffs) == expected
            assert q * den + r == num
        # an exact multiple leaves no remainder
        q, r = divmod(den * (num + 1), den)
        assert q == num + 1 and not r


SHORT_NUMERATORS = [
    # Z-monic: the integer loop of QQ._divmod
    ("Z-monic", QQ._divmod, QQ, [3, -1], [1, 0, 2, 1]),
    ("Z-ints", _divmod_ints, QQ, [3, -1], [1, 0, 2, 1]),
    # a rational numerator over a Z-monic divisor takes the integer loop too
    ("Q-over-Z-monic", QQ._divmod, QQ, [Fraction(1, 2), 5], [1, 0, 2, 1]),
    # Q, not monic: QQ._divmod hands over to the generic loop
    ("Q", QQ._divmod, QQ, [Fraction(1, 2), 5], [1, 0, 3]),
    ("Fp", lambda n, d: _divmod_ints(n, d, 7), PrimeField(7), [6, 2], [1, 3, 5]),
    ("Qa", lambda n, d: _divmod_generic(QA, n, d), QA,
     [(1, 2), (), (0, 0, 1)], [(1,), (0, 1), (3,), (Fraction(1, 3),)]),
    # monic over Z[a]: the packed loop of QA._divmod
    ("Qa-packed", QA._divmod, QA,
     [(1, 2), (), (0, 0, Fraction(1, 3))], [(1,), (0, -1), (3,), (1,)]),
]


@pytest.mark.parametrize("kernel,ring,num,den",
                         [case[1:] for case in SHORT_NUMERATORS],
                         ids=[case[0] for case in SHORT_NUMERATORS])
def test_division_with_a_shorter_numerator(kernel, ring, num, den):
    num, den = Polynomial(ring, num), Polynomial(ring, den)
    for n in (num, Polynomial.zero(ring)):
        assert kernel(n.coeffs, den.coeffs) == ((), n.coeffs)
        quot, rem = divmod(n, den)
        assert quot.is_zero and rem == n
        assert_canonical(rem)


def z_monic_qa_divisor(rng, length, bits):
    """A divisor monic in x over Z[a], with negative and zero a-coeffs."""
    def elem():
        if rng.random() < 0.25:
            return ()
        return tuple(Fraction(signed(rng, bits) if rng.random() < 0.7 else 0)
                     for _ in range(rng.randint(1, 4)))
    return Polynomial(QA, [elem() for _ in range(length - 1)] + [(1,)])


def count_packed_loops(monkeypatch):
    """Record the integer loops that QA._divmod runs on packed operands."""
    calls = []

    def counted(*args):
        if sys._getframe(1).f_code is QA._divmod.__func__.__code__:
            calls.append(args)
        return _divmod_ints(*args)

    monkeypatch.setattr(polycore, "_divmod_ints", counted)
    return calls


class TestPackedQaDivision:
    """QA._divmod packs a divisor monic over Z[a] at a = 2**(8w); the ring
    loop _divmod_generic stays the reference."""

    def check(self, num, den):
        expected = _divmod_generic(QA, num.coeffs, den.coeffs)
        assert QA._divmod(num.coeffs, den.coeffs) == expected
        q, r = divmod(num, den)
        assert (q.coeffs, r.coeffs) == expected
        assert q * den + r == num
        assert_canonical(q)
        assert_canonical(r)
        return r

    def test_seeded_divisors_monic_over_z_a(self):
        rng = random.Random(6060)
        remainders = 0
        for _ in range(40):
            bits = rng.choice((1, 8, 40))
            den = z_monic_qa_divisor(rng, rng.randint(1, 8), bits)
            num = rand_poly(rng, QA, rng.randint(0, 30), bits)
            remainders += bool(self.check(num, den))
            # an exact multiple leaves no remainder
            assert not self.check(den * num, den)
        assert remainders

    def test_nonzero_remainder(self):
        num = parse_polynomial("x^5 - a*x^2 + 1/2")
        den = parse_polynomial("x^2 - (a^2 + 3)*x - a")
        assert self.check(num, den)

    def test_slot_overflow_retries_with_wider_slots(self, monkeypatch):
        # the quotient's coefficients reach 1000^19 * a^19, far beyond the
        # first slot width, which the numerator and divisor alone set
        num = parse_polynomial("x^20 - 7*a*x^3 + 1/3")
        den = parse_polynomial("x - 1000*a")
        self.check(num, den)
        calls = count_packed_loops(monkeypatch)
        q = divmod(num, den)[0]
        assert len(calls) > 1
        assert q.coeffs[0][19] == 1000**19

    @pytest.mark.parametrize("den", ["2*x^2 + a", "2", "x^2 + 1/2*a"])
    def test_other_divisors_take_the_ring_loop(self, den, monkeypatch):
        calls = count_packed_loops(monkeypatch)
        num = parse_polynomial("x^5 + a^2*x^3 - 3*a*x + 1/5", QA)
        self.check(num, parse_polynomial(den, QA))
        # where the quotient leaves Q[a], the ring loop raises
        with pytest.raises(ExactDivisionError):
            divmod(num, parse_polynomial("a*x + 1", QA))
        assert not calls


@pytest.mark.parametrize("ring", [QQ, QA], ids=["Q", "Qa"])
def test_a_second_instance_computes_like_the_first(ring):
    """A ring built as type(QQ)() or type(QA)() carries the same kernels:
    both product routes (fewer than _SCHOOLBOOK_TERMS nonzero terms in the
    shorter factor, and more) and both division routes (a divisor monic
    over Z or Z[a], and the ring loop) give the coefficients of QQ or QA.
    It is still a ring of its own, so mixing it with QQ or QA is refused."""
    other = type(ring)()
    rng = random.Random(repr(ring) + "second")

    def dense(length):
        return Polynomial(ring, [ring.coerce(rand_coeff(rng, ring, 20))
                                 or ring.one for _ in range(length)])

    def over_other(poly):
        return Polynomial(other, poly.coeffs)

    long, short = dense(2 * _SCHOOLBOOK_TERMS), dense(4)
    if ring is QA:
        monic = z_monic_qa_divisor(rng, 6, 8)
    else:
        monic = Polynomial(QQ, [signed(rng, 8) for _ in range(5)] + [1])
    generic = short + Polynomial.x(ring) ** 4 * 3  # lead 3: the ring loop
    for f, g in ((long, short), (long, long), (short, short)):
        assert (over_other(f) * over_other(g)).coeffs == (f * g).coeffs
    for den in (monic, generic):
        q, r = divmod(over_other(long), over_other(den))
        assert (q.coeffs, r.coeffs) == tuple(
            p.coeffs for p in divmod(long, den))
        assert q.ring is other and r.ring is other
    for op in (operator.mul, divmod):
        with pytest.raises(DomainError):
            op(over_other(long), short)
        with pytest.raises(DomainError):
            op(long, over_other(short))


def horner(outer, inner):
    """Plain Horner composition, the reference for Polynomial.compose."""
    acc = Polynomial.zero(outer.ring)
    for c in reversed(outer.coeffs):
        acc = acc * inner + Polynomial.constant(outer.ring, c)
    return acc


@pytest.mark.parametrize("ring", [QQ, PrimeField(7121), QA],
                         ids=["Q", "F7121", "Qa"])
def test_compose_matches_plain_horner(ring):
    rng = random.Random(repr(ring) + "compose")
    for degree in range(5):
        for _ in range(6):
            outer = rand_poly(rng, ring, degree + 1, 20)
            inner = rand_poly(rng, ring, rng.choice((0, 1, 2, 4, 9)), 20)
            composed = outer.compose(inner)
            assert composed == horner(outer, inner)
            assert_canonical(composed)
    f = Polynomial(ring, [ring.coerce(c) for c in (3, 1, 1)])
    for n in (3, 4):
        phi = dynatomic_poly(f, n)
        assert phi.compose(f) == horner(phi, f)
