"""Exact dense univariate polynomial arithmetic over three coefficient rings.

Polynomials in ``x`` are coefficient sequences in ascending degree with a
nonzero leading coefficient (the zero polynomial is the empty sequence).
The coefficient ring is one of three, each with its own product and
division kernels, the ring's ``_product`` and ``_divmod``:

* ``QQ`` -- the rationals, elements are ``fractions.Fraction``;
* ``PrimeField(p)`` -- integers modulo a prime, elements are ints in [0, p);
* ``QA`` -- rational-coefficient polynomials in a single parameter ``a``,
  elements are tuples of ``Fraction`` in ascending degree with no trailing
  zeros.  This is the ring Q[a], not the fraction field Q(a): divisions that
  would need fraction-field coefficients raise ``ExactDivisionError``.
  Such a tuple is a Q coefficient vector in ``a``, so Q[a] multiplies and
  divides its elements with the same kernels as Q[x].

Each ring is a ``CoefficientRing``, the one arithmetic protocol: coerce,
add, neg, mul, exact_div, pow and format, with no subtraction of its own
(the division loop adds the negated quotient term).  It serves both the
polynomial arithmetic and the subresultant remainder sequence behind
``resultant``; over Q that sequence runs on a private integer ring after
clearing denominators.  Its only zero test is the truth test: a ring
element is falsy exactly when it is zero.

Every ``_product`` runs on one integer kernel, ``_convolve``.  It multiplies
by Kronecker substitution: each signed integer operand is packed into
fixed-width byte slots of one big int, the two ints are multiplied once,
and the slots are read back.  When the shorter operand has fewer than
``_SCHOOLBOOK_TERMS`` nonzero terms, a zero-skipping schoolbook loop runs
instead, since packing costs more than a few big-int products.  Over Q the
kernel sees the numerators over a common denominator; over F_p the residues
themselves, reduced after the product; over Q[a] both operands are cleared
to integers and flattened, x-degree i and a-degree j going to slot
``i*width + j``, so that one integer product gives the whole result.  Every
``_divmod`` has one integer loop, ``_divmod_ints``, over the nonzero terms
of the divisor below its lead: over F_p, with one inverse of the lead, over
Q for a monic integer divisor, with the numerator's denominators cleared
once, and over Q[a] for a divisor monic over Z[a], with each cleared Z[a]
coefficient packed into one int at a = 2**(8w) and a bound on the slots
proving the unpacked result.  Everything else, and the pseudo-remainders of
the resultant's remainder sequence, runs the generic ring loop; the private
integer ring is Q's arithmetic on ints with a checked exact division.

All arithmetic is exact; floating point appears nowhere.  Exact division
failures carry the offending remainder because a nonzero remainder is
usually the interesting mathematical outcome, not an error condition.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .errors import DomainError, ExactDivisionError


# ---------------------------------------------------------------------------
# coefficient rings

def _power(mul, one, u, k: int):
    """u**k for an int k >= 0, by square-and-multiply on mul from one."""
    result = one
    while k:
        if k & 1:
            result = mul(result, u)
        k >>= 1
        if k:
            u = mul(u, u)
    return result


class CoefficientRing:
    """The one arithmetic protocol: every ring defines zero, one, coerce,
    add, neg, mul, exact_div, format and Polynomial's two kernels on
    coefficient tuples, ``_product(a, b)`` and ``_divmod(num, den)``, and
    may override pow.  The protocol is closed: its rings are ``QQ``, ``QA``,
    ``PrimeField(p)`` and the private Z ring, which inherits Q's kernels.

    The truth test is the protocol's only zero test: in every ring an
    element is falsy exactly when it is zero, and every loop skips with it.
    """

    characteristic: int = 0
    tag: str = "?"

    def pow(self, u, k: int):
        """u**k for an int k >= 0, by square-and-multiply on ``mul``."""
        return _power(self.mul, self.one, u, k)


class _Rationals(CoefficientRing):
    tag = "Q"

    zero = Fraction(0)
    one = Fraction(1)
    #: the one string form read; any other (an exponent, say) builds no int
    _form = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) or (isinstance(value, str)
                                      and self._form.fullmatch(value)):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise DomainError(f"zero denominator in {value!r}") from None
        raise DomainError(f"cannot interpret {value!r} as a rational")

    def add(self, u, v):
        return u + v

    def mul(self, u, v):
        return u * v

    def neg(self, u):
        return -u

    def exact_div(self, u, v):
        return u / v

    def format(self, u) -> str:
        return str(u)

    def _product(self, a: tuple, b: tuple) -> tuple:
        ia, da = _clear_denominators(a)
        ib, db = (ia, da) if b is a else _clear_denominators(b)
        return _to_fractions(_convolve(ia, ib), da * db)

    def _divmod(self, num: tuple, den: tuple) -> tuple[tuple, tuple]:
        # A monic integer divisor keeps the loop in Z.  The cleared numerator
        # goes in as a generator, so no list holds its ints while the loop runs.
        if den[-1] == 1 and all(c.denominator == 1 for c in den):
            scale = math.lcm(*(c.denominator for c in num))
            ints = (c.numerator * (scale // c.denominator) for c in num)
            quot, rem = _divmod_ints(ints, [int(c) for c in den])
            return _to_fractions(quot, scale), _to_fractions(rem, scale)
        return _divmod_generic(self, num, den)

    def __repr__(self) -> str:
        return "QQ"


class _Integers(_Rationals):
    """Z on plain ints: the Q resultant's remainder sequence, once each
    operand's denominators are cleared, runs here.  Q's add, mul and neg
    serve ints unchanged; only the checked division and the power differ.
    Arithmetic only; no polynomial is ever built over it.
    """

    tag = "Z"
    zero = 0
    one = 1

    def exact_div(self, u, v):
        q, r = divmod(u, v)
        if r:
            raise ExactDivisionError("inexact integer division")
        return q

    def pow(self, u, k: int):
        return u**k

    def __repr__(self) -> str:
        return "ZZ"


class PrimeField(CoefficientRing):
    tag = "Fp"

    def __init__(self, p: int):
        from .numtheory import is_prime

        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, value) -> int:
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise DomainError(
                    f"denominator of {value} is not invertible mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        if isinstance(value, str):
            return self.coerce(QQ.coerce(value))
        raise DomainError(f"cannot interpret {value!r} mod {self.p}")

    def add(self, u, v):
        return (u + v) % self.p

    def mul(self, u, v):
        return u * v % self.p

    def neg(self, u):
        return -u % self.p

    def exact_div(self, u, v):
        return u * pow(v, -1, self.p) % self.p

    def format(self, u) -> str:
        return str(u % self.p)

    def _product(self, a: tuple, b: tuple) -> tuple:
        return _strip([c % self.p for c in _convolve(a, b)])

    def _divmod(self, num: tuple, den: tuple) -> tuple[tuple, tuple]:
        return _divmod_ints(num, den, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class _ParamRing(CoefficientRing):
    """Q[a]: polynomials in the parameter ``a`` with rational coefficients.

    An element is a Q coefficient vector in ``a``, so multiplication and
    division of elements reuse ``QQ``'s kernels.
    """

    tag = "Qa"

    zero = ()
    one = (Fraction(1),)

    #: the generator ``a`` as a ring element
    param = (Fraction(0), Fraction(1))

    def coerce(self, value) -> tuple:
        if isinstance(value, tuple):
            return _strip([QQ.coerce(c) for c in value])
        if isinstance(value, (int, Fraction)):
            c = Fraction(value)
            return (c,) if c else ()
        if isinstance(value, str):
            return _parse_qa_coefficient(value)
        raise DomainError(f"cannot interpret {value!r} as an element of Q[a]")

    def add(self, u, v):
        if len(u) < len(v):
            u, v = v, u
        out = list(u)
        for i, c in enumerate(v):
            out[i] += c
        return _strip(out)

    def mul(self, u, v):
        return _mul_coeffs(QQ, u, v)

    def neg(self, u):
        return tuple(-c for c in u)

    def exact_div(self, u, v):
        if not v:
            raise ZeroDivisionError("division by the zero element of Q[a]")
        q, r = QQ._divmod(u, v)
        if r:
            raise ExactDivisionError("inexact coefficient division in Q[a]")
        return q

    def pow(self, u, k: int):
        if len(u) == 1:
            return (u[0] ** k,)
        return super().pow(u, k)

    def format(self, u) -> str:
        return _format_terms(u, "a", str)

    def _product(self, a: tuple, b: tuple) -> tuple:
        # Products of a-degrees stay below width, so each x-degree of the flat
        # product keeps its own block.
        width = max(map(len, a)) + max(map(len, b)) - 1
        fa, da = _flatten(a, width)
        fb, db = (fa, da) if b is a else _flatten(b, width)
        flat = _convolve(fa, fb)
        out = [()] * (len(a) + len(b) - 1)
        for k in {s - s % width for s, c in enumerate(flat) if c}:
            out[k // width] = _to_fractions(flat[k:k + width], da * db)
        return tuple(out)

    def _divmod(self, num: tuple, den: tuple) -> tuple[tuple, tuple]:
        """Q[a] division; a divisor D monic in x over Z[a] runs on packed ints.

        N, cleared to Z[a] once, and D are packed at a = 2**(8w), a ring map to
        Z under which D stays monic, so _divmod_ints gives the images of the
        quotient Q and remainder R, and their slots give Q' and R'.  Every
        a-coefficient of E = Q'*D + R' - N is at most max|Q'| * |D|_1 + max|R'|
        + max|N| in size.  When that is below 2**(8w), E = 0, since E vanishes
        at a = 2**(8w) and the lowest nonzero coefficient of such a polynomial
        is a multiple of 2**(8w).  Division by a monic D is unique, so Q' = Q
        and R' = R; otherwise w doubles.  Other divisors take the ring loop.
        """
        if den[-1] != self.one or any(f.denominator != 1
                                      for c in den for f in c):
            return _divmod_generic(self, num, den)
        scale = math.lcm(*(f.denominator for c in num for f in c))
        ints = [[f.numerator * (scale // f.denominator) for f in c]
                for c in num]
        dints = [[f.numerator for f in c] for c in den]
        max_n = max((abs(v) for c in ints for v in c), default=0)
        norm_d = sum(abs(v) for c in dints for v in c)
        w = (max(max_n, 1) * norm_d).bit_length() // 8 + 1
        while True:
            quot, rem = _divmod_ints((_pack(c, w) if c else 0 for c in ints),
                                     [_pack(c, w) if c else 0 for c in dints])
            # n' slots put |v| in (2**(8w(n'-1)-2), 2**(8wn')): n' or n'+1
            quot, rem = ([_unpack(v, w, (v.bit_length() + 1) // (8 * w) + 1)
                          for v in vs] for vs in (quot, rem))
            max_q = max((abs(v) for c in quot for v in c), default=0)
            max_r = max((abs(v) for c in rem for v in c), default=0)
            if max_q * norm_d + max_r + max_n < 1 << (8 * w):
                break
            w *= 2
        return (_strip([_to_fractions(c, scale) for c in quot]),
                _strip([_to_fractions(c, scale) for c in rem]))

    def __repr__(self) -> str:
        return "QA"


QQ = _Rationals()
QA = _ParamRing()
_ZZ = _Integers()


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable dense univariate polynomial in ``x`` over a coefficient ring."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CoefficientRing, coeffs: Iterable = ()):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs",
                           _strip([ring.coerce(c) for c in coeffs]))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial instances are immutable")

    # -- construction helpers

    @classmethod
    def zero(cls, ring: CoefficientRing) -> "Polynomial":
        return cls(ring, ())

    @classmethod
    def one(cls, ring: CoefficientRing) -> "Polynomial":
        return cls(ring, (1,))

    @classmethod
    def x(cls, ring: CoefficientRing) -> "Polynomial":
        return cls(ring, (0, 1))

    @classmethod
    def constant(cls, ring: CoefficientRing, c) -> "Polynomial":
        return cls(ring, (c,))

    # -- structure

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:  # falsy exactly when zero, like ring elements
        return bool(self.coeffs)

    @property
    def lc(self):
        if not self.coeffs:
            raise DomainError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def x_valuation(self) -> int:
        """Multiplicity of the root x = 0; raises on the zero polynomial."""
        if not self.coeffs:
            raise DomainError("the zero polynomial has no x-adic valuation")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unnormalized polynomial")  # pragma: no cover

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise DomainError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    # -- ring operations

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __add__(self, other):
        other = self._coerce_operand(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = ring.add(out[i], c)
        return _raw(ring, _strip(out))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        ring = self.ring
        return _raw(ring, tuple([ring.neg(c) if c else c for c in self.coeffs]))

    def __sub__(self, other):
        return self.__add__(-self._coerce_operand(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce_operand(other)
        return _raw(self.ring, _mul_coeffs(self.ring, self.coeffs, other.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("polynomial exponent must be a nonnegative int")
        return _power(operator.mul, Polynomial.one(self.ring), self, k)

    def _coerce_operand(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            return other
        return Polynomial.constant(self.ring, other)

    # -- evaluation and composition

    def evaluate(self, value):
        """Exact Horner evaluation at a ring element."""
        ring = self.ring
        v = ring.coerce(value)
        acc = ring.zero
        for c in reversed(self.coeffs):
            acc = ring.add(ring.mul(acc, v), c)
        return acc

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(x)), exact, by Horner's rule whose top two steps are
        one square: c_k*g*g + c_(k-1)*g + c_(k-2) with g = inner, so that an
        iterate of a quadratic is one square.  No table of powers of g is
        kept, as self may be large (Phi_n composed with f)."""
        inner = self._coerce_operand(inner)
        cs = self.coeffs
        acc = Polynomial.zero(self.ring)
        if len(cs) > 2:
            acc = inner * inner * cs[-1] + inner * cs[-2] + cs[-3]
            cs = cs[:-3]
        for c in reversed(cs):
            acc = acc * inner + Polynomial.constant(self.ring, c)
        return acc

    def derivative(self) -> "Polynomial":
        ring = self.ring
        out = [ring.mul(ring.coerce(i), c)
               for i, c in enumerate(self.coeffs) if i > 0]
        return _raw(ring, _strip(out))

    def specialize(self, value) -> "Polynomial":
        """Substitute a rational value for the parameter a (Q[a] -> Q)."""
        if self.ring is not QA:
            raise DomainError("specialize() applies to polynomials over QA")
        v = QQ.coerce(value)
        return Polynomial(QQ, [_raw(QQ, c).evaluate(v) for c in self.coeffs])

    # -- division

    def __divmod__(self, den: "Polynomial"):
        den = self._coerce_operand(den)
        if den.is_zero:
            raise DomainError("polynomial division by zero")
        q, r = self.ring._divmod(self.coeffs, den.coeffs)
        return _raw(self.ring, q), _raw(self.ring, r)

    def __mod__(self, den: "Polynomial"):
        return divmod(self, den)[1]

    def div_exact(self, den: "Polynomial") -> "Polynomial":
        """Exact quotient; a nonzero remainder raises ExactDivisionError.

        The raised error carries the remainder: callers use it as a
        witness of non-divisibility.
        """
        quot, rem = divmod(self, den)
        if not rem.is_zero:
            raise ExactDivisionError(
                f"nonzero remainder of degree {rem.degree}", remainder=rem)
        return quot

    # -- presentation

    def to_text(self) -> str:
        return _format_terms(self.coeffs, "x", self.ring.format)

    def __repr__(self):
        return f"<{self.to_text()} over {self.ring!r}>"

    def to_json_dict(self) -> dict:
        out: dict = {"ring": self.ring.tag}
        if isinstance(self.ring, PrimeField):
            out["p"] = self.ring.p
        out["coeffs"] = [self.ring.format(c) for c in self.coeffs]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        tag = data.get("ring")
        if tag == "Q":
            ring: CoefficientRing = QQ
        elif tag == "Qa":
            ring = QA
        elif tag == "Fp":
            p = data.get("p")
            if type(p) is not int:  # also refuses a bool
                raise DomainError(
                    f"an Fp polynomial needs its prime p as an int, not {p!r}")
            ring = PrimeField(p)
        else:
            raise DomainError(f"unknown ring tag {tag!r}")
        coeffs = data.get("coeffs", [])
        if not isinstance(coeffs, list):
            raise DomainError(f"coeffs must be a list, not {coeffs!r}")
        if any(isinstance(c, bool) for c in coeffs):
            raise DomainError("a coefficient must not be a bool")
        return cls(ring, coeffs)


def _raw(ring: CoefficientRing, coeffs: tuple) -> Polynomial:
    """Wrap already-canonical coefficients without re-coercing them."""
    poly = Polynomial.__new__(Polynomial)
    object.__setattr__(poly, "ring", ring)
    object.__setattr__(poly, "coeffs", tuple(coeffs))
    return poly


def _iterates(f: Polynomial, needed: Collection[int],
              modulus: Polynomial | None = None) -> dict[int, Polynomial]:
    """The iterates f**k(x) for k in needed (and k = 0), composing no further;
    each is reduced mod modulus when one is given."""
    current = Polynomial.x(f.ring)
    if modulus is not None:
        current = current % modulus
    table = {0: current}
    for k in range(1, max(needed, default=0) + 1):
        current = f.compose(current)
        if modulus is not None:
            current = current % modulus
        if k in needed:
            table[k] = current
    return table


def _strip(cs: Sequence) -> tuple:
    """cs without its trailing zeros, which are falsy in every ring."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


# ---------------------------------------------------------------------------
# multiplication kernels

def _mul_coeffs(ring: CoefficientRing, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) == 1 or len(b) == 1:
        c, rest = (a[0], b) if len(a) == 1 else (b[0], a)
        if c == ring.one:
            return rest
        # Zero entries are falsy in every ring and stay as they are.
        return tuple([ring.mul(c, r) if r else r for r in rest])
    return ring._product(a, b)


# Below this many nonzero terms in the shorter operand the zero-skipping
# schoolbook loop runs instead of packing.  Measured with time.perf_counter,
# best of 3-10 runs, on CPython 3.11: a dense operand of length 50-4000 times
# one with k nonzero terms spread over 4k slots.  At k = 32 packing was 1.4-7x
# faster with 20-100-bit coefficients and 1.1-2x slower with 500-1000-bit
# ones, where each schoolbook term is one big-int product in C either way; at
# k = 8 schoolbook won everywhere except 20-bit operands of length >= 200.
_SCHOOLBOOK_TERMS = 32


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Integer product coefficients of two int sequences.

    Sparse short operands run a zero-skipping schoolbook loop; everything
    else is one big-int product by Kronecker substitution.
    """
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    if len(terms) < _SCHOOLBOOK_TERMS:
        out = [0] * (len(a) + len(b) - 1)
        for j, bj in terms:
            for i, ai in enumerate(a):
                if ai:
                    out[i + j] += ai * bj
        return out
    # Every output coefficient is a sum of at most len(b) products ai*bj,
    # so |out[k]| <= max|a| * max|b| * len(b) <= bound, which also bounds
    # every input coefficient (hence the "or 1").  A signed slot of w bytes
    # with 2**(8w-1) > bound holds each input and each out[k] exactly.
    bound = (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1) * len(b)
    w = bound.bit_length() // 8 + 1
    packed_a = _pack(a, w)
    return _unpack(packed_a * (packed_a if a is b else _pack(b, w)), w,
                   len(a) + len(b) - 1)


def _pack(cs: Sequence[int], w: int) -> int:
    """sum(c * 2**(8*w*k)) for signed ints c with |c| < 2**(8w-1)."""
    zero = bytes(w)
    packed = int.from_bytes(b"".join(
        [c.to_bytes(w, "little") if c > 0 else zero for c in cs]), "little")
    if min(cs) < 0:
        packed -= int.from_bytes(b"".join(
            [(-c).to_bytes(w, "little") if c < 0 else zero for c in cs]),
            "little")
    return packed


def _unpack(value: int, w: int, n: int) -> list[int]:
    """The n slots s[k] in [-2**(8w-1), 2**(8w-1)) of value = sum(s[k] *
    2**(8*w*k)), read signed from n + 1 slots of value's bytes (n slots of
    -2**(8w-1) overflow n), each plus 1 if the one below read negative or
    came to 2**(8w-1), then -2**(8w-1)."""
    buf = value.to_bytes(n * w + w, "little", signed=True)
    half, read = 1 << (8 * w - 1), int.from_bytes
    out = [read(buf[k:k + w], "little", signed=True) + (k and buf[k - 1] >> 7)
           for k in range(0, len(buf), w)]
    for k in range(n) if half in out else ():
        if out[k] == half:
            out[k], out[k + 1] = -half, out[k + 1] + 1
    out.pop()  # slot n: 0 for every value that n slots hold
    return out


def _clear_denominators(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and a common denominator d with cs[k] == n[k] / d."""
    den = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


def _to_fractions(ints: list[int], den: int) -> tuple:
    """The stripped tuple of ints[k] / den; only nonzero entries build."""
    ints = _strip(ints)
    zero = QQ.zero
    if den == 1:
        return tuple([Fraction(c) if c else zero for c in ints])
    return tuple([Fraction(c, den) if c else zero for c in ints])


def _flatten(coeffs: tuple, width: int) -> tuple[list[int], int]:
    """Q[a][x] coefficients as integers at slot i*width + j over one denominator."""
    ints, den = _clear_denominators([f for c in coeffs for f in c])
    flat = [0] * ((len(coeffs) - 1) * width + len(coeffs[-1]))
    pos = 0
    for i, c in enumerate(coeffs):
        if c:
            flat[i * width:i * width + len(c)] = ints[pos:pos + len(c)]
            pos += len(c)
    return flat, den


# ---------------------------------------------------------------------------
# division kernels

def _divmod_ints(num: Iterable[int], den: Sequence[int],
                 p: int | None = None) -> tuple[tuple, tuple]:
    """Quotient and stripped remainder of int sequences, over Z or mod p.

    Over Z the divisor is monic.  Mod p its lead is inverted once, and the
    remainder entries run unreduced (each below (deg den + 1) * p**2) until
    the loop consumes them.  Only the divisor's nonzero lower terms are read.
    """
    dd = len(den) - 1
    inv = 1 if p is None else pow(den[-1], -1, p)
    terms = [(i, di) for i, di in enumerate(den[:-1]) if di]
    rem = list(num)
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k] if p is None else rem[k] % p * inv % p
        if c:
            quot[k - dd] = c
            base = k - dd
            for i, di in terms:
                rem[base + i] -= c * di
    rem = rem[:dd] if p is None else [c % p for c in rem[:dd]]
    return tuple(quot), _strip(rem)


def _divmod_generic(ring: CoefficientRing, num: tuple,
                    den: tuple) -> tuple[tuple, tuple]:
    dd = len(den) - 1
    lead = den[-1]
    rem = list(num)
    quot = [ring.zero] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        c = rem[k]
        if not c:
            continue
        try:
            c = ring.exact_div(c, lead)
        except ExactDivisionError as exc:
            raise ExactDivisionError(
                "leading-coefficient division is not exact in "
                f"{ring!r}; the quotient leaves the ring") from exc
        quot[k - dd] = c
        c = ring.neg(c)
        for i in range(dd + 1):
            rem[k - dd + i] = ring.add(rem[k - dd + i], ring.mul(c, den[i]))
    return _strip(quot), _strip(rem[:dd])


# ---------------------------------------------------------------------------
# resultants via a fraction-free subresultant remainder sequence

def _prs_prem(a: Sequence, b: Sequence, ring: CoefficientRing) -> tuple:
    """Pseudo-remainder of a by b: lc(b)^(da-db+1) * a mod b, over an
    integral domain, on the ring division loop.

    Pseudo-division puts the quotient of the scaled a in the ring.  The
    quotient over the fraction field is unique, so each step's
    leading-coefficient division yields one of its coefficients and is
    exact in the ring.
    """
    scale = ring.pow(b[-1], len(a) - len(b) + 1)
    return _divmod_generic(ring, [ring.mul(scale, c) for c in a], b)[1]


def _prs_resultant(a: list, b: list, ring: CoefficientRing):
    """Resultant by the subresultant PRS (fraction-free bookkeeping).

    Follows the classical sub-resultant algorithm: divisions by g*h**delta
    are exact over any integral domain, and the final correction yields the
    true resultant including sign.
    """
    sign = 1
    if len(a) < len(b):
        if (len(a) - 1) * (len(b) - 1) % 2 == 1:
            sign = -sign
        a, b = b, a
    if len(a) == 1:
        return ring.one  # two nonzero constants
    if len(b) == 1:
        value = ring.pow(b[0], len(a) - 1)
        return ring.neg(value) if sign < 0 else value
    g = h = ring.one
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        rem = _prs_prem(a, b, ring)
        if not rem:
            return ring.zero  # shared factor
        divisor = ring.mul(g, ring.pow(h, delta))
        a = b
        b = [ring.exact_div(c, divisor) for c in rem]
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = ring.exact_div(ring.pow(g, delta), ring.pow(h, delta - 1))
        if len(b) == 1:
            break
    da = len(a) - 1
    final = ring.exact_div(ring.pow(b[0], da), ring.pow(h, da - 1))
    return ring.neg(final) if sign < 0 else final


def resultant(p: Polynomial, q: Polynomial):
    """Res(p, q) = lc(p)**deg(q) * prod q(root) over the roots of p.

    Computed by a fraction-free subresultant remainder sequence; returns a
    coefficient-ring element (zero exactly when p and q share a factor).
    Over Q it runs on P = s*p and Q = t*q over Z, s and t the common
    denominators: Res(p, q) = Res(P, Q) / (s**deg q * t**deg p).
    """
    if p.ring != q.ring:
        raise DomainError("resultant of polynomials over different rings")
    if p.is_zero or q.is_zero:
        raise DomainError("resultant of the zero polynomial is undefined")
    if p.ring is QQ:
        pa, s = _clear_denominators(p.coeffs)
        qa, t = _clear_denominators(q.coeffs)
        return Fraction(_prs_resultant(pa, qa, _ZZ),
                        s**q.degree * t**p.degree)
    return _prs_resultant(list(p.coeffs), list(q.coeffs), p.ring)


# ---------------------------------------------------------------------------
# text format: expressions over x, a, integer and p/q literals, + - * ^ ( )

_SPACE = " \t\r\n"  # the only whitespace the text format ignores
_TOKEN_RE = re.compile(r"[ \t\r\n]*([0-9]+|[xa()+\-*^/])")


def _tokenize(text: str) -> list[str]:
    tokens, pos, end = [], 0, len(text.rstrip(_SPACE))
    while pos < end:
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DomainError(f"unexpected character at {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser producing a polynomial over Q[a].

    Each pair of parentheses costs four Python frames, so nesting deeper
    than ``MAX_NESTING`` is refused well below the recursion limit.
    """

    MAX_NESTING = 100

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise DomainError("unexpected end of polynomial expression")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        poly = self.expr()
        if self.peek() is not None:
            raise DomainError(f"trailing tokens at {self.tokens[self.pos:]!r}")
        return poly

    def expr(self) -> Polynomial:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            terms.append(self.term())
        # one dense sum over all the terms c * x^k * rest
        out = [QA.zero] * max(k + (1 if rest is None else len(rest.coeffs))
                              for _, k, rest in terms)
        for c, k, rest in terms:
            if rest is None:
                out[k] = QA.add(out[k], c)
                continue
            for i, r in enumerate(rest.coeffs, k):
                if r:
                    out[i] = QA.add(out[i], QA.mul(c, r))
        return _raw(QA, _strip(out))

    def signs(self) -> int:
        """Read a run of + and - signs; -1 when it holds an odd number of -."""
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        return sign

    def term(self) -> tuple[tuple, int, Polynomial | None]:
        """One product, as (c, k, rest) for c * x^k * rest: the powers of
        constants and of b*x fold into the Q[a] element c and the exponent
        k, and rest, the product of the other powers, is None if there are
        none."""
        # a sign at the start of a term or after * negates the power after it
        sign = self.signs()
        c, k, rest = QA.one, 0, None
        while True:
            base, e = self.power()
            cs = base.coeffs
            if len(cs) == 2 and not cs[0]:
                c, k = QA.mul(c, QA.pow(cs[1], e)), k + e
            elif len(cs) <= 1:
                c = QA.mul(c, QA.pow(cs[0] if cs else QA.zero, e))
            else:
                rest = base**e if rest is None else rest * base**e
            if self.peek() != "*":
                break
            self.next()
            sign *= self.signs()
        return (c if sign == 1 else QA.neg(c)), k, rest

    def power(self) -> tuple[Polynomial, int]:
        """An atom and the exponent after it (1 when there is none)."""
        base = self.atom()
        if self.peek() != "^":
            return base, 1
        self.next()
        tok = self.next()
        if not tok.isdigit():
            raise DomainError("exponent must be a nonnegative integer")
        return base, int(tok)

    def atom(self) -> Polynomial:
        tok = self.next()
        if tok == "(":
            self.depth += 1
            if self.depth > self.MAX_NESTING:
                raise DomainError(f"parentheses nested deeper than "
                                  f"{self.MAX_NESTING}")
            inner = self.expr()
            if self.next() != ")":
                raise DomainError("unbalanced parentheses")
            self.depth -= 1
            return inner
        if tok == "x":
            return _raw(QA, ((), QA.one))
        if tok == "a":
            return _raw(QA, (QA.param,))
        if tok.isdigit():
            value = Fraction(int(tok))
            if self.peek() == "/":
                self.next()
                den = self.next()
                if not den.isdigit() or int(den) == 0:
                    raise DomainError("rational literal needs a positive "
                                      "integer denominator")
                value = Fraction(int(tok), int(den))
            return _raw(QA, ((value,),) if value else ())
        raise DomainError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, ring: CoefficientRing | None = None) -> Polynomial:
    """Parse the expression grammar over x, a, integers, p/q, + - * ^ ( ).

    With no explicit ring the result lives over Q, or over Q[a] when the
    parameter actually occurs.
    """
    poly_qa = _Parser(_tokenize(text)).parse()
    uses_param = any(len(c) > 1 for c in poly_qa.coeffs)
    if ring is None:
        ring = QA if uses_param else QQ
    if ring is QA:
        return poly_qa
    if uses_param:
        raise DomainError(f"polynomial {text!r} involves the parameter a "
                          f"but was requested over {ring!r}")
    consts = [c[0] if c else Fraction(0) for c in poly_qa.coeffs]
    return Polynomial(ring, consts)


def _parse_qa_coefficient(text: str) -> tuple:
    poly = _Parser(_tokenize(text)).parse()
    if poly.degree > 0:
        raise DomainError("coefficient strings may use only the parameter a")
    return poly.coeffs[0] if poly.coeffs else ()


def _format_terms(coeffs: Sequence, var: str, fmt) -> str:
    if not any(coeffs):
        return "0"
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        body = fmt(c)
        sign = "+"
        if " " in body:
            # multi-term coefficient (Q[a]): parenthesize, never fold the sign
            body = f"({body})"
        elif body.startswith("-"):
            sign, body = "-", body[1:]
        if k > 0:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if body == "1" else f"{body}*{xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)
