"""The benchmark's own exact arithmetic, independent of dynlab.

Everything the oracles need -- factoring by trial division, Moebius values,
the necklace fold, cyclotomic polynomials as products of (x^e - 1)^mu, the
dynatomic degree formulas, and a strict reader/writer for dynlab's polynomial
text format -- is written here from plain ints and ``Fraction`` so that no
oracle shares the code path it checks.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

# -- integers -----------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division (fine for n below ~10**13)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(out.items())


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 prime bases (exact below 3.1 * 10**23);
    used only to draw inputs, never to check an output."""
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in small:
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


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def next_prime_in_class(k: int, n: int) -> int:
    """The first prime 1 + j*n with j >= k."""
    while not is_probable_prime(1 + k * n):
        k += 1
    return 1 + k * n


def squarefree_divisors(n: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for the squarefree divisors e of n."""
    pairs = [(1, 1)]
    for p, _ in factor(n):
        pairs += [(e * p, -mu) for e, mu in pairs]
    return pairs


def phi_by_gcd(n: int) -> int:
    """Euler's phi by counting units, the slow definition on purpose."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cocore(d: int) -> int:
    return d // math.prod(p for p, _ in factor(d))


def xn1_divides_necklace(d: int, n: int, pairs=None) -> bool:
    """x^n - 1 | M_d: fold the Moebius-weighted exponents of d*M_d mod n."""
    sums: dict[int, int] = {}
    for e, mu in pairs if pairs is not None else squarefree_divisors(d):
        r = (d // e) % n
        sums[r] = sums.get(r, 0) + mu
    return not any(sums.values())


def dyn_degree(k: int, d: int) -> int:
    return sum(mu * k**(d // e) for e, mu in squarefree_divisors(d))


def gen_degree(k: int, m: int, n: int) -> int:
    base = dyn_degree(k, n)
    return base if m == 0 else k**(m - 1) * (k - 1) * base


def relation_conditions(m: int, n: int, c: int, d: int) -> dict[str, bool]:
    cond1 = m > c or d % n != 0
    cond2 = cocore(d) >= m - max(c - 1, 0)
    cond3 = xn1_divides_necklace(d, n)
    alt = d > 1 and c - 1 >= m and n == 1
    return {"cond1": cond1, "cond2": cond2, "cond3": cond3, "alt": alt,
            "admissible": (cond1 and cond2 and cond3) or alt}


# -- integer polynomials (ascending coefficient lists) ------------------------


def trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def _times_xe_minus_1(a: list, e: int) -> list:
    out = [0] * e + list(a)
    for i, x in enumerate(a):
        out[i] -= x
    return out


def _over_xe_minus_1(a: list, e: int) -> list:
    """Exact quotient by x^e - 1 (raises when it does not divide)."""
    q = [0] * (len(a) - e)
    rem = list(a)
    for k in range(len(a) - 1, e - 1, -1):
        c = rem[k]
        q[k - e] = c
        rem[k - e] += c
    if any(rem[:e]):
        raise ArithmeticError("x^e - 1 does not divide")
    return q


def cyclotomic(n: int) -> list[int]:
    """Phi_n = prod over e | n of (x^e - 1)^mu(n/e), integer coefficients."""
    poly = [1]
    pairs = [(n // e, mu) for e, mu in squarefree_divisors(n)]
    for e, mu in sorted(pairs, key=lambda p: -p[1]):
        poly = _times_xe_minus_1(poly, e) if mu == 1 else _over_xe_minus_1(poly, e)
    return poly


# -- dynlab's polynomial text format ------------------------------------------


def format_terms(coeffs: list, var: str, fmt, is_zero=lambda c: not c) -> str:
    """Render ascending coefficients exactly as dynlab documents its format."""
    parts: list[str] = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if is_zero(c):
            continue
        body = fmt(c)
        sign = "+"
        if " " in body:
            body = f"({body})"
        elif body.startswith("-"):
            sign, body = "-", body[1:]
        if k > 0:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if body == "1" else f"{body}*{xpow}"
        parts.append((body if sign == "+" else f"-{body}") if not parts
                     else f"{sign} {body}")
    return " ".join(parts) if parts else "0"


def format_qa(c: list) -> str:
    return format_terms(c, "a", str)


def format_poly(coeffs: list, ring: str) -> str:
    if ring == "Qa":
        return format_terms(coeffs, "x", format_qa)
    return format_terms(coeffs, "x", str)


# Loose on purpose: every parsed text must re-render to itself, which is
# the strict check.
_TERM_RE = {
    var: re.compile(rf"^(?:(?P<c>.+)\*)?{var}(?:\^(?P<k>\d+))?$|^(?P<const>.+)$")
    for var in ("x", "a")}
_SPLIT_RE = re.compile(r" ([+-]) ")


def _split_top(text: str) -> list[tuple[int, str]]:
    """Signed terms of a sum, splitting only outside parentheses."""
    if "(" not in text:
        pieces = _SPLIT_RE.split(text)
    else:
        pieces, depth, last, i = [], 0, 0, 0
        while i < len(text):
            ch = text[i]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif (depth == 0 and ch == " " and text[i + 1:i + 3] in ("+ ", "- ")):
                pieces += [text[last:i], text[i + 1]]
                i += 3
                last = i
                continue
            i += 1
        pieces.append(text[last:])
    first = pieces[0]
    sign = -1 if first.startswith("-") else 1
    terms = [(sign, first[1:] if sign < 0 else first)]
    for j in range(1, len(pieces), 2):
        terms.append((-1 if pieces[j] == "-" else 1, pieces[j + 1]))
    return terms


def _parse_terms(text: str, var: str, coeff) -> dict[int, object]:
    out: dict[int, object] = {}
    for sign, term in _split_top(text):
        m = _TERM_RE[var].match(term)
        if m is None:
            raise ValueError(f"bad term {term[:40]!r}")
        if m.group("const") is not None:
            k, body = 0, m.group("const")
        else:
            k = int(m.group("k") or 1)
            body = m.group("c") or "1"
        if k in out:
            raise ValueError(f"repeated power {var}^{k}")
        out[k] = coeff(body, sign)
    return out


def _dense(terms: dict[int, object], zero) -> list:
    if not terms:
        return []
    out = [zero] * (max(terms) + 1)
    for k, c in terms.items():
        out[k] = c
    return out


def _rational(body: str, sign: int) -> Fraction:
    if body.startswith("("):
        raise ValueError("parenthesized rational")
    return sign * Fraction(body)


def parse_qa(text: str) -> list[Fraction]:
    return trim(_dense(_parse_terms(text, "a", _rational), Fraction(0)))


def _qa_coeff(body: str, sign: int) -> list[Fraction]:
    if body.startswith("("):
        if sign < 0:
            raise ValueError("sign folded into a parenthesized coefficient")
        return parse_qa(body[1:-1])
    return [sign * c for c in parse_qa(body)]


def parse_poly(text: str, ring: str) -> list:
    """Strictly read dynlab's text format: the text must re-render to itself.

    Q gives Fractions, Fp gives ints, Qa gives lists of Fractions (the
    coefficient polynomial in a).  Raises ValueError on any deviation.
    """
    if text == "0":
        return []
    if ring == "Qa":
        coeffs = _dense(_parse_terms(text, "x", _qa_coeff), [])
    else:
        coeffs = _dense(_parse_terms(text, "x", _rational), Fraction(0))
        if ring == "Fp":
            if any(c.denominator != 1 or c < 0 for c in coeffs):
                raise ValueError("F_p coefficients are integers in [0, p)")
            coeffs = [int(c) for c in coeffs]
    if format_poly(coeffs, ring) != text:
        raise ValueError("text is not in canonical form")
    return coeffs


def horner(coeffs: list, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
