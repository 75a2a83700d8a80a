"""Property checks on polynomial division and the text and JSON round trips.

Division must satisfy a == q*b + r with deg r < deg b over every ring the
library serves.  Operand lengths are drawn on both sides of
``_SCHOOLBOOK_TERMS``, so the products that check a division run the
schoolbook loop and, where enough coefficients are nonzero, the Kronecker
kernel.  The pseudo-remainder behind ``resultant`` must leave
lc(b)^(da-db+1) * a minus itself divisible by b, with degree below deg b,
over Z, F_p and Q[a].  A sign after ``*`` negates the power that
follows it.  A coerced ring element must be falsy exactly when it is zero,
since that truth test is the rings' only zero test.  Every root of unity
that the cyclotomic scan's filter uses must have the order it stands for.
The CLI's JSON writer must give the text of ``json.dumps(v, indent=2)``,
also when some arrays of v are generators, and pass a long string that
needs no escape through as itself.  For monic f, g = f**n and h = g - x,
the quotient u_k = (g**k - x) / h must be 1 + g' + ... + g'**(k-1) mod h
(the multiplier identity behind the relation pass), and the affine power
that computes that sum must agree with the plain sum.  The degree cap's
decision from the lower bound 2**(m+n-2) must be the comparison of the
exact (m, n) dynatomic degree with the cap, and its refusal must name the
exact degree up to 2**64 * cap.
Examples are derandomized, so every run draws the same inputs.
"""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dynlab import cyclotomic  # noqa: E402
from dynlab.cli import _json_pieces  # noqa: E402
from dynlab.dynatomic import (_geometric_sum,  # noqa: E402
                              generalized_dynatomic_degree)
from dynlab.errors import ResourceLimitError, _refuse_over_cap  # noqa: E402
from dynlab.numtheory import factorize, is_prime  # noqa: E402
from dynlab.polycore import (QA, QQ, Polynomial, PrimeField,  # noqa: E402
                             _SCHOOLBOOK_TERMS, _ZZ, _iterates, _prs_prem,
                             parse_polynomial)

T = _SCHOOLBOOK_TERMS
LENGTHS = {"short": (1, T - 1), "long": (T + 1, T + 12)}

rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
nonzero_rationals = rationals.filter(bool)
param_coeffs = st.lists(rationals, max_size=3).map(tuple)

# No shrink phase: a long-band operand cannot shrink below the band, and
# shrinking one failing long division took minutes.
deterministic = settings(derandomize=True, deadline=None, max_examples=20,
                         phases=(Phase.explicit, Phase.reuse, Phase.generate))


@st.composite
def division_operands(draw, coeff, lead, lengths):
    """(a, b) with b's lead nonzero.

    b's length lies in the band; the quotient's lies in it or one below it,
    which in the short band allows a zero quotient.
    """
    low, high = lengths
    nb = draw(st.integers(low, high))
    nq = draw(st.integers(low - 1, high))
    b = draw(st.lists(coeff, min_size=nb - 1, max_size=nb - 1)) + [draw(lead)]
    a = draw(st.lists(coeff, min_size=nb + nq - 1, max_size=nb + nq - 1))
    return a, b


def check_division(ring, a, b):
    num, den = Polynomial(ring, a), Polynomial(ring, b)
    quot, rem = divmod(num, den)
    assert quot * den + rem == num
    assert rem.degree < den.degree


@pytest.mark.parametrize("band", sorted(LENGTHS))
def test_divmod_over_q(band):
    @deterministic
    @given(division_operands(rationals, nonzero_rationals, LENGTHS[band]))
    def run(operands):
        check_division(QQ, *operands)

    run()


@pytest.mark.parametrize("band", sorted(LENGTHS))
@pytest.mark.parametrize("p", [2, 7121, 2**61 - 1])
def test_divmod_over_prime_fields(p, band):
    residues = st.integers(0, p - 1)

    @deterministic
    @given(division_operands(residues, st.integers(1, p - 1), LENGTHS[band]))
    def run(operands):
        check_division(PrimeField(p), *operands)

    run()


@pytest.mark.parametrize("band", sorted(LENGTHS))
def test_divmod_over_param_ring_by_constant_leading_coefficient(band):
    constant_leads = nonzero_rationals.map(lambda c: (c,))

    # a long Q[a] division grows the a-degree of its quotient by up to two
    # per step and costs about 0.4 s, so that band draws fewer examples
    @settings(deterministic, max_examples=5 if band == "long" else 20)
    @given(division_operands(param_coeffs, constant_leads, LENGTHS[band]))
    def run(operands):
        check_division(QA, *operands)

    run()


@st.composite
def prem_operands(draw, coeff, lead, max_len):
    """(a, b) with nonzero leads and deg a >= deg b."""
    nb = draw(st.integers(1, max_len))
    na = draw(st.integers(nb, max_len + 2))
    b = draw(st.lists(coeff, min_size=nb - 1, max_size=nb - 1)) + [draw(lead)]
    a = draw(st.lists(coeff, min_size=na - 1, max_size=na - 1)) + [draw(lead)]
    return a, b


def check_pseudo_remainder(ring, poly_ring, a, b):
    """prem = _prs_prem(a, b, ring); checked with Polynomial over poly_ring.

    Returns the quotient (lc(b)^(da-db+1) * a - prem) / b.
    """
    prem = _prs_prem(a, b, ring)
    num, den = Polynomial(poly_ring, a), Polynomial(poly_ring, b)
    scale = Polynomial.constant(poly_ring, den.lc)**(num.degree - den.degree + 1)
    rem = Polynomial(poly_ring, prem)
    quot, left = divmod(scale * num - rem, den)
    assert left.is_zero
    assert rem.degree < den.degree
    return quot


@pytest.mark.parametrize("max_len", [6, T + 4])
def test_pseudo_remainder_over_integers(max_len):
    # The Z ring works on ints; Q checks them, and the pseudo-quotient is
    # integral.
    ints = st.integers(-60, 60)

    @deterministic
    @given(prem_operands(ints, ints.filter(bool), max_len))
    def run(operands):
        quot = check_pseudo_remainder(_ZZ, QQ, *operands)
        assert all(c.denominator == 1 for c in quot.coeffs)

    run()


@pytest.mark.parametrize("p", [2, 7121, 2**61 - 1])
def test_pseudo_remainder_over_prime_fields(p):
    field = PrimeField(p)

    @deterministic
    @given(prem_operands(st.integers(0, p - 1), st.integers(1, p - 1), 12))
    def run(operands):
        check_pseudo_remainder(field, field, *operands)

    run()


def test_pseudo_remainder_over_param_ring():
    # leading coefficients of a-degree up to 2, so most steps divide by a
    # nonconstant element of Q[a]; divmod over Q[a] raises if the
    # pseudo-quotient left Q[a][x]
    leads = st.lists(rationals, min_size=1, max_size=3).map(tuple).filter(any)

    @deterministic
    @given(prem_operands(param_coeffs, leads, 5))
    def run(operands):
        check_pseudo_remainder(QA, QA, *operands)

    run()


@deterministic
@given(st.lists(rationals, max_size=12))
def test_text_round_trip_over_q(coeffs):
    p = Polynomial(QQ, coeffs)
    assert parse_polynomial(p.to_text(), QQ) == p


@deterministic
@given(st.lists(rationals, max_size=6), st.lists(rationals, max_size=6))
def test_sign_after_star_negates_the_power_over_q(p_coeffs, q_coeffs):
    p, q = Polynomial(QQ, p_coeffs), Polynomial(QQ, q_coeffs)
    text = f"({p.to_text()})*-({q.to_text()})^2"
    assert parse_polynomial(text, QQ) == -(p * q**2)


@deterministic
@given(st.lists(param_coeffs, max_size=12))
def test_text_round_trip_over_param_ring(coeffs):
    p = Polynomial(QA, coeffs)
    assert parse_polynomial(p.to_text(), QA) == p


@pytest.mark.parametrize("ring,coeff", [
    (QQ, rationals),
    (PrimeField(7121), st.integers(0, 7120)),
    (PrimeField(2**61 - 1), st.integers(0, 2**61 - 2)),
    (QA, param_coeffs),
], ids=["Q", "F_7121", "F_mersenne61", "Qa"])
def test_json_round_trip(ring, coeff):
    @deterministic
    @given(st.lists(coeff, max_size=12))
    def run(coeffs):
        p = Polynomial(ring, coeffs)
        data = json.loads(json.dumps(p.to_json_dict()))
        back = Polynomial.from_json_dict(data)
        assert back.ring == ring and back == p

    run()


def scalar_cases(numerators, denominators, is_zero):
    """(value, zero in the ring?) for ints, Fractions n/d and strings "n/d"."""
    pairs = st.tuples(numerators, denominators)
    return st.one_of(
        numerators.map(lambda n: (n, is_zero(n))),
        pairs.map(lambda nd: (Fraction(*nd), is_zero(nd[0]))),
        pairs.map(lambda nd: (f"{nd[0]}/{nd[1]}", is_zero(nd[0]))))


def param_text(cs):
    return " + ".join(f"({c})*a^{i}" for i, c in enumerate(cs)) or "0"


big_ints = st.one_of(st.just(0), st.integers(-10**30, 10**30))
small_ints = st.integers(-9, 9)
positive = st.integers(1, 10**6)
zero_heavy = st.one_of(rationals, st.just(Fraction(0)), st.just(0))
param_cases = st.one_of(
    scalar_cases(big_ints, positive, lambda n: n == 0),
    # tuples with trailing zeros, which coerce strips
    st.tuples(st.lists(zero_heavy, max_size=4), st.integers(0, 3)).map(
        lambda ck: (tuple(ck[0]) + (0,) * ck[1], not any(ck[0]))),
    # strings such as "a - a": the text itself, and minus itself
    st.lists(small_ints, max_size=4).map(
        lambda cs: (param_text(cs), not any(cs))),
    st.lists(small_ints, max_size=4).map(
        lambda cs: (f"{param_text(cs)} - ({param_text(cs)})", True)),
    st.just(("a - a", True)),
    st.just(("(a + 1)^2 - a^2 - 2*a", False)),
)


def fp_cases(p):
    # multiples of p are zero; a denominator prime to p is invertible
    numerators = st.one_of(big_ints, big_ints.map(lambda n: n * p))
    return scalar_cases(numerators, positive.filter(lambda d: d % p),
                        lambda n: n % p == 0)


@pytest.mark.parametrize("ring,cases", [
    (QQ, scalar_cases(big_ints, positive, lambda n: n == 0)),
    *[(PrimeField(p), fp_cases(p)) for p in (2, 7121, 2**61 - 1)],
    (QA, param_cases),
], ids=["Q", "F_2", "F_7121", "F_mersenne61", "Qa"])
def test_coerced_element_is_falsy_exactly_when_zero(ring, cases):
    @settings(deterministic, max_examples=200)
    @given(cases)
    def run(case):
        value, zero = case
        element = ring.coerce(value)
        assert bool(element) is not zero, (value, element)
        if isinstance(ring, PrimeField):
            assert 0 <= element < ring.p

    run()


@pytest.mark.parametrize("ring,coeff", [
    (QQ, st.integers(-4, 4)),
    (PrimeField(2), st.integers(0, 1)),
    (PrimeField(5), st.integers(0, 4)),
    (QA, st.lists(st.integers(-3, 3), max_size=2).map(tuple)),
], ids=["Q", "F_2", "F_5", "Qa"])
def test_iterate_quotient_is_the_geometric_sum_of_the_multiplier(ring, coeff):
    # g**k - x = h * u_k exactly; n * k <= 6 / (deg f - 1) keeps
    # deg f**(nk) at most 64
    @settings(deterministic, max_examples=40)
    @given(st.integers(2, 3).flatmap(lambda k_f: st.tuples(
        st.lists(coeff, min_size=k_f, max_size=k_f),
        st.integers(1, 2).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(1, 6 // (k_f - 1) // n))))))
    def run(drawn):
        low, (n, k) = drawn
        f = Polynomial(ring, low + [1])
        x = Polynomial.x(ring)
        table = _iterates(f, {n, n * k})
        h = table[n] - x
        u = (table[n * k] - x).div_exact(h)
        lam = table[n].derivative() % h
        plain = sum((lam ** i for i in range(k)), Polynomial.zero(ring)) % h
        assert _geometric_sum(lam, k, h) == plain
        assert (u - plain) % h == Polynomial.zero(ring)

    run()


@st.composite
def sparse_times_cyclotomics(draw):
    """A sum of up to 8 signed monomials of degree up to 300 times up to
    three cyclotomic powers with index up to 60."""
    coeffs = [0] * 301
    for e, c in draw(st.lists(st.tuples(st.integers(0, 300),
                                        st.integers(-3, 3).filter(bool)),
                              min_size=1, max_size=8)):
        coeffs[e] = c
    poly = Polynomial(QQ, coeffs)
    for k, m in draw(st.lists(st.tuples(st.integers(1, 60),
                                        st.integers(1, 3)), max_size=3)):
        poly = poly * cyclotomic.cyclotomic_poly(k)**m
    return poly


@deterministic
@given(sparse_times_cyclotomics())
def test_scan_filter_roots_have_exact_order(poly):
    used = []

    def spy(k, owner):
        q, w = shared_root(k, owner)
        used.append((k, owner, q, w))
        return q, w

    shared_root = cyclotomic._shared_root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cyclotomic, "_shared_root", spy)
        report = cyclotomic.cyclo_factor_scan(poly)
    assert used or poly.degree == poly.x_valuation
    for k, owner, q, w in used:
        assert owner % k == 0
        assert is_prime(q) and (q - 1) % k == 0
        assert pow(w, k, q) == 1
        assert all(pow(w, k // p, q) != 1 for p in factorize(k).primes)
    rebuilt = Polynomial.x(QQ)**report.x_multiplicity * report.cofactor
    for k, mult in report.cyclo_indices:
        rebuilt = rebuilt * cyclotomic.cyclotomic_poly(k)**mult
    assert rebuilt == poly


# Quotes, backslashes, control characters, non-ASCII and astral characters,
# all of which the writer must escape as json.dumps does.
json_text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                              st.characters(),
                              st.characters(min_codepoint=0x10000)))
json_ints = st.one_of(st.integers(), st.integers(min_value=2**64),
                      st.integers(max_value=-2**64))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_ints, json_text),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.lists(json_ints), st.lists(json_text),
                            st.dictionaries(json_text, inner)),
    max_leaves=20)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(json_values)
def test_json_writer_matches_json_dumps(value):
    assert "".join(_json_pieces(value)) == json.dumps(value, indent=2)


def _as_generators(value, pick):
    """value with each array that pick() chooses made a generator."""
    if isinstance(value, dict):
        return {key: _as_generators(item, pick) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        items = [_as_generators(item, pick) for item in value]
        return (item for item in items) if pick() else items
    return value


@settings(derandomize=True, deadline=None, max_examples=100)
@given(json_values, st.randoms(use_true_random=False))
def test_json_writer_renders_generator_arrays_as_lists(value, rng):
    lazy = _as_generators(value, lambda: rng.random() < 0.5)
    assert "".join(_json_pieces(lazy)) == json.dumps(value, indent=2)


def test_json_writer_renders_empty_generators_as_empty_lists():
    value = {"a": [], "b": [[], [1, "x"], {"c": []}], "d": [[]]}
    lazy = _as_generators(value, lambda: True)
    assert "".join(_json_pieces(lazy)) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, [0, 2.0], Fraction(1, 2), {"c": [Fraction(3)]}, {1: "x"},
    {"a": {None: 0}}, ({True: 1},), {1, 2}, [range(3)],
], ids=["float", "float_in_list", "fraction", "fraction_in_dict", "int_key",
        "none_key", "bool_key", "set", "range"])
def test_json_writer_refuses_floats_fractions_and_non_str_keys(value):
    with pytest.raises(TypeError):
        _json_pieces(value)


def test_json_writer_keeps_long_string_lists_in_pieces():
    coeffs = [f"{k}/{k + 1}" for k in range(2047)]
    pieces = _json_pieces({"text": "x", "json": {"ring": "Q", "coeffs": coeffs}})
    assert "".join(pieces) == json.dumps(
        {"text": "x", "json": {"ring": "Q", "coeffs": coeffs}}, indent=2)
    assert max(map(len, pieces)) <= max(len(c) for c in coeffs) + 20


# Either side of the writer's no-copy test: printable ASCII without '"' or
# '\\' is a piece as it is, anything else goes through the quoting.
NO_COPY_EDGE = ["", "".join(map(chr, range(0x20, 0x7F))), '"', "\\",
                'x^2 "a"', "1\\2", "\x7f", "a\x7fb", "\x00", "\x1f", "\t",
                "x\n", "\u00e9", "na\u00efve", "\u2028", "\U0001F600",
                "x\U0001F600y", " ", "~"]


@pytest.mark.parametrize("text", NO_COPY_EDGE)
def test_json_writer_matches_json_dumps_at_the_no_copy_boundary(text):
    for value in (text, [text, text, 1], {"k": text, text: [text], "n": 0},
                  [[text], {"k": [text]}]):
        assert "".join(_json_pieces(value)) == json.dumps(value, indent=2)


def test_json_writer_passes_escape_free_strings_by_identity():
    text = " + ".join(f"{k}*x^{k}" for k in range(1, 20000))
    coeff = "-" + "1234567890" * 300
    pieces = _json_pieces({"text": text, "json": {"coeffs": [coeff, "1/2"]}})
    assert any(p is text for p in pieces)
    assert any(p is coeff for p in pieces)


@settings(deterministic, max_examples=300)
@given(st.integers(2, 5), st.integers(0, 80), st.integers(1, 80),
       st.integers(0, 10**6))
def test_cap_decision_from_the_lower_bound(k, m, n, cap):
    # m, n <= 14 always builds the exact degree; past m + n = 66 the bound
    # alone refuses small caps
    degree = generalized_dynatomic_degree(k, m, n)
    assert 2**(m + n - 2) <= degree
    try:
        _refuse_over_cap(cap, f"the ({m}, {n}) dynatomic", m + n - 2,
                         lambda: generalized_dynatomic_degree(k, m, n))
    except ResourceLimitError as exc:
        assert degree > cap
        if degree <= cap << 64:
            assert str(exc) == (f"degree {degree} of the ({m}, {n}) "
                                f"dynatomic exceeds the cap {cap}")
    else:
        assert degree <= cap
