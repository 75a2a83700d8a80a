"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance here is exact: all arithmetic is integer/rational.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from conftest import dense_fold_divisible, dense_necklace_int_coeffs
from dynlab.characters import covers, equivalence_sweep
from dynlab.cli import main as cli_main
from dynlab.cyclotomic import cyclo_factor_scan, cyclotomic_poly
from dynlab.dynatomic import (RelationTuple, build_relation_certificate,
                              dynatomic_poly, fixed_point_identity,
                              generalized_dynatomic, relation_conditions,
                              telescope_check, unit_relation_resultant,
                              verify_relation)
from dynlab.necklace import fast_xn1_divides, necklace_poly
from dynlab.numtheory import core_and_cocore
from dynlab.polycore import (QQ, Polynomial, PrimeField, parse_polynomial,
                             resultant)


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_necklace_105_scan():
    scan = cyclo_factor_scan(necklace_poly(105).scale(105))
    ok = (scan.x_multiplicity == 1
          and scan.cyclo_indices == ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (8, 1))
          and scan.cofactor_degree == 92)
    report(1, "105*M_105 = x * Phi_{1,2,3,4,6,8} * (degree-92 cofactor)", ok)


def test_criterion_02_shifted_cyclotomic_scan():
    scan = cyclo_factor_scan(cyclotomic_poly(105) - 1)
    ok = (scan.x_multiplicity == 1
          and scan.cyclo_indices == ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (8, 1))
          and scan.cofactor_degree == 35)
    report(2, "Phi_105 - 1 has the same cyclotomic set, degree-35 cofactor", ok)


def test_criterion_03_hyperplane_equivalence_sweep():
    disagreements = equivalence_sweep(120, 60)
    report(3, "cover criterion == necklace criterion on the 120 x 60 grid "
              f"(disagreements: {disagreements})", disagreements == [])


def test_criterion_04_big_d_certificates():
    cert = covers(440512358437, 65)
    ok = (cert.covered
          and len(cert.usable_primes) == 5
          and fast_xn1_divides(440512358437, 65)
          and core_and_cocore(440512358437)[1] == 47)
    arrangements = (157 * 181 * 337 * 389,
                    79 * 181 * 389,
                    47 * 109 * 151 * 157 * 317 * 337)
    ok = ok and all(covers(d, 65).covered for d in arrangements)
    report(4, "cover certificates for d = 440512358437 and the three "
              "line arrangements at n = 65", ok)


ACCEPTED_TUPLES = [(0, 2, 0, 3), (0, 4, 0, 5), (1, 2, 1, 3), (1, 1, 0, 2),
                   (1, 1, 0, 3), (1, 1, 0, 4), (2, 1, 3, 2)]


def test_criterion_05_universal_relations():
    family = parse_polynomial("x^2 + a")
    failures = []
    for tup in ACCEPTED_TUPLES:
        t = RelationTuple(*tup)
        if not relation_conditions(t).admissible:
            failures.append((tup, "not admissible"))
            continue
        cert = build_relation_certificate(t, family=family, trials=20, seed=0)
        if not cert.all_divide:
            failures.append((tup, "divisibility failed"))
    report(5, f"7 admissible tuples verified over Q[a] and 20 seeded monic "
              f"integer f each (failures: {failures})", not failures)


def test_criterion_06_generic_nondivisibility_d6():
    family = parse_polynomial("x^2 + a")
    generic = verify_relation(RelationTuple(0, 2, 0, 6), family)
    phi6 = dynatomic_poly(family, 6)
    product = generalized_dynatomic(family, 1, 2) * \
        generalized_dynatomic(family, 1, 1)
    quot, rem = divmod(phi6 - 1, product)
    specials = [verify_relation(RelationTuple(0, 2, 0, 6),
                                family.specialize(v)).divides
                for v in (Fraction(-1), Fraction(-5, 4))]
    ok = (not generic.divides
          and rem.is_zero and quot.degree == 50
          and all(specials))
    report(6, "x^2+a: Phi_2 fails generically for d = 6, the preperiodic "
              "product divides with degree-50 cofactor, a = -1 and -5/4 flip "
              "to divisible", ok)


def test_criterion_07_unit_product_certificates():
    f_cube = parse_polynomial("x^3 + 1")
    f_quad = parse_polynomial("x^2 + 1")
    ok = generalized_dynatomic(f_cube, 1, 1) == \
        parse_polynomial("x^6 + x^4 + 2*x^3 + x^2 + x + 1")
    for f in (f_quad, f_cube):
        for d in (2, 3):
            ok = ok and unit_relation_resultant(
                f, RelationTuple(1, 1, 0, d)) == 1
    f_b = parse_polynomial("x^2 + 3*x + 1")
    ok = ok and generalized_dynatomic(f_b, 1, 1) == \
        f_b + Polynomial.x(QQ) + 3
    report(7, "preperiodic-product certificates: resultants equal 1 for "
              "x^2+1 and x^3+1 at d = 2, 3", ok)


def test_criterion_08_fixed_point_multiplier_identity():
    rng = random.Random(314)
    x = Polynomial.x(QQ)
    ok = True
    for _ in range(50):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        lam = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        shift = x - alpha
        f = shift.scale(lam) + alpha + shift * shift
        d = rng.randint(2, 5)
        _, _, equal = fixed_point_identity(f, alpha, d)
        ok = ok and equal
    # lambda = 0: dynatomic value is exactly 1
    for d in (2, 3, 4, 5):
        lhs, _, equal = fixed_point_identity(x**2, 0, d)
        ok = ok and equal and lhs == 1
    report(8, "dynatomic-at-fixed-point equals cyclotomic-at-multiplier for "
              "50 seeded triples plus the lambda = 0 case", ok)


def test_criterion_09_telescoping_and_squarefreeness():
    ok = True
    for f_text in ("x^2", "x^2 + 1", "x^3 + 1"):
        f = parse_polynomial(f_text)
        for m in range(0, 3):
            for n in range(1, 4):
                if f.degree**(m + n) > 400:
                    continue
                ok = ok and telescope_check(f, m, n)
    # A gap is monic, so its image mod q keeps its degree, and a repeated
    # factor over Q would stay a repeated factor of the image: an image
    # prime to its derivative proves the gap squarefree.
    big_field = PrimeField(1000003)
    rng = random.Random(555)
    for k in (2, 3):
        for _ in range(10):
            t = rng.choice([-1, 1]) * \
                (2 + Fraction(rng.randint(1, 72), rng.randint(1, 9)))
            f = Polynomial.monomial(QQ, k) + Polynomial.constant(QQ, t)
            for m in range(0, 3):
                for n in range(1, 4):
                    if k**(m + n) > 300:
                        continue
                    gap = f.iterate(m + n) - f.iterate(m)
                    u = Polynomial(big_field, gap.coeffs)
                    v = u.derivative()
                    ok = ok and u.degree == gap.degree
                    while v:
                        u, v = v, u % v
                    ok = ok and u.degree == 0
    field = PrimeField(5)
    f5 = Polynomial(field, [0, 2, 0, 0, 0, 1])
    for m in range(0, 2):
        for n in range(1, 3):
            gap = f5.iterate(m + n) - f5.iterate(m)
            ok = ok and gap.derivative().degree == 0
            ok = ok and not gap.derivative().is_zero
    ok = ok and resultant(dynatomic_poly(f5, 1), dynatomic_poly(f5, 4)) == 0
    report(9, "telescoping products rebuild iterate gaps; gaps are "
              "squarefree off the multibrot set; char-5 family has constant "
              "derivative and vanishing resultant", ok)


def test_criterion_10_figure_grid_scan(tmp_path, capsys):
    out_a = tmp_path / "grid_a.csv"
    out_b = tmp_path / "grid_b.csv"
    svg = tmp_path / "grid.svg"
    start = time.monotonic()
    code = cli_main(["scan", "--d-max", "300", "--n-max", "300",
                     "--out", str(out_a), "--svg", str(svg)])
    elapsed = time.monotonic() - start
    cli_main(["scan", "--d-max", "300", "--n-max", "300", "--out", str(out_b)])
    capsys.readouterr()
    rows = {tuple(map(int, line.split(",")))
            for line in out_a.read_text().splitlines()[1:]}
    subgrid = {(d, n) for d, n in rows if d <= 100 and n <= 100}
    oracle = set()
    for d in range(1, 101):
        coeffs = dense_necklace_int_coeffs(d)
        for n in range(1, 101):
            if dense_fold_divisible(coeffs, n):
                oracle.add((d, n))
    ok = (code == 0
          and elapsed < 60.0
          and subgrid == oracle
          and (105, 8) in rows
          and (6, 2) in rows
          and all((d, 1) in rows for d in range(2, 301))
          and out_a.read_bytes() == out_b.read_bytes())
    report(10, f"300 x 300 grid scan in {elapsed:.1f}s (< 60s), equals the "
               "dense-remainder oracle on the 100 x 100 subgrid, contains "
               "(105, 8), (6, 2), every (d, 1)", ok)


def test_criterion_10_full_figure(tmp_path, capsys):
    runs = []
    for tag in ("a", "b"):
        csv_path, svg_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.svg"
        code = cli_main(["scan", "--d-max", "1000", "--n-max", "1000",
                         "--out", str(csv_path), "--svg", str(svg_path)])
        runs.append((code, csv_path.read_bytes(), svg_path.read_bytes()))
    capsys.readouterr()
    rows = runs[0][1].decode().splitlines()[1:]
    # 9854 is the row count of the plain double loop over every grid pair.
    ok = (all(code == 0 for code, _, _ in runs)
          and len(rows) == 9854
          and "105,8" in rows
          and runs[0][1:] == runs[1][1:])
    report(10, "1000 x 1000 grid scan: 9854 pairs, contains (105, 8), "
               "CSV and SVG bytes equal across two runs", ok)


def _brute_irreducible_count(q: int, d: int) -> int:
    """Count monic irreducible degree-d polynomials over F_q by sieving.

    Standalone tuple arithmetic: coefficient tuples ascending, reduced mod q.
    """
    def poly_rem(num: list[int], den: tuple[int, ...]) -> list[int]:
        num = list(num)
        while len(num) >= len(den):
            c = num[-1]
            if c:
                shift = len(num) - len(den)
                for i, dc in enumerate(den):
                    num[shift + i] = (num[shift + i] - c * dc) % q
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return num

    def monics(deg):
        for tail in itertools.product(range(q), repeat=deg):
            yield tail + (1,)

    count = 0
    for f in monics(d):
        if all(poly_rem(list(f), g)
               for deg in range(1, d // 2 + 1)
               for g in monics(deg)):
            count += 1
    return count


def test_criterion_11_counting_oracle():
    ok = True
    for q in (2, 3):
        for d in range(1, 7):
            expected = _brute_irreducible_count(q, d)
            ok = ok and necklace_poly(d).evaluate(q) == expected
    report(11, "M_d(q) equals brute-force monic-irreducible counts over "
               "F_2 and F_3 for d <= 6", ok)
