"""The README's code runs against the library as it stands, and the
library's public names are the ones listed here."""

from pathlib import Path
from types import ModuleType

import dynlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    start = text.index("```python\n", text.index("## Library tour"))
    start += len("```python\n")
    block = text[start:text.index("```", start)]
    exec(compile(block, "README.md", "exec"), {})


def test_public_surface():
    # no submodule and no ring class is listed: QQ, QA and PrimeField(p)
    # are the only rings
    assert sorted(dynlab.__all__) == [
        "Character", "ConditionReport", "CoverCertificate",
        "CycloFactorReport", "DivisibilityEvidence", "DomainError",
        "ExactDivisionError", "Factorization", "Polynomial", "PrimeField",
        "QA", "QQ", "RelationCertificate", "RelationTuple",
        "ResourceLimitError", "UnitGroup", "build_relation_certificate",
        "core_and_cocore", "covers", "cyclo_factor_scan",
        "cyclotomic_candidates", "cyclotomic_poly", "divisors",
        "dynamical_necklace", "dynatomic_degree", "dynatomic_poly", "equivalence_sweep",
        "euler_phi", "factorize", "fast_xn1_divides", "fixed_point_identity",
        "generalized_dynatomic", "generalized_dynatomic_degree", "is_prime",
        "mobius", "necklace_poly", "parse_polynomial",
        "random_monic_integer_poly", "relation_conditions", "resultant",
        "squarefree_divisors", "unit_group", "unit_relation_resultant",
        "verify_relation"]


def test_characters_submodule_is_not_shadowed():
    import dynlab.characters as ch

    assert isinstance(ch, ModuleType)
    assert ch.covers(3, 2).covered
