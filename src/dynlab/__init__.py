"""Exact arithmetic for necklace, cyclotomic, and dynatomic polynomials.

The package decides when x**n - 1 divides the degree-d necklace polynomial
(two independent routes: residue sums over squarefree divisors, and
hyperplane covers in the group of Dirichlet characters), constructs
dynatomic and generalized dynatomic polynomials over Q, Q[a], and prime
fields, and certifies the universal divisibility relations behind
multiplicative relations between dynamical units.
"""

from .errors import DomainError, ExactDivisionError, ResourceLimitError
from .numtheory import (Factorization, core_and_cocore, divisors, euler_phi,
                        factorize, is_prime, mobius, squarefree_divisors)
from .polycore import (QA, QQ, CoefficientRing, ParamRing, Polynomial,
                       PrimeField, Rationals, parse_polynomial, resultant)
from .necklace import dynamical_necklace, fast_xn1_divides, necklace_poly
from .cyclotomic import (CycloFactorReport, cyclo_factor_scan,
                         cyclotomic_candidates, cyclotomic_poly)
from .characters import (Character, CoverCertificate, UnitGroup, characters,
                         covers, equivalence_sweep, unit_group)
from .dynatomic import (ConditionReport, DivisibilityEvidence,
                        RelationCertificate, RelationTuple,
                        build_relation_certificate, dynatomic_degree,
                        dynatomic_poly, fixed_point_identity,
                        generalized_dynatomic, generalized_dynatomic_degree,
                        random_monic_integer_poly, relation_conditions,
                        telescope_check, unit_relation_resultant,
                        verify_relation)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
