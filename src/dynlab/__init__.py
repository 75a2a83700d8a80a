"""Exact arithmetic for necklace, cyclotomic, and dynatomic polynomials.

The package decides when x**n - 1 divides the degree-d necklace polynomial
(two independent routes: residue sums over squarefree divisors, and
hyperplane covers in the group of Dirichlet characters), constructs
dynatomic and generalized dynatomic polynomials over Q, Q[a], and prime
fields, and certifies the universal divisibility relations behind
multiplicative relations between dynamical units.
"""

from types import ModuleType as _Module

from .errors import DomainError, ExactDivisionError, ResourceLimitError
from .numtheory import (Factorization, core_and_cocore, divisors, euler_phi,
                        factorize, is_prime, mobius, squarefree_divisors)
from .polycore import (QA, QQ, Polynomial, PrimeField, parse_polynomial,
                       resultant)
from .necklace import dynamical_necklace, fast_xn1_divides, necklace_poly
from .cyclotomic import (CycloFactorReport, cyclo_factor_scan,
                         cyclotomic_candidates, cyclotomic_poly)
from .characters import (Character, CoverCertificate, UnitGroup, covers,
                         equivalence_sweep, unit_group)
from .dynatomic import (ConditionReport, DivisibilityEvidence,
                        RelationCertificate, RelationTuple,
                        build_relation_certificate, dynatomic_degree,
                        dynatomic_poly, fixed_point_identity,
                        generalized_dynatomic, generalized_dynatomic_degree,
                        random_monic_integer_poly, relation_conditions,
                        unit_relation_resultant, verify_relation)

__version__ = "0.1.0"

# the names above, less the submodules that the imports bind as a side effect
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _Module)]
