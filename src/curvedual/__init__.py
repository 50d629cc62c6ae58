"""Exact invariants and duality for branch curve rings.

Rings are subrings of a finite product of power-series lines, handled
through finite exponent windows certified by their conductors.  On top
of that sit dualizing modules cut out by residue conditions, fractional
ideal arithmetic, Artinian quotient structure, and a plane-semigroup
shadow of the same hull theory.
"""

from .artin import (ArtinAlgebra, ArtinModule, curve_quotient,
                    enumerate_extensions, ext, ext_lab_instance, ext_routes,
                    free_module, hom_space, matlis_dual, minimal_resolution,
                    module_iso, present_quotient, quotient_module, rees_check,
                    socle, surjection_exists, trivial_module, verify_claim4,
                    witness_cor3)
from .curvering import (CurveRing, CurveSpec, build, format_curve_file,
                        parse_curve_file, semigroup_oracle)
from .duality import (canonical_module, conductor_duality, dual,
                      ext1_torsion, general_section, general_section_extended,
                      min_pole_profile, seminormal_via_omega, serre_report,
                      shriek, tfs2_hull, uniqueness_check, verify_dualizing)
from .errors import AlgebraError
from .family import (curve_names, family_rings, family_specs, monomial_spec,
                     named_ring, named_spec, random_ring, semigroup_spec)
from .fields import FiniteField, parse_field, prime_field, rationals
from .fracideal import (FracIdeal, TorsionQuotient, ZeroModule,
                        conductor_module, from_generators, herbrand,
                        maximal_ideal, normalization_module, random_ideal,
                        slab_module, unit_ideal)
from .laurent import Element, format_element, parse_element
from .toric2 import (AffineSemigroup2, MonomialModule2,
                     canonical_module_toric, monomial_iso, s2_hull,
                     saturation)

__all__ = [
    "AffineSemigroup2", "AlgebraError", "ArtinAlgebra", "ArtinModule",
    "CurveRing", "CurveSpec", "Element", "FiniteField", "FracIdeal",
    "MonomialModule2", "TorsionQuotient", "ZeroModule", "build",
    "canonical_module", "canonical_module_toric", "conductor_duality",
    "conductor_module", "curve_names", "curve_quotient", "dual",
    "enumerate_extensions", "ext", "ext1_torsion", "ext_lab_instance",
    "ext_routes", "family_rings", "family_specs",
    "format_curve_file", "format_element", "free_module", "from_generators",
    "general_section", "general_section_extended", "herbrand", "hom_space",
    "matlis_dual", "maximal_ideal", "min_pole_profile", "minimal_resolution",
    "module_iso", "monomial_iso", "monomial_spec", "named_ring", "named_spec",
    "normalization_module", "parse_curve_file", "parse_element", "parse_field",
    "present_quotient", "prime_field", "quotient_module", "random_ideal",
    "random_ring", "rationals", "rees_check", "s2_hull", "saturation",
    "semigroup_oracle", "semigroup_spec", "seminormal_via_omega",
    "serre_report", "shriek", "slab_module", "socle", "surjection_exists",
    "tfs2_hull", "trivial_module", "uniqueness_check", "unit_ideal",
    "verify_claim4", "verify_dualizing", "witness_cor3",
]

__version__ = "0.1.0"
