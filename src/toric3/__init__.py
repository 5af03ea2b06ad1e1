"""Toric 3-fold codes of dimensions 4 and 5 over small finite fields.

Construction of evaluation codes from lattice polytopes in Z^3,
brute-force and closed-form minimum distances, and monomial-equivalence
classification with constructive witnesses.
"""

from .classify import (
    EquivalenceVerdict,
    census,
    dim4_gcd_corollary,
    dim4_theorem_verdict,
    dim5_theorem_verdict,
    witness_equivalence,
)
from .codes import DistanceResult, ToricCode, build_code
from .formulas import degenerate_distance, dim4_distance, dim5_distance
from .galois import FieldSpec, make_field, power_image, solve_power
from .polytopes import (
    AffineUnimodularMap,
    LatticePolytope,
    Signature,
    affine_dependence,
    apply_map,
    embedded_polygon,
    empty_tetrahedron,
    lattice_width,
    normalized_volume_tetra,
    parse_polytope_spec,
    white_canonical,
    white_equivalence_map,
    width1_representative,
    width2_representative,
)

__version__ = "0.1.0"

__all__ = [
    "AffineUnimodularMap",
    "DistanceResult",
    "EquivalenceVerdict",
    "FieldSpec",
    "LatticePolytope",
    "Signature",
    "ToricCode",
    "affine_dependence",
    "apply_map",
    "build_code",
    "census",
    "degenerate_distance",
    "dim4_distance",
    "dim4_gcd_corollary",
    "dim4_theorem_verdict",
    "dim5_distance",
    "dim5_theorem_verdict",
    "embedded_polygon",
    "empty_tetrahedron",
    "lattice_width",
    "make_field",
    "normalized_volume_tetra",
    "parse_polytope_spec",
    "power_image",
    "solve_power",
    "white_canonical",
    "white_equivalence_map",
    "width1_representative",
    "width2_representative",
    "witness_equivalence",
]
