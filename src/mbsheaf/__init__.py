"""Exact computation and verification for the 2-sided Coxeter complex
and mixed Bruhat sheaves on it."""

from .coxeter import (
    SUPPORTED, UnsupportedTypeError, build_coxeter, bruhat_leq, enumerate_group,
    min_coset_reps, poincare_poly,
)
from .cousin import (
    StalkComplex, constructibility_check, coperversity_check, stalk_complex, support_check,
)
from .f1 import E1Sheaf, WRepresentation, build_e1, build_e1v, rep_catalog
from .faces import Face, FaceComplex
from .fq import (
    ContingencyMatrix, Flag, FqContext, FqField, Subspace, b_invariant_sub,
    build_eq, contingency_to_xi, hecke_generators, orbit_point_checks,
    xi_to_contingency,
)
from .intpoly import IntPolynomial
from .linalg import RationalMatrix
from .orbitpoly import dim_flag, dim_orbit, orbit_poly, property_suite, validate_counts
from .report import Report
from .sheaf import (
    BicubeData, MixedBruhatSheaf, bicube, check_mbs, compose_prime,
    compose_second, dual, generated_sub, is_simple, monodromy, phi_psi,
    standard_loops, transport,
)
from .xi import FlatOrbit, OrderError, XiElement, XiPoset, enumerate_xi

__all__ = [
    "SUPPORTED", "UnsupportedTypeError", "build_coxeter", "bruhat_leq",
    "enumerate_group", "min_coset_reps", "poincare_poly",
    "StalkComplex", "constructibility_check", "coperversity_check",
    "stalk_complex", "support_check",
    "E1Sheaf", "WRepresentation", "build_e1", "build_e1v", "rep_catalog",
    "Face", "FaceComplex",
    "ContingencyMatrix", "Flag", "FqContext", "FqField", "Subspace",
    "b_invariant_sub", "build_eq", "contingency_to_xi", "hecke_generators",
    "orbit_point_checks", "xi_to_contingency",
    "IntPolynomial", "RationalMatrix",
    "dim_flag", "dim_orbit", "orbit_poly", "property_suite", "validate_counts",
    "Report",
    "BicubeData", "MixedBruhatSheaf", "bicube", "check_mbs",
    "compose_prime", "compose_second", "dual", "generated_sub", "is_simple",
    "monodromy", "phi_psi", "standard_loops", "transport",
    "FlatOrbit", "OrderError", "XiElement", "XiPoset", "enumerate_xi",
]
