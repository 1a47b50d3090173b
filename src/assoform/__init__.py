"""Exact computation with associated forms of balanced complete intersections."""

from .ideals import (DEGREE_CAP, DegreeCapError, GradedIdeal,
                     hilbert_function, is_regular_sequence, koszul_exactness_check,
                     koszul_matrices, min_nonideal_monomial)
from .inverse_system import (AssociatedForm, HilbertPointFunctional,
                             NotRegularSequence, SingularHypersurface,
                             associated_form, direct_sum_assoc,
                             hilbert_point_functional, macaulay_roundtrip,
                             milnor_associated_form, perp_piece)
from .invariants import (GITPoint, mather_yau_point, points_equal,
                         quartic_invariants, transvectant)
from .linalg import QMatrix, from_rows, kernel_basis, rank, rref
from .parsing import InputSystem, ParseError, parse_polynomial, parse_system
from .poly import (Mono, Polynomial, Space, apolar_apply, jacobian_det, pairing,
                   partial, substitute)
from .stability import (AuditReport, DecompositionCertificate, OnePS,
                        RootWitness, StabilityReport, Verdict, binary_stability,
                        degeneration_limit, recognize_decomposable,
                        semistability_audit, support_weight_range,
                        torus_destabilizer)

__all__ = [
    "DEGREE_CAP", "DegreeCapError", "GradedIdeal",
    "hilbert_function", "is_regular_sequence", "koszul_exactness_check",
    "koszul_matrices", "min_nonideal_monomial",
    "AssociatedForm", "HilbertPointFunctional", "NotRegularSequence",
    "SingularHypersurface", "associated_form", "direct_sum_assoc",
    "hilbert_point_functional", "macaulay_roundtrip", "milnor_associated_form",
    "perp_piece",
    "GITPoint", "mather_yau_point", "points_equal", "quartic_invariants",
    "transvectant",
    "QMatrix", "from_rows", "kernel_basis", "rank", "rref",
    "InputSystem", "ParseError", "parse_polynomial", "parse_system",
    "Mono", "Polynomial", "Space", "apolar_apply",
    "jacobian_det", "pairing", "partial", "substitute",
    "AuditReport", "DecompositionCertificate", "OnePS", "RootWitness",
    "StabilityReport", "Verdict", "binary_stability", "degeneration_limit",
    "recognize_decomposable", "semistability_audit",
    "support_weight_range", "torus_destabilizer",
]

__version__ = "0.1.0"
