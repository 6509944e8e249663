"""Exact apolarity computations over the rationals: apolar ideals, Hilbert
functions, the classification of reducible cubics, explicit short Waring
decompositions, and verifiable rank certificates."""

from .apolar import (CatalecticantMatrix, apolar_apply, apolar_hilbert,
                     apolar_ideal, catalecticant, essential_variables)
from .certificates import (AvoidanceCertificate, CertificateClaim,
                           ClaimChainCertificate, RankReport,
                           avoidance_lower_bound, catalecticant_lower_bound,
                           classified_rank_bounds, colon_refinement,
                           generic_rank, rank_report,
                           tangent_plane_certificate)
from .cubics import (BinaryDecomposition, CubicKind, CubicType, InvalidChange,
                     NeedsFieldExtension, NormalizationUndecided, ReducibleCubic,
                     WaringDecomposition, classify, decompose_binary,
                     decompose_type_c, decompose_type_c_normal, normal_form,
                     normal_form_pair, normalize_tangent_product,
                     quadric_matrix, split_change, split_normal_form,
                     verify_decomposition)
from .ideals import (HilbertFunction, HomogeneousIdeal, graded_basis,
                     hilbert_function, ideal_colon, ideal_contains,
                     ideal_equal, ideal_sum, is_nonzerodivisor, ring_dimension)
from .poly import (AmbientMismatchError, LinearChange, LinearForm, Polynomial,
                   PolynomialSyntaxError, monomials, parse, substitute)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError", "AvoidanceCertificate", "BinaryDecomposition",
    "CatalecticantMatrix", "CertificateClaim", "ClaimChainCertificate",
    "CubicKind", "CubicType", "HilbertFunction", "HomogeneousIdeal",
    "InvalidChange", "LinearChange", "LinearForm", "NeedsFieldExtension",
    "NormalizationUndecided",
    "Polynomial", "PolynomialSyntaxError", "RankReport", "ReducibleCubic",
    "WaringDecomposition", "apolar_apply", "apolar_hilbert", "apolar_ideal",
    "avoidance_lower_bound", "catalecticant", "catalecticant_lower_bound",
    "classified_rank_bounds", "classify", "colon_refinement",
    "decompose_binary", "decompose_type_c", "decompose_type_c_normal",
    "essential_variables", "generic_rank", "graded_basis", "hilbert_function",
    "ideal_colon", "ideal_contains", "ideal_equal", "ideal_sum",
    "is_nonzerodivisor", "monomials", "normal_form", "normal_form_pair",
    "normalize_tangent_product", "parse", "quadric_matrix", "rank_report",
    "ring_dimension", "split_change", "split_normal_form", "substitute",
    "tangent_plane_certificate", "verify_decomposition",
]
