"""Exact arithmetic for Hopf orders in primitively generated Hopf algebras
over K = F_q(T) / F_q((T)), driven by the twisted matrix equation
Theta * A = B * Theta^(p)."""

from .fields import FieldSpec, FqElem
from .ratfunc import INF, Poly, RatFunc, poly_gcd
from .matrix import IntegralityResult, Mat, SingularMatrixError, Witness
from .orders import (Embedding, FibreReport, NotIntegralError, OrderResult,
                     Presentation, ddl_normalize, embedding_generators,
                     is_ddl, order_from_theta, presentation_from_matrix,
                     same_order, scale_to_integral, special_fibre,
                     verify_twisted_equation)
from .families import (AgreementReport, Disagreement, Family, OrderRecord,
                       Rank1Result, alpha_p2_loose_predicate, canonical_theta,
                       default_depth, enumerate_orders, family_matrix,
                       oracle_check_family, oracle_is_order, predicate,
                       rank1_orders, theta_for_record)
from .parse import parse_element, parse_field_spec, parse_matrix

__version__ = "0.1.0"

__all__ = [
    "AgreementReport", "Disagreement", "Embedding", "Family", "FibreReport",
    "FieldSpec", "FqElem", "INF", "IntegralityResult", "Mat",
    "NotIntegralError", "OrderRecord", "OrderResult", "Poly", "Presentation",
    "Rank1Result", "RatFunc", "SingularMatrixError", "Witness",
    "alpha_p2_loose_predicate", "canonical_theta", "ddl_normalize",
    "default_depth", "embedding_generators", "enumerate_orders",
    "family_matrix", "is_ddl", "oracle_check_family", "oracle_is_order",
    "order_from_theta", "parse_element", "parse_field_spec", "parse_matrix",
    "poly_gcd", "predicate", "presentation_from_matrix", "rank1_orders",
    "same_order", "scale_to_integral", "special_fibre", "theta_for_record",
    "verify_twisted_equation", "__version__",
]
