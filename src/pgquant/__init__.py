"""Exact matrix quantization of nilpotent q-commuting variables.

The algebra has d conjugate pairs of generators, each nilpotent of order
k/2, with commutation phases that are roots of unity determined by the
even deformation order k.  Coherent-state kernels built from the algebra's
integral calculus turn polynomials into (k/2)^d dimensional complex
matrices; symbol maps invert the construction and transport the matrix
product back to a star product on polynomials.  Every asserted identity is
backed by a machine check in :mod:`pgquant.quantization` and the test
suite.
"""

from .algebra import (
    ParaPoly,
    berezin_full_integral,
    berezin_prescription_product,
    canonicalize_q,
    inner_product,
    multiply,
    multiply_prescription,
    poly_from_dict,
    poly_to_dict,
    pseudo_norm_sq,
    random_poly,
    weight,
)
from .bargmann import derivative, from_bargmann, multiply_theta, to_bargmann
from .expr import ExprSyntaxError, parse, poly_to_expr
from .qnum import Deformation, deformation, qfactorial, qnumber
from .quantization import (
    FockOperator,
    Ordering,
    RelationCheck,
    VerificationReport,
    basis_tuples,
    check_kfermionic,
    check_mixed_quantization,
    check_ordering_products,
    hermiticity_residual,
    ladder,
    ladder_dag,
    mode_table,
    number_operator,
    operator_from_dict,
    operator_to_dict,
    q_power_N,
    quantize,
    rescale_B,
    resolution_of_unity,
    verify_relations,
)
from .symbols import (
    lower_symbol,
    moyal_star,
    quaternion_demo,
    round_trip_residuals,
    upper_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "Deformation",
    "ExprSyntaxError",
    "FockOperator",
    "Ordering",
    "ParaPoly",
    "RelationCheck",
    "VerificationReport",
    "basis_tuples",
    "berezin_full_integral",
    "berezin_prescription_product",
    "canonicalize_q",
    "check_kfermionic",
    "check_mixed_quantization",
    "check_ordering_products",
    "deformation",
    "derivative",
    "from_bargmann",
    "hermiticity_residual",
    "inner_product",
    "ladder",
    "ladder_dag",
    "lower_symbol",
    "mode_table",
    "moyal_star",
    "multiply",
    "multiply_prescription",
    "multiply_theta",
    "number_operator",
    "operator_from_dict",
    "operator_to_dict",
    "parse",
    "poly_from_dict",
    "poly_to_dict",
    "poly_to_expr",
    "pseudo_norm_sq",
    "q_power_N",
    "qfactorial",
    "qnumber",
    "quantize",
    "quaternion_demo",
    "random_poly",
    "rescale_B",
    "resolution_of_unity",
    "round_trip_residuals",
    "to_bargmann",
    "upper_symbol",
    "verify_relations",
    "weight",
]
