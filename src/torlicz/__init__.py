"""Orlicz norms, weights, 2-cocycles, and twisted convolution on discrete
groups, with desk-scale numerical verification of the algebra inequalities
they satisfy."""

__version__ = "0.1.0"

from .groups import (
    BallTable,
    BudgetError,
    Group,
    ball_elements,
    ball_sizes,
    ball_table,
    block_group,
    cyclic_group,
    cyclic_product_group,
    growth_degree_estimate,
    heisenberg_group,
    integer_lattice,
    parse_group,
    word_length,
)
from .young import (
    YoungFunction,
    YoungPair,
    conjugate,
    parse_pair,
    piecewise_pair,
    young_function,
)
from .weights import (
    Weight,
    analyze_p_function,
    check_grs,
    check_lss_domination,
    check_submultiplicative,
    check_symmetric,
    check_weak_subadditive,
    constant_weight,
    make_block_weight,
    make_poly_weight,
    make_subexp2_weight,
    make_subexp_weight,
    parse_weight,
    quotient_weight,
)
from .cocycles import (
    Cocycle,
    DominationPair,
    bicharacter_cocycle,
    central_extension_embed,
    central_extension_group,
    coboundary_from_weight,
    domination_from_subadditive,
    one_cocycle,
    parse_cocycle,
    polar,
    product_cocycle,
    verify_cocycle,
)
from .orlicz import (
    FunctionBatch,
    SupportedFunction,
    delta,
    dual_pairing_bound,
    dual_pairing_bounds,
    l1_norm,
    luxemburg_norm,
    luxemburg_norms,
    modular,
    orlicz_norm,
    orlicz_norms,
    psi_membership_series,
    random_supported_function,
    weighted_l1_norm,
)
from .twisted import (
    AlgebraContext,
    check_algebra_bound,
    check_associativity,
    check_differential_bound,
    check_intertwining,
    check_module_bound,
    convolution_matrix,
    finite_symmetry_check,
    involution,
    spectral_radius_estimate,
    twisted_convolve,
)
