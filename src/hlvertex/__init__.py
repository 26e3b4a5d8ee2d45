"""Exact Hall-Littlewood vertex operators, generalized Kostka polynomials,
and certified rewriting of operator words."""

from .coeffs import QPoly, QRat
from .kostka import (
    check_col_skew,
    kostant_series,
    kostka_foulkes,
    kostka_kostant,
    kostka_table,
    kostka_vertex,
    roots_set,
)
from .memo import clear_caches
from .rewrite import (
    OpSum,
    evaluate,
    format_word,
    normalize,
    operators_equal,
    parse_word,
    relation_instance,
    rewrite_dominant,
    shift_support,
    swap_factors,
)
from .symfunc import (
    PowerSumSubst,
    SymFunc,
    constant_alphabet,
    convert,
    dual_basis_pair_check,
    elementary,
    elementary_perp,
    homogeneous,
    lr_coefficient,
    multiply,
    one,
    plethysm_substitute,
    powersum,
    rational_tensor_multiplicity,
    scalar_product,
    schur,
    skew,
    specialize_q,
    X_OVER_1MQ,
    X_OVER_QM1,
    X_TIMES_1MQ,
    X_TIMES_QM1,
)
from .vertexop import apply_B, apply_F, apply_H, apply_H_word
from .weights import (
    alpha_beta,
    dual_weight,
    is_dominant,
    is_partition,
    is_vertical_strip,
    rho,
    straighten,
    vertical_strip_grow,
    vertical_strip_shrink,
)

__version__ = "0.1.0"
