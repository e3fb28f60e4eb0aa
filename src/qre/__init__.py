"""Quasi-relative entropy toolkit.

Computes quasi-relative entropies S_f^K on finite-dimensional spaces and
verifies the remainder-term inequalities that sharpen monotonicity, joint
convexity, strong subadditivity, their operator versions, skew-information
concavity, and the Pinsker and Cauchy-Schwarz bounds, with explicitly
computable constants.
"""

from .errors import (
    DivergentEntropy,
    InvalidMatrix,
    InvalidParameter,
    InvalidRank,
    IrregularFunction,
    NotPSD,
    QREError,
    ShapeMismatch,
    SingularArgument,
)
from .functions import (
    OperatorConvexFunction,
    RegularityWindow,
    from_id,
    loewner_quadrature,
    make_f_p,
    make_g_p,
    make_neg_log,
    make_neg_power,
    regularity_constant,
)
from .linalg import (
    DensityMatrix,
    FactorizedSpace,
    PsdOperator,
    hs_norm,
    jordan_hahn,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    norms,
    op_norm,
    partial_trace,
    random_contraction,
    random_density,
    random_hermitian,
    random_unitary,
    save_matrix,
    spectral_decompose,
    tensor,
    trace_norm,
)
from .entropy import (
    ModularOperator,
    apply_f_modular,
    classical_reduction,
    f_divergence,
    j_p_entropy,
    quasi_relative_entropy,
    umegaki,
    von_neumann_entropy,
    wyd_skew_information,
)
from .recovery import (
    ResidualSpec,
    equality_condition_residual,
    monotonicity_residual,
    petz_recover,
    ssa_residual_P,
    ssa_residual_Q,
)
from .bounds import (
    BoundConstants,
    BoundReport,
    explicit_N,
    monotonicity_gap,
    pinsker_check,
    ssa_gap,
    verify_cauchy_schwarz,
    verify_joint_convexity,
    verify_monotonicity,
    verify_monotonicity_bound,
    verify_operator_ssa,
    verify_ssa,
    verify_thm42_grid,
    verify_wyd_joint_concavity,
    verify_wyd_operator,
    verify_wyd_skew,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
