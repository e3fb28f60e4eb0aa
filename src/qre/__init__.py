"""Quasi-relative entropy toolkit.

Computes quasi-relative entropies S_f^K on finite-dimensional spaces and
verifies the remainder-term inequalities that sharpen monotonicity, joint
convexity, strong subadditivity, their operator versions, skew-information
concavity, and the Pinsker and Cauchy-Schwarz bounds, with explicitly
computable constants.

The package namespace holds the paper's quantities, the checks, the
campaign and the JSON matrix exchange the command line reads; helpers live
in their submodules.
"""

from .errors import (DivergentEntropy, InvalidMatrix, InvalidParameter, InvalidRank,
                     IrregularFunction, NotPSD, QREError, ShapeMismatch, SingularArgument)
from .functions import (OperatorConvexFunction, from_id, loewner_quadrature, make_f_p,
                        make_neg_log, make_neg_power)
from .linalg import (DensityMatrix, FactorizedSpace, PsdOperator, load_matrix,
                     random_contraction, random_density, random_unitary, save_matrix)
from .entropy import (ModularOperator, apply_f_modulars, classical_reduction,
                      quasi_relative_entropy, umegaki, von_neumann_entropy,
                      wyd_skew_information)
from .recovery import (equality_condition_residuals, monotonicity_residuals, petz_recover,
                       ssa_residuals_P, ssa_residuals_Q)
from .reports import BoundConstants, BoundReport
from .bounds import (alpha_exponent, classical_reduction_block, constants_for,
                     lieb_ruskai_block, monotonicity_gap, pinsker_block, power_family_constants,
                     ssa_gap, verify_cauchy_schwarz_block, verify_joint_convexity_block,
                     verify_monotonicity_block, verify_monotonicity_bound_block,
                     verify_operator_ssa_block, verify_ssa_block, verify_thm42_block,
                     verify_wyd_joint_concavity_block, verify_wyd_operator_block, wyd_skew_block)
from .equality import equality_suite
from .campaign import FAMILIES, CampaignConfig, run_campaign, run_single

__all__ = [
    # errors
    "DivergentEntropy", "InvalidMatrix", "InvalidParameter", "InvalidRank",
    "IrregularFunction", "NotPSD", "QREError", "ShapeMismatch", "SingularArgument",
    # operator convex functions
    "OperatorConvexFunction", "from_id", "loewner_quadrature", "make_f_p",
    "make_neg_log", "make_neg_power",
    # operators, states and their JSON files
    "DensityMatrix", "FactorizedSpace", "PsdOperator", "load_matrix",
    "random_contraction", "random_density", "random_unitary", "save_matrix",
    # entropies
    "ModularOperator", "apply_f_modulars", "classical_reduction",
    "quasi_relative_entropy", "umegaki", "von_neumann_entropy", "wyd_skew_information",
    # recovery map and residuals
    "equality_condition_residuals", "monotonicity_residuals", "petz_recover",
    "ssa_residuals_P", "ssa_residuals_Q",
    # constants, gaps and checks
    "BoundConstants", "BoundReport", "alpha_exponent", "classical_reduction_block",
    "constants_for", "equality_suite", "lieb_ruskai_block", "monotonicity_gap",
    "pinsker_block", "power_family_constants", "ssa_gap", "verify_cauchy_schwarz_block",
    "verify_joint_convexity_block", "verify_monotonicity_block",
    "verify_monotonicity_bound_block", "verify_operator_ssa_block", "verify_ssa_block",
    "verify_thm42_block", "verify_wyd_joint_concavity_block", "verify_wyd_operator_block",
    "wyd_skew_block",
    # campaigns
    "FAMILIES", "CampaignConfig", "run_campaign", "run_single",
]
__version__ = "0.1.0"
