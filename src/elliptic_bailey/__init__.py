"""Numerical elliptic special functions, Bailey matrices and integral
operators, with verification campaigns for the identities connecting them."""

from .errors import (
    BaileyPairError,
    ConstraintViolationError,
    DegenerateParameterError,
    DomainError,
    EllipticBaileyError,
    PoleProximityError,
    QuadratureConvergenceError,
    TruncationLimitError,
)
from .special_functions import (
    NomePair,
    elliptic_gamma,
    elliptic_pochhammer,
    gamma_quadratic_check,
    gamma_residue_constant,
    qpochhammer_inf,
    theta,
)
from .bailey_algebra import (
    BaileyMatrix,
    BaileySequence,
    DiagonalOp,
    DiscreteParams,
    bailey_transform,
    bressoud_limit_check,
    build_D,
    build_M,
    conditioning_amplification,
    d_entry,
    derive_bc,
    m_entry,
    verify_coxeter,
    verify_matrix_bailey,
)
from .contour import (
    OperatorParams,
    QuadratureGrid,
    SymmetricTestFunction,
    apply_M,
    circle_integral,
    constant_one,
    contour_deformation_check,
    d_factor,
    designated_poles,
    elliptic_beta_integral,
    finite_difference_M,
    finite_difference_oracle,
    gamma_product_function,
    m_inversion_check,
    residue_matrix_reduction_check,
    star_triangle_residual,
    z_plus_inverse,
)
from .report import VerificationReport, relative_residual, identity_deviation
from .harness import CampaignConfig, CampaignSummary, run_campaign, summarize

__version__ = "0.1.0"
