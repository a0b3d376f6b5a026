"""Numerical identification toolkit for random-coefficient perturbed
utility models: exact mean-demand oracles over one finite coefficient
support (independent-coordinate products are compiled to it), finite-
difference derivative tables at a centering point, constructive recovery of
coefficient moments and value-function derivatives, welfare objects, and
consistency diagnostics.
"""

from .asf import AsfEvaluator, ybar_given_beta
from .diagnostics import (
    build_report,
    cauchy_schwarz_check,
    complementarity_signs,
    sign_first_moment,
)
from .distributions import (
    DiscreteBeta,
    MomentIndex,
    all_moment_indices,
    true_moments,
)
from .exceptions import (
    AnchorError,
    ConfigurationError,
    EvaluationError,
    ExtrapolationWarning,
    PreconditionError,
    RcpumError,
    RelevanceError,
    WeightingError,
)
from .models import BundleModel, LogitModel
from .numdiff import DerivativeTable, FdScheme, derivative_table
from .recovery import (
    ChainResult,
    MomentTable,
    VDerivTable,
    chain_ratios,
    recover_moments_independence,
    recover_moments_scale,
    recover_moments_vknown,
    recover_v_derivatives,
)
from .welfare import (
    TaylorVModel,
    average_indirect_utility,
    default_trust_radius,
    path_integral_v,
)

__version__ = "0.1.0"
