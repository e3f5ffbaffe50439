"""Desk-scale numerics for matrix entropy functionals.

Hermitian standard-function calculus, matrix entropy functionals with
their equivalent convexity characterizations, resampling and Poincare
variance bounds, Fourier-Walsh analysis of matrix-valued cube functions
with hypercontractive entropy inequalities, and Holevo-quantity
data-processing constants for classical-quantum ensembles. Everything is
exact enumeration or seeded sampling at small dimension, reported through
structured check results.
"""

from .concentration import (
    check_efron_stein,
    check_gaussian_logsobolev,
    check_gaussian_poincare,
    check_gaussian_sobolev,
    check_plus_identities,
    check_poincare,
    check_poincare_commuting,
    efron_stein_forms,
    efron_stein_quantity,
    gue_clt_sample,
    sample_gue,
    variance,
)
from .entropy import (
    bregman_maps,
    check_char_a,
    check_char_e,
    check_char_g,
    check_char_h,
    check_joint_convexity,
    check_subadditivity,
    conditional_phi_entropy,
    duality_lower_bound,
    phi_entropy,
)
from .errors import MatPhiError
from .fourier import (
    FourierTable,
    MatrixBooleanFunction,
    check_bonami_beckner,
    check_log_sobolev,
    check_p_variance_limit,
    check_phi_sobolev,
    entropy_of_square,
    fourier_transform,
    inverse_fourier,
    noise_operator,
    parseval_check,
    search_lsi_counterexample,
)
from .frechet import (
    MultivariateScalarFunction,
    frechet_derivative,
    frechet_second,
    inverse_derivative_superoperator,
    inverse_frechet_derivative,
)
from .holevo import (
    CQEnsemble,
    MarkovKernel,
    check_data_processing,
    check_functional_sdpi,
    check_law_total_variance,
    eta_phi,
    evolve_ensemble,
    holevo_chi,
    kernel_push,
)
from .linalg import (
    SpectralInterval,
    apply_standard_function,
    normalized_trace,
    positive_part,
    schatten_norm,
)
from .models import DiscreteRandomMatrix, FiniteLaw, MatrixInputModel, ProductModel
from .phifun import PhiFunction, ScalarFunction
from .report import CheckReport, SuiteReport
from .suites import RunConfig, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
