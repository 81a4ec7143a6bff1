"""Numerical laboratory for high-dimensional linear independence testing.

Exact chi-square divergence calculators for a sign-vector Gaussian ensemble,
brute-force oracles for every closed-form step, and a permutation-calibrated
Monte-Carlo harness for level and power experiments.
"""

from .divergence import (
    DivergenceReport,
    GammaQuad,
    chi_square_closed_bound,
    chi_square_exact,
    gamma_eigs,
    hoeffding_tail_bound,
    mgf_validity,
    minimax_power_upper,
    select_b,
)
from .structured_cov import (
    CovStack,
    Dataset,
    LeastFavorableCov,
    SingularCovarianceError,
    amplitude,
    cov_det,
    cov_inverse,
    cov_sqrt_apply,
    dense_cov,
    sample_dataset,
    sample_direction,
)
from .stat_tests import (
    PowerEstimate,
    TestDecision,
    cross_cov_stat,
    estimate_avg_power,
    estimate_level,
    permutation_test,
    phase_curve,
    scenario_regression,
    scenario_two_sample,
    wilson_interval,
)

__version__ = "0.1.0"
