"""Concentration-of-measure and PAC-Bayes bound computation.

Scalar kl primitives, the kl / Empirical Bernstein / Unexpected Bernstein /
split-kl concentration bounds, their PAC-Bayes counterparts, weighted
majority-vote certificates with posterior optimization, and Monte Carlo
simulation drivers.
"""

from .concentration import (
    BoundReport,
    EmpiricalSummary,
    GammaGrid,
    SplitSummary,
    empirical_bernstein_bound,
    kl_lower_bound,
    kl_upper_bound,
    make_gamma_grid,
    split_decompose,
    split_kl_bound,
    unexpected_bernstein_bound,
    unexpected_bernstein_grid_bound,
)
from .errors import DomainError, InputFormatError
from .klcore import (
    bernoulli_kl,
    binomial_tail,
    binomial_tail_inverse,
    discrete_kl,
    kl_inv_lower,
    kl_inv_upper,
    phi,
    psi,
)
from .majority_vote import (
    AlphaTandemStats,
    EvaluationMatrix,
    PosteriorWeights,
    PredictionLossMatrix,
    TandemStats,
    alpha_stats,
    ccpbb_bound,
    ccpbb_optimize,
    ccpbskl_bound,
    ccpbskl_optimize,
    ccpbub_bound,
    ccpbub_optimize,
    cctnd_bound,
    cctnd_optimize,
    compute_tandem_stats,
    irprop_plus,
    mv_risk,
    project_simplex,
    tnd_bound,
    tnd_optimize,
)
from .pacbayes import (
    ExcessLossInput,
    PacBayesInput,
    excess_informed_bound,
    optimal_gamma,
    optimal_lambda,
    pb_kl_bound,
    pb_kl_pinsker_relaxation,
    pb_lambda_lower,
    pb_lambda_upper,
    pb_split_kl,
    pb_unexpected_bernstein,
    pb_unexpected_bernstein_grid,
    test_set_bound,
)
from .simulation import (
    BetaSpec,
    SweepRow,
    TernarySpec,
    coverage_ceiling,
    coverage_experiment,
    coverage_passes,
    sample_beta,
    sample_ternary,
    sweep_beta,
    sweep_ternary,
    synth_ensemble,
)

__version__ = "0.1.0"
