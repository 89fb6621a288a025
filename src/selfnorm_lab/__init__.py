"""Numerical laboratory for randomly weighted and self-normalized sums.

The package simulates the finite-n laws of T_n = sum(X_i Y_i) / sum(Y_i) and
the scaled pair (sum(X_i Y_i)/a_n, sum(Y_i)/a_n), evaluates their limit
objects (jump measures, the arctan limit CDF, tail constants), and classifies
multiplier laws into the regimes that decide whether the limits are
continuous or carry atoms.
"""

from .distributions import (
    MultiplierLaw,
    ParameterError,
    QuadratureError,
    SeedStream,
    TailClass,
    WeightLaw,
    expect_weight,
    levy_cdf,
    make_finite_mean_multiplier,
    make_multiplier_law,
    make_pareto_multiplier,
    make_slowly_varying_multiplier,
    make_weight_law,
)
from .levy_calculus import (
    BivariateLevyView,
    ConvergenceReport,
    LevyTail,
    alpha_h,
    check_levy_convergence,
    lambda_bar,
    pi_bar,
    prelimit_alpha_h,
    prelimit_lambda_n,
    prelimit_pi_n,
    prelimit_truncated_first_moments,
    prelimit_truncated_second_moments,
    second_moment_smallh_scan,
    stable_levy_tail,
    truncated_first_moments,
    truncated_second_moments,
)
from .limit_laws import (
    BreimanLimit,
    breiman_cdf,
    breiman_cdf_grid,
    breiman_tail,
    quantile_grid,
    regvar_tail_constant,
    tabulated_cdf,
)
from .montecarlo import (
    DivergenceProbe,
    EmpiricalSample,
    MaxShareStats,
    PairSample,
    SimConfig,
    divergence_probe,
    max_share_stats,
    simulate_limit_pair,
    simulate_normed_pair,
    simulate_tn,
)
from .class_diagnostics import (
    ClassVerdict,
    atom_scan,
    centered_feller_ratio,
    classify,
    feller_ratio,
    griffin_ratio,
    ks_distance,
    ratio_scans,
    verdict_from_scans,
)

__version__ = "0.1.0"
