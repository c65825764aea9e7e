"""Robust linear-Gaussian state estimation toolkit.

Implements the update-resilient Kalman filter (a minimax filter whose
robustification acts on the filtered covariance), its fixed-parameter
risk-sensitive variant, the classic prediction-stage comparators, hostile
(worst-case) model synthesis and evaluation, and closed-form tolerance
bounds that certify gain convergence.
"""

from .model import (
    LinearGaussianModel,
    GaussianBelief,
    Trajectory,
    MsdParams,
    validate,
    msd_discretize,
    simulate_nominal,
)
from .numerics import (
    gamma,
    solve_budget,
    gaussian_kl,
    spd_sqrt,
    spectral_extrema,
    solve_discrete_lyapunov,
)
from .filters import (
    FilterConfig,
    Schedule,
    covariance_schedule,
    mean_pass,
)
from .least_favorable import (
    BackwardPass,
    LeastFavorableModel,
    backward_pass,
    assemble_lf,
    simulate_lf,
    error_cov_recursion,
    simulate_worst_case,
    one_step_joints,
    steady_state_w,
)
from .bench import (
    Scenario,
    McConfig,
    MseReport,
    sample_measurement,
    run_monte_carlo,
    oracle_sweep,
    default_oracle_grid,
)
from .stability import (
    GramianParts,
    BoundReport,
    build_gramian_parts,
    rk_matrix,
    phi_max,
    pbar_filtered,
    c_max,
    sigma_beta,
    theta_max,
    prop6_guard,
)

__version__ = "0.1.0"
