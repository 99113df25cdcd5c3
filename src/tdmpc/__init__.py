"""Suboptimal time-distributed linear-quadratic MPC with certified gap bounds."""

from .certificates import (
    CertificateError,
    Certificates,
    check_psi_decay,
    compute_certificates,
    decay_beta,
    ell_star,
    epsilon_rate,
    interconnection_constants,
    lipschitz_L,
    psi_value,
    region_radius,
    sample_gamma,
    stage_cost_lipschitz,
    tau_star,
    terminal_level_c,
)
from .closed_loop import (
    ClosedLoopRun,
    cost_JT,
    path_vectors,
    read_run_csv,
    run_benchmark,
    run_tdmpc,
    truncate_run,
    write_run_csv,
)
from .condensed import CondensedQp, build_condensed, cost
from .gap import (
    GapReport,
    build_gap_report,
    chain_bound,
    complexity_term,
    empirical_gap,
    eta_tilde,
    eta_tilde_mpc,
)
from .numerics import (
    NumericsError,
    SymEig,
    dare_residual,
    discretize_zoh,
    mat_inv_sqrt,
    mat_sqrt,
    solve_dare,
    spectral_norm,
    spectral_radius,
    sym_eig,
    weighted_extremes,
)
from .pgm import (
    BenchmarkSolveError,
    PgmConfig,
    certified_rate,
    pgm_config,
    pgm_iterate,
    pgm_step,
    solve_benchmark,
    solve_benchmark_pgm,
)
from .plant import BoxSet, LtiModel
from .probe import (
    ContractionError,
    EdissFit,
    EdissFitError,
    LyapunovError,
    LyapunovReport,
    ProbeError,
    audit_contraction,
    fit_ediss,
    lyapunov_finite_horizon,
    make_benchmark_evaluator,
)

__version__ = "0.1.0"
