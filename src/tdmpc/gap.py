"""Finite-time suboptimality-gap machinery for the truncated loop.

The per-step optimizer errors d_k accumulate through the closed loop
according to compounded contraction rates.  With per-step rates
rho_k = eta^{ell_k} the compounded weights follow the backward recursion
eta_tilde_{T-1} = rho_{T-1}, eta_tilde_k = rho_k (1 + eta_tilde_{k+1}),
and the cumulative policy error is bounded by

    sum_k ||d_k|| <= eta_tilde_0 ||delta u_0||
                     + sum_{k=1}^{T-1} L * Delta_k * eta_tilde_k

where Delta_k = ||x_k - x_{k-1}|| is the realized state motion.
Multiplying by the cost Lipschitz constant M_bar turns this into a bound
on the cost gap R_T = J_T(truncated) - J_T(benchmark).
"""

from dataclasses import dataclass

import numpy as np

from .closed_loop import cost_JT, path_vectors
from .numerics import NumericsError
from .pgm import certified_rate


def eta_tilde(rates):
    """Compounded contraction weights for a sequence of per-step rates.

    Every rate must lie in [0, 1); the recursion runs backward from the
    final step.  Returns the weights, one per rate.
    """
    rates = np.asarray(rates, dtype=float).ravel()
    if rates.size < 1:
        raise NumericsError("rate sequence must have at least one entry")
    if np.any(rates < 0.0) or np.any(rates >= 1.0):
        raise NumericsError("rates must lie in [0, 1) for the recursion to contract")
    T = rates.size
    tilde = np.zeros(T)
    tilde[T - 1] = rates[T - 1]
    for k in range(T - 2, -1, -1):
        tilde[k] = rates[k] * (1.0 + tilde[k + 1])
    return tilde


def eta_tilde_mpc(eta, ell_schedule):
    """Compounded weights when step k runs ell_k optimizer iterations, each an integer >= 1."""
    return eta_tilde([certified_rate(eta, ell) for ell in ell_schedule])


def empirical_gap(run_sub, run_bench, Q, R, P):
    """Realized cost gap between a truncated run and the benchmark run.

    Both runs must start from the same state and cover the same number of
    applied inputs; the gap is the difference of their accumulated costs.
    """
    if run_sub.T != run_bench.T:
        raise NumericsError(
            f"runs cover different horizons: {run_sub.T} vs {run_bench.T}"
        )
    x0_diff = float(np.linalg.norm(run_sub.states[0] - run_bench.states[0]))
    if x0_diff > 1e-12:
        raise NumericsError(
            f"runs start from different states (distance {x0_diff:.3e})"
        )
    return cost_JT(run_sub, Q, R, P) - cost_JT(run_bench, Q, R, P)


def chain_bound(tilde, L, deltas, delta_u0_norm):
    """Cumulative policy-error bound implied by the compounded weights tilde.

    tilde holds the T weights of eta_tilde or eta_tilde_mpc; deltas
    carries the realized per-step state motion of the same run (at least
    T-1 entries).  The bound holds for any trajectory of the
    loop, stable or not, because it only uses the per-step contraction of
    the optimizer and the Lipschitz dependence of the minimizer on the
    state.
    """
    T = len(tilde)
    deltas = np.asarray(deltas, dtype=float).ravel()
    if deltas.size < T - 1:
        raise NumericsError(
            f"need at least {T - 1} state-motion entries, got {deltas.size}"
        )
    total = tilde[0] * float(delta_u0_norm)
    if T > 1:
        total += float(np.sum(L * deltas[:T - 1] * tilde[1:]))
    return total


def complexity_term(rate, S_T):
    """Pathlength complexity rate/(1-rate) * S_T for a constant rate."""
    if not 0.0 <= rate < 1.0:
        raise NumericsError(f"rate must lie in [0, 1), got {rate}")
    return rate / (1.0 - rate) * S_T


@dataclass
class GapReport:
    """Empirical gap and its certified bounds for one truncated run."""

    T: int
    R_T: float | None
    S_T: float
    S_T2: float
    delta_u0: float
    rate_max: float
    chain: float
    bound: float | None
    complexity: float
    M_bar: float | None
    L: float
    eta: float


def build_gap_report(run_sub, qp, certs, run_bench=None):
    """Assemble the gap report for a truncated run.

    Needs the run's iteration schedule for the compounded rates; the
    benchmark run is optional and enables the realized gap R_T.  The
    certified bound requires M_bar (None without an incremental-stability
    fit, in which case only the complexity term is reported).
    """
    if run_sub.ell_schedule is None:
        raise NumericsError("gap report needs a truncated run with an iteration schedule")
    deltas, S_T, S_T2 = path_vectors(run_sub)
    tilde = eta_tilde_mpc(certs.eta, run_sub.ell_schedule)
    rate_max = certified_rate(certs.eta, min(run_sub.ell_schedule))
    chain = chain_bound(tilde, certs.L, deltas, run_sub.delta_u0_norm)
    bound = None if certs.M_bar is None else certs.M_bar * chain
    complexity = complexity_term(rate_max, S_T)
    R_T = None
    if run_bench is not None:
        R_T = empirical_gap(run_sub, run_bench, qp.Q, qp.R, qp.P)
    return GapReport(run_sub.T, R_T, S_T, S_T2, run_sub.delta_u0_norm, rate_max,
                     chain, bound, complexity, certs.M_bar, certs.L, certs.eta)
