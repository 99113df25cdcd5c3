"""Certified constants for the time-distributed MPC loop.

All quantities are computed from the condensed QP data and the plant:
the parametric Lipschitz constant of the minimizer, the cost decay
factor of the optimal value function, the constraint-compatible region
radius, the interconnection gains between tracking error and state
motion, and the Lipschitz bound on the closed-loop cost.  Analytic
formulas are paired with sampled empirical checks where the formula
relies on a structural property of the problem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .closed_loop import _benchmark_steps
from .condensed import cost
from .numerics import (
    dare_residual,
    mat_inv_sqrt,
    mat_sqrt,
    spectral_norm,
    sym_eig,
    weighted_extremes,
)
from .pgm import certified_rate, solve_benchmark
from .report import field_pairs, kv_lines


class CertificateError(Exception):
    """Raised when a certified constant fails its own consistency check."""


def lipschitz_L(qp):
    """Lipschitz constant of x -> mu*(x): ||H^{-1/2}|| * ||H^{-1/2} G||."""
    Hm = mat_inv_sqrt(qp.H, "H")
    return spectral_norm(Hm) * spectral_norm(Hm @ qp.G)


def decay_beta(qp):
    """Per-step decay factor of psi(x) = sqrt(J_N*(x)) along the optimal loop.

    From J_N*(x+) <= J_N*(x) - ||x||_Q^2 and J_N*(x) <= ||x||_W^2 the
    ratio psi(x+)/psi(x) is at most sqrt(1 - lam_min(W^{-1/2} Q W^{-1/2})).
    The argument is floored at 1e-12 so beta stays positive when W = Q.
    """
    lam_min, _ = weighted_extremes(qp.Q, qp.W, "Q", "W")
    return math.sqrt(max(1e-12, 1.0 - lam_min))


def psi_value(qp, cfg, x, nu_star=None):
    """psi(x) = sqrt(J_N*(x)); accepts batched x, solves for mu*(x) if needed."""
    if nu_star is None:
        nu_star = solve_benchmark(qp, cfg, x)
    psi = np.sqrt(np.maximum(cost(qp, x, nu_star), 0.0))
    return float(psi) if psi.ndim == 0 else psi


def sample_gamma(qp, cfg, r_N, rng, count):
    """Sample `count` states from the sublevel set {x : psi(x) <= r_N}.

    Proposes uniformly from the enclosing ellipsoid {||x||_P <= r_N}
    (psi dominates the P-norm, so the ellipsoid covers the set) and
    keeps proposals with psi(x) <= r_N.  Returns an (n, count) array.
    """
    n = qp.W.shape[0]
    Pm = mat_inv_sqrt(qp.P, "P")
    kept = []
    found = 0
    for _ in range(1000):
        batch = max(2 * (count - found), 8)
        Z = rng.standard_normal((n, batch))
        Z /= np.linalg.norm(Z, axis=0, keepdims=True)
        radii = r_N * rng.uniform(size=batch) ** (1.0 / n)
        X = Pm @ (Z * radii)
        psi = psi_value(qp, cfg, X)
        mask = psi <= r_N
        if np.any(mask):
            kept.append(X[:, mask])
            found += int(mask.sum())
        if found >= count:
            break
    else:
        raise CertificateError("region sampler failed to find enough feasible states")
    return np.hstack(kept)[:, :count]


def check_psi_decay(model, qp, cfg, beta, r_N, rng, samples=500):
    """Empirical check that psi decays by at least beta over one optimal step.

    Samples states in the region, applies the first block of mu*(x) to the
    plant and verifies psi(x+) <= beta * psi(x).  Returns the worst observed
    ratio psi(x+) / psi(x); raises if it exceeds beta beyond round-off.
    """
    X = sample_gamma(qp, cfg, r_N, rng, samples)
    NU, _, X_next, _ = next(_benchmark_steps(model, qp, cfg, X, 1, 0))
    psi0 = psi_value(qp, cfg, X, NU)
    psi1 = psi_value(qp, cfg, X_next)
    ratios = psi1 / np.maximum(psi0, 1e-300)
    worst = float(np.max(ratios))
    if worst > beta * (1.0 + 1e-9) + 1e-12:
        raise CertificateError(
            f"cost decay certificate violated: observed ratio {worst:.12f} "
            f"exceeds beta = {beta:.12f}"
        )
    return worst


_LEVEL_CAP = 1e12


def terminal_level_c(P, K, u_box):
    """Largest c with {x : ||x||_P^2 <= c} inside the unsaturated region of u = -Kx.

    For each input row, |K_i x| over the ellipsoid is sqrt((K P^{-1} K')_ii),
    so the binding level is u_i^2 / (K P^{-1} K')_ii with u_i the smaller of
    the two bound magnitudes.  Rows with a vanishing gain never bind; if no
    row binds the level is capped at 1e12.
    """
    P = np.asarray(P, dtype=float)
    K = np.asarray(K, dtype=float)
    Pm = mat_inv_sqrt(P, "P")
    KP = K @ Pm
    diag = (KP ** 2).sum(axis=1)
    u = np.minimum(np.abs(u_box.lower), np.abs(u_box.upper))
    binds = diag > 1e-300
    # libm pow, as the scalar u_i ** 2 was; an array's u ** 2 is u * u (last bits differ)
    return float(np.min(np.float_power(u[binds], 2) / diag[binds], initial=_LEVEL_CAP))


def region_radius(qp, K):
    """Region constants (c, d, r_N) for the horizon-N feasible sublevel set.

    c is the terminal level, d = c * lam_min(Q) / lam_max(P) is the
    per-stage cost margin, and r_N = sqrt(N d + c) is the radius of the
    psi-sublevel set on which all certificates hold.
    """
    c = terminal_level_c(qp.P, K, qp.u_box)
    d = c * sym_eig(qp.Q, "Q").min / sym_eig(qp.P, "P").max
    r_N = math.sqrt(qp.N * d + c)
    return c, d, r_N


def interconnection_constants(qp, model):
    """Gains (omega, sigma, kappa) coupling optimizer error and state motion.

    omega bounds the growth of the warm-start error under one plant step,
    sigma bounds the state-cost motion induced by the applied input, and
    kappa bounds the drift of the minimizer along the closed loop.
    """
    Hm = mat_inv_sqrt(qp.H, "H")
    nHm = spectral_norm(Hm)
    A = model.A
    B_bar = qp.B_bar
    omega = 1.0 + nHm * spectral_norm(Hm @ qp.G @ B_bar)
    sigma = spectral_norm(mat_sqrt(qp.W, "W") @ B_bar)
    Pm = mat_inv_sqrt(qp.P, "P")
    lam_WP = weighted_extremes(qp.W, qp.P, "W", "P")[1]
    if lam_WP < 1.0 - 1e-9:
        raise CertificateError(
            f"curvature ratio lam_max(P^-1/2 W P^-1/2) = {lam_WP:.12f} is below 1; "
            "the cost data is inconsistent with W >= P"
        )
    lam_WP = max(lam_WP, 1.0)
    # largest H-weighted symmetric part of G B_bar, clamped at zero
    C = Hm @ (qp.G @ B_bar) @ Hm
    lam_GB = max(sym_eig(0.5 * (C + C.T)).max, 0.0)
    kappa = nHm * spectral_norm(Hm @ qp.G @ (A - np.eye(model.n)) @ Pm) + nHm * math.sqrt(
        lam_GB * (lam_WP - 1.0)
    )
    return omega, sigma, kappa


def ell_star(beta, kappa, sigma, omega, eta):
    """Smallest iteration count that certifies contraction of the combined loop.

    Returns (raw, ell) where raw is the real-valued threshold
    (log(1-beta) - log(sigma*kappa + omega*(1-beta))) / log(eta) and
    ell = max(1, ceil(raw)).  eta = 0 converges in one step.
    """
    if not 0.0 <= eta < 1.0:
        raise CertificateError(f"eta must lie in [0, 1), got {eta}")
    if eta == 0.0:
        return 0.0, 1
    denom = sigma * kappa + omega * (1.0 - beta)
    if denom <= 0.0:
        raise CertificateError("degenerate constants: sigma*kappa + omega*(1-beta) <= 0")
    raw = (math.log(1.0 - beta) - math.log(denom)) / math.log(eta)
    return raw, max(1, math.ceil(raw))


def tau_star(beta, kappa, sigma, omega, eta, ell):
    """Weight tau balancing the two branches of the combined decay rate.

    The combined system-optimizer error max(psi, tau * optimizer error)
    contracts at rate eps(tau) = max(beta + tau*kappa*eta^ell,
    (sigma + tau*omega*eta^ell)/tau); the balancing tau is the positive
    root of kappa*eta^ell*tau^2 + (beta - omega*eta^ell)*tau - sigma = 0.
    Returns (tau, eps).  A rate eps >= 1 means ell does not certify
    contraction; the caller decides what to do with it.
    """
    r = certified_rate(eta, ell)
    a = kappa * r
    b = beta - omega * r
    if a > 1e-300:
        tau = (-b + math.sqrt(b * b + 4.0 * a * sigma)) / (2.0 * a)
    elif b > 0.0:
        tau = sigma / b
    else:
        tau = math.inf
    eps = epsilon_rate(beta, kappa, sigma, omega, eta, ell, tau)
    return tau, eps


def epsilon_rate(beta, kappa, sigma, omega, eta, ell, tau):
    """Combined contraction rate for a given branch weight tau."""
    r = certified_rate(eta, ell)
    if math.isinf(tau):
        return max(beta, omega * r)
    return max(beta + tau * kappa * r, (sigma + tau * omega * r) / tau)


def stage_cost_lipschitz(qp, r_N, ediss=None):
    """Lipschitz constants of the closed-loop cost on the certified region.

    M_x bounds the state-cost increments over {||x|| <= x_m} with
    x_m = r_N * ||P^{-1/2}||, M_u bounds the input-cost increments over
    the input box, and M_bar combines them with the incremental
    stability constants of the benchmark loop (None when no fit is given).
    """
    Pm = mat_inv_sqrt(qp.P, "P")
    x_m = r_N * spectral_norm(Pm)
    corner = np.maximum(np.abs(qp.nu_box.lower), np.abs(qp.nu_box.upper))
    u_m = float(np.linalg.norm(corner))
    M_x = 2.0 * x_m * max(spectral_norm(qp.Q), spectral_norm(qp.P))
    M_u = 2.0 * u_m * spectral_norm(qp.R)
    if ediss is None:
        return M_x, M_u, None
    L = lipschitz_L(qp)
    L_u = spectral_norm(qp.B_bar)
    M_bar = M_u + ediss.c_w * L_u * (M_u * L + M_x) / (1.0 - ediss.rho)
    return M_x, M_u, M_bar


@dataclass
class Certificates:
    """Bundle of certified constants for one problem instance."""

    N: int
    alpha: float
    eta: float
    L: float
    beta: float
    psi_decay_worst: float | None
    c: float
    d: float
    r_N: float
    omega: float
    sigma: float
    kappa: float
    ell_star_raw: float
    ell_star: int
    tau: float
    eps: float
    M_x: float
    M_u: float
    M_bar: float | None
    dare_residual: float
    ediss: object  # last field: the EdissFit behind M_bar, or None

    def to_lines(self):
        """Flat key = value report: every constant, then the fit under ediss_ keys."""
        pairs = field_pairs(self)[:-1]
        if self.ediss is not None:
            pairs += [(f"ediss_{k}", getattr(self.ediss, k)) for k in ("c0", "c_w", "rho", "r_w")]
        return kv_lines(pairs)


def compute_certificates(model, qp, cfg, K, rng=None, psi_samples=500, ediss=None):
    """Assemble every certified constant for one problem instance.

    K is the terminal-controller gain used to size the constraint-
    compatible region; with qp.P it is the DARE solution whose relative
    residual is reported as dare_residual.  When an rng is supplied the
    analytic decay factor is cross-checked against sampled one-step cost
    ratios; a violation raises.  An incremental-stability fit `ediss` enables the combined
    cost Lipschitz constant M_bar.
    """
    L = lipschitz_L(qp)
    beta = decay_beta(qp)
    c, d, r_N = region_radius(qp, K)
    omega, sigma, kappa = interconnection_constants(qp, model)
    raw, ell = ell_star(beta, kappa, sigma, omega, cfg.eta)
    tau, eps = tau_star(beta, kappa, sigma, omega, cfg.eta, ell)
    M_x, M_u, M_bar = stage_cost_lipschitz(qp, r_N, ediss)
    worst = None
    if rng is not None:
        worst = check_psi_decay(model, qp, cfg, beta, r_N, rng, psi_samples)
    return Certificates(qp.N, cfg.alpha, cfg.eta, L, beta, worst, c, d, r_N,
                        omega, sigma, kappa, raw, ell, tau, eps,
                        M_x, M_u, M_bar, dare_residual(model.A, model.B, qp.Q, qp.R, qp.P, K),
                        ediss)
