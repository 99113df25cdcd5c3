"""Empirical probes backing the assumptions behind the gap bounds.

Three checks run against sampled trajectories of the benchmark loop:
an incremental-stability fit (geometric convergence of trajectory pairs
plus a disturbance gain), a contraction audit of the optimizer iteration
against its certified rate, and a finite-horizon Lyapunov construction
whose sandwich and decrease inequalities are verified on samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .closed_loop import _benchmark_steps
from .condensed import _batched
from .numerics import NumericsError
from .pgm import _pgm_steps, solve_benchmark
from .report import field_pairs, kv_lines


class ProbeError(Exception):
    """Raised when an empirical probe refutes the property it checks."""


class EdissFitError(ProbeError):
    pass


class ContractionError(ProbeError):
    def __init__(self, message, x=None, nu0=None, ell=None, ratio=None):
        super().__init__(message)
        self.x = x
        self.nu0 = nu0
        self.ell = ell
        self.ratio = ratio


class LyapunovError(ProbeError):
    pass


def make_benchmark_evaluator(model, qp, cfg):
    """Batched closed-loop evaluator of the benchmark policy.

    The returned callable maps an (n, batch) array of initial states (or
    one state (n,), run as one column) to a (horizon+1, n, batch) array of
    trajectories, optionally adding a per-step additive disturbance of
    shape (horizon, n, batch).  Solves are warm-started across steps.
    """

    def evaluator(X0, horizon, disturbances=None):
        X, _ = _batched(X0, model.n, "initial states")
        states = np.zeros((horizon + 1,) + X.shape)
        states[0] = X  # start from this C-ordered copy: G @ X's last bit follows X's layout
        for k, (_, _, x, _) in enumerate(
                _benchmark_steps(model, qp, cfg, states[0], horizon, 0, disturbances)):
            states[k + 1] = x
        return states

    return evaluator


@dataclass
class EdissFit:
    """Fitted incremental-stability constants of the benchmark loop."""

    c0: float
    c_w: float
    rho: float
    r_w: float
    pairs: int
    horizon: int
    worst_slack: float

    def to_lines(self):
        return kv_lines(field_pairs(self))


def _pair_deviations(evaluator, Xa, Xb, horizon, disturbances=None):
    """Deviation norms (horizon+1, pairs) of the pairs (Xa, Xb), simulated
    in one batch; the disturbances (horizon, n, pairs) drive Xb only."""
    pairs = Xa.shape[1]
    W = None
    if disturbances is not None:
        W = np.zeros((horizon, Xa.shape[0], 2 * pairs))
        W[:, :, pairs:] = disturbances
    S = evaluator(np.hstack([Xa, Xb]), horizon, W)
    return np.linalg.norm(S[:, :, :pairs] - S[:, :, pairs:], axis=1)


def _pulse_gain(devw, pulse_steps, mags, rho):
    """Worst ratio devw[k, j] / (rho^(k-i-1) mags[j]) over the steps k > i
    after pair j's pulse at step i = pulse_steps[j]; 0 for none."""
    pows = np.array([rho ** j for j in range(devw.shape[0] - 1)])  # Python powers
    k, j = np.nonzero(np.arange(devw.shape[0])[:, None] > pulse_steps)
    return float(np.max(devw[k, j] / (pows[k - pulse_steps[j] - 1] * mags[j]), initial=0.0))


def _geometric_envelope(traj, error, empty, growing, clamp):
    """Envelope traj[k] <= const rate^k traj[0] of (K+1, samples) norms.

    Drops samples with traj[0] <= 1e-12.  The rate is the worst per-step
    rate over the tail half k >= K/2 (the asymptotic regime), then clamped
    by the caller's clamp; const absorbs the transient.  Returns (rate,
    const, kept traj); error(empty) or error(growing ...) on failure.
    """
    keep = traj[0] > 1e-12
    if not np.any(keep):
        raise error(empty)
    traj = traj[:, keep]
    base = traj[0]
    K = traj.shape[0] - 1
    rate = 0.0
    for k in range(max(K // 2, 1), K + 1):
        ratios = traj[k] / base
        pos = ratios > 0.0
        if np.any(pos):
            rate = max(rate, float(np.max(ratios[pos] ** (1.0 / k))))
    if rate >= 1.0:
        raise error(f"{growing}: fitted rate {rate:.6f}")
    rate = clamp(rate)
    pows = rate ** np.arange(K + 1)
    return rate, float(np.max(traj / (pows[:, None] * base[None, :]))), traj


def _holdout_margins(dev, wnorms, rho, c0, c_w):
    """Worst violation factor and worst relative slack of a holdout envelope.

    The envelope at step k is c0 rho^k dev[0] + c_w sum_{i<k} rho^(k-i-1)
    wnorms[i] for deviations dev (horizon+1, pairs) under disturbance
    norms wnorms (horizon, pairs); the factor is 0 when no entry exceeds
    it by more than 1e-9 relative.
    """
    horizon = wnorms.shape[0]
    pows = np.array([rho ** j for j in range(horizon + 1)])  # Python powers
    conv = np.zeros(dev.shape)
    for i in range(horizon):  # per step, the same summands in the same order
        conv[i + 1:] += pows[:horizon - i, None] * wnorms[i]
    rhs = c0 * pows[:, None] * dev[0] + c_w * conv
    bad = dev > rhs * (1.0 + 1e-9)
    factor = float(np.max(dev[bad] / rhs[bad])) if np.any(bad) else 0.0
    good = rhs > 0.0
    slack = float(np.min((rhs[good] - dev[good]) / rhs[good])) if np.any(good) else math.inf
    return factor, slack


def fit_ediss(evaluator, sampler, rng, r_w, pairs=200, horizon=60,
              holdout_pairs=100):
    """Fit exponential incremental-stability constants (c0, c_w, rho).

    Phase one runs undisturbed trajectory pairs from sampled starts: the
    decay rate rho is the worst per-step rate observed over the second
    half of the horizon (the asymptotic regime), and c0 absorbs the
    transient as the supremum of deviation over rho^k times the initial
    deviation.  Phase two injects a single disturbance pulse of size up
    to r_w and reads off the gain c_w.  Phase three validates the fitted
    envelope on held-out pairs driven by full random disturbance
    sequences; a violated envelope is inflated once and rechecked, and a
    second failure raises.
    """
    if r_w <= 0.0:
        raise EdissFitError(f"disturbance radius must be positive, got {r_w}")
    if pairs < 2 or horizon < 4:
        raise EdissFitError("need at least 2 pairs and a horizon of at least 4")

    # phase one: undisturbed pairs, rate from the tail, c0 over everything
    Xa = sampler(rng, pairs)
    Xb = sampler(rng, pairs)
    rho, c0, _ = _geometric_envelope(
        _pair_deviations(evaluator, Xa, Xb, horizon), EdissFitError,
        "sampled trajectory pairs all coincide at the start",
        "benchmark loop is not incrementally contracting",
        lambda rate: min(max(rate, 1e-6), 1.0 - 1e-6),
    )

    # phase two: single pulse per pair, gain from the post-pulse response
    Xc = sampler(rng, pairs)
    pulse_steps = rng.integers(0, max(horizon // 2, 1), size=pairs)
    dirs = rng.standard_normal((Xc.shape[0], pairs))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    mags = r_w * rng.uniform(0.5, 1.0, size=pairs)
    W = np.zeros((horizon, Xc.shape[0], pairs))
    W[pulse_steps, :, np.arange(pairs)] = (dirs * mags).T
    c_w = _pulse_gain(_pair_deviations(evaluator, Xc, Xc, horizon, W), pulse_steps, mags, rho)
    if c_w <= 0.0:
        raise EdissFitError("disturbance pulses produced no measurable response")

    # phase three: held-out pairs under full disturbance sequences
    def holdout_violation(c0_try, cw_try):
        Xh = sampler(rng, holdout_pairs)
        Yh = sampler(rng, holdout_pairs)
        mags_h = rng.uniform(0.0, r_w, size=(horizon, holdout_pairs))
        dirs_h = rng.standard_normal((horizon, Xh.shape[0], holdout_pairs))
        dirs_h /= np.linalg.norm(dirs_h, axis=1, keepdims=True)
        Wh = dirs_h * mags_h[:, None, :]
        devh = _pair_deviations(evaluator, Xh, Yh, horizon, Wh)
        return _holdout_margins(devh, np.linalg.norm(Wh, axis=1), rho, c0_try, cw_try)

    factor, slack = holdout_violation(c0, c_w)
    if factor > 0.0:
        c0 *= factor * 1.01
        c_w *= factor * 1.01
        factor, slack = holdout_violation(c0, c_w)
        if factor > 0.0:
            raise EdissFitError(
                f"held-out trajectories violate the inflated envelope by {factor:.3e}"
            )
    return EdissFit(c0, c_w, rho, r_w, pairs, horizon, slack)


def audit_contraction(qp, cfg, sampler, rng, samples=1000, ell_max=50):
    """Audit the optimizer contraction against its certified rate.

    Draws random states, feasible warm starts and iteration counts in
    1..ell_max, and verifies ||T^ell(x, nu) - mu*(x)|| <=
    eta^ell ||nu - mu*(x)|| on every sample.  Returns the worst observed
    ratio; a ratio beyond round-off raises with the offending sample
    attached.  The denominator carries a 1e-300 floor so an exact warm
    start (a 0/0 ratio) audits as 0.  The reference minimizer is only
    accurate to ||mu - T(mu)|| / (1 - eta), the error bound of an
    eta-contraction T from the fixed-point residual its certificate
    measures; the computed residual and the audited iterates both carry
    the rounding of T, about eps * (1 + ||mu||), which is added.  That
    resolution is subtracted per column from the numerator before
    forming the ratio: once eta^ell norm0 falls to the
    solver's own error floor -- including the eta = 0 case, where the
    claim is exact one-step convergence -- the audit reads 0 instead of
    reporting unmeasurable noise as a violation.
    """
    if not 1 <= ell_max:
        raise NumericsError(f"ell_max must be >= 1, got {ell_max}")
    X = sampler(rng, samples)
    NU0 = qp.nu_box.sample(rng, samples)
    ells = rng.integers(1, ell_max + 1, size=samples)
    MU = solve_benchmark(qp, cfg, X, NU0)  # also checks the shapes of X and NU0
    GX = qp.G @ X
    norm0 = np.linalg.norm(NU0 - MU, axis=0)
    size = 1.0 + np.linalg.norm(MU, axis=0)
    residual = np.linalg.norm(MU - _pgm_steps(qp, cfg, GX, MU, 1), axis=0)
    resolution = (residual + np.finfo(float).eps * size) / (1.0 - cfg.eta)
    ratios = np.zeros(samples)
    V = NU0
    for k in range(1, ell_max + 1):
        V = _pgm_steps(qp, cfg, GX, V, 1)
        mask = ells == k
        if np.any(mask):
            num = np.linalg.norm(V[:, mask] - MU[:, mask], axis=0)
            den = cfg.eta ** k * norm0[mask] + 1e-300
            ratios[mask] = np.maximum(num - resolution[mask], 0.0) / den
    worst_idx = int(np.argmax(ratios))
    worst = float(ratios[worst_idx])
    if worst > 1.0 + 1e-9:
        raise ContractionError(
            f"contraction audit failed: ratio {worst:.12f} at ell = {ells[worst_idx]}",
            x=X[:, worst_idx].copy(),
            nu0=NU0[:, worst_idx].copy(),
            ell=int(ells[worst_idx]),
            ratio=worst,
        )
    return worst


@dataclass
class LyapunovReport:
    """Finite-horizon Lyapunov certificate checked on samples."""

    N_V: int
    c1: float
    c2: float
    beta_sq: float
    d: float
    lam: float
    lower_margin: float
    upper_margin: float
    decrease_margin: float
    samples: int
    passed: bool

    def to_lines(self):
        return kv_lines(field_pairs(self))


def lyapunov_finite_horizon(evaluator, sampler, rng, N_V, samples=200,
                            fit_horizon=60):
    """Finite-horizon Lyapunov function V(x) = sum of squared state norms.

    Fits a geometric decay envelope ||x_k|| <= d * lam^k ||x_0|| on sampled
    trajectories (rate from the tail half, d absorbing the transient),
    requires d^2 lam^(2 N_V) < 1 for the window length N_V, and then
    verifies the sandwich ||x||^2 <= V(x) <= c2 ||x||^2 and the decrease
    V(x+) <= beta_sq V(x) on the samples.  Margins are relative; the
    report's passed flag is the conjunction of all three.
    """
    if N_V < 1:
        raise LyapunovError(f"window length must be >= 1, got {N_V}")
    fit_horizon = max(fit_horizon, N_V + 1)
    X0 = sampler(rng, samples)
    lam, d, norms = _geometric_envelope(
        np.linalg.norm(evaluator(X0, fit_horizon), axis=1), LyapunovError,
        "all sampled initial states are numerically zero",
        "trajectories do not decay geometrically", lambda rate: max(rate, 1e-6),
    )
    base = norms[0]

    shrink = d * d * lam ** (2 * N_V)
    if shrink >= 1.0:
        required = math.ceil(math.log(d * d) / (2.0 * math.log(1.0 / lam))) + 1
        raise LyapunovError(
            f"window length {N_V} is too short for the fitted envelope "
            f"(d = {d:.4f}, rate = {lam:.6f}); need N_V >= {required}"
        )
    c2 = d * d / (1.0 - lam * lam)
    beta_sq = 1.0 - (1.0 - shrink) / c2

    sq = norms ** 2
    V0 = sq[:N_V].sum(axis=0)
    V1 = sq[1:N_V + 1].sum(axis=0)
    base_sq = base ** 2
    lower = float(np.min((V0 - base_sq) / base_sq))
    upper = float(np.min((c2 * base_sq - V0) / base_sq))
    decrease = float(np.min((beta_sq * V0 - V1) / V0))
    passed = lower >= -1e-9 and upper >= -1e-9 and decrease >= -1e-9
    return LyapunovReport(N_V, 1.0, c2, beta_sq, d, lam, lower, upper,
                          decrease, norms.shape[1], passed)
