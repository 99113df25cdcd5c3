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
from .pgm import _pgm_steps, _step_of, certified_rate, solve_benchmark
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

    The returned callable runs an (n, batch) array of initial states (or
    one state (n,), run as one column) for `horizon` steps, optionally
    adding a per-step additive disturbance of shape (horizon, n, batch);
    each step solves for mu*(x_k) from x_k alone.  It returns the stack
    (horizon+1, ...) of reduce(x_k) over the states x_k (n, batch), each
    reduced as it comes, so no state history is kept; with reduce=None
    it returns the trajectories themselves, (horizon+1, n, batch).
    """

    def evaluator(X0, horizon, disturbances=None, reduce=None):
        X, _ = _batched(X0, model.n, "initial states")
        reduce = reduce or (lambda x: x)
        first = reduce(X)
        out = np.empty((horizon + 1,) + first.shape)
        out[0] = first
        for k, (_, _, x, _) in enumerate(
                _benchmark_steps(model, qp, cfg, X, horizon, 0, disturbances), 1):
            out[k] = reduce(x)
        return out

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


def _pair_gaps(x):
    """Deviation norms of the pairs (first half, second half) of the columns of x."""
    half = x.shape[1] // 2
    return np.linalg.norm(x[:, :half] - x[:, half:], axis=0)


def _holdout_draw(sampler, rng, r_w, W):
    """Held-out pairs (Xh, Yh) with random disturbances of norm up to r_w.

    The disturbances, which drive Yh only, are written into W (horizon,
    n, count); returns (Xh, Yh, their per-step norms (horizon, count)).
    """
    horizon, n, count = W.shape
    Xh = sampler(rng, count)
    Yh = sampler(rng, count)
    mags = rng.uniform(0.0, r_w, size=(horizon, count))
    dirs = rng.standard_normal((horizon, n, count))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs *= mags[:, None, :]
    W[...] = dirs
    return Xh, Yh, np.linalg.norm(dirs, axis=1)


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
    sequences; a violated envelope is inflated once and rechecked on
    fresh pairs, and a second failure raises.  The three pair sets are
    drawn phase by phase and simulated in one evaluator call, which
    never touches rng, so the stream is the one a call per phase sees.
    """
    if r_w <= 0.0:
        raise EdissFitError(f"disturbance radius must be positive, got {r_w}")
    if pairs < 2 or horizon < 4:
        raise EdissFitError("need at least 2 pairs and a horizon of at least 4")

    # draw the three pair sets in phase order; the batch is
    # [Xa Xc Xh | Xb Xc Yh], and W, its only disturbance array, drives the
    # second half
    Xa = sampler(rng, pairs)
    Xb = sampler(rng, pairs)
    Xc = sampler(rng, pairs)
    n, width = Xc.shape[0], 2 * pairs + holdout_pairs
    pulse_steps = rng.integers(0, max(horizon // 2, 1), size=pairs)
    dirs = rng.standard_normal((n, pairs))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    mags = r_w * rng.uniform(0.5, 1.0, size=pairs)
    W = np.zeros((horizon, n, 2 * width))
    W[pulse_steps, :, width + pairs + np.arange(pairs)] = (dirs * mags).T
    Xh, Yh, wnorms = _holdout_draw(sampler, rng, r_w, W[:, :, width + 2 * pairs:])
    dev = evaluator(np.hstack([Xa, Xc, Xh, Xb, Xc, Yh]), horizon, W, _pair_gaps)

    # phase one: undisturbed pairs, rate from the tail, c0 over everything
    rho, c0, _ = _geometric_envelope(
        dev[:, :pairs], EdissFitError,
        "sampled trajectory pairs all coincide at the start",
        "benchmark loop is not incrementally contracting",
        lambda rate: min(max(rate, 1e-6), 1.0 - 1e-6),
    )

    # phase two: single pulse per pair, gain from the post-pulse response
    c_w = _pulse_gain(dev[:, pairs:2 * pairs], pulse_steps, mags, rho)
    if c_w <= 0.0:
        raise EdissFitError("disturbance pulses produced no measurable response")

    # phase three: held-out pairs under full disturbance sequences; a
    # retry draws and simulates fresh pairs in a call of its own
    factor, slack = _holdout_margins(dev[:, 2 * pairs:], wnorms, rho, c0, c_w)
    if factor > 0.0:
        c0 *= factor * 1.01
        c_w *= factor * 1.01
        W = np.zeros((horizon, n, 2 * holdout_pairs))
        Xh, Yh, wnorms = _holdout_draw(sampler, rng, r_w, W[:, :, holdout_pairs:])
        dev = evaluator(np.hstack([Xh, Yh]), horizon, W, _pair_gaps)
        factor, slack = _holdout_margins(dev, wnorms, rho, c0, c_w)
        if factor > 0.0:
            raise EdissFitError(
                f"held-out trajectories violate the inflated envelope by {factor:.3e}"
            )
    return EdissFit(c0, c_w, rho, r_w, pairs, horizon, slack)


def audit_contraction(qp, cfg, sampler, rng, samples=1000, ell_max=50):
    """Audit the optimizer contraction against its certified rate.

    Draws random states, feasible warm starts and iteration counts in
    1..ell_max, and verifies ||T^ell(x, nu) - mu*(x)|| <=
    eta^ell ||nu - mu*(x)|| on every sample, T being cfg's step.
    Returns the worst observed ratio; a ratio beyond round-off raises
    with the offending sample attached.  The denominator carries a
    1e-300 floor so an exact warm start (a 0/0 ratio) audits as 0.  The
    reference minimizer is only accurate to ||mu - T*(mu)|| / (1 - eta*),
    the error bound of the eta*-contraction T* = qp.step from the
    fixed-point residual its certificate measures; the computed residual
    and the audited iterates both carry the rounding of a step, about
    eps * (1 + ||mu||), which is added.  That resolution is subtracted
    per column from the numerator before forming the ratio: once
    eta^ell norm0 falls to the solver's own error floor -- including the
    eta = 0 case, where the claim is exact one-step convergence -- the
    audit reads 0 instead of reporting unmeasurable noise as a violation.
    """
    step = _step_of(qp, cfg)
    if not 1 <= ell_max:
        raise NumericsError(f"ell_max must be >= 1, got {ell_max}")
    X = sampler(rng, samples)
    NU0 = qp.nu_box.sample(rng, samples)
    ells = rng.integers(1, ell_max + 1, size=samples)
    MU = solve_benchmark(qp, cfg, X)  # also checks the shape of X
    GX = qp.G @ X
    norm0 = np.linalg.norm(NU0 - MU, axis=0)
    size = 1.0 + np.linalg.norm(MU, axis=0)
    residual = np.linalg.norm(MU - _pgm_steps(qp, qp.step, GX, MU, 1), axis=0)
    resolution = (residual + np.finfo(float).eps * size) / (1.0 - qp.step.eta)
    ratios = np.zeros(samples)
    V = NU0
    for k in range(1, ell_max + 1):
        V = _pgm_steps(qp, step, GX, V, 1)
        mask = ells == k
        if np.any(mask):
            num = np.linalg.norm(V[:, mask] - MU[:, mask], axis=0)
            den = certified_rate(step.eta, k) * norm0[mask] + 1e-300
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
        evaluator(X0, fit_horizon, reduce=lambda x: np.linalg.norm(x, axis=0)), LyapunovError,
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
