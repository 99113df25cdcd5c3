"""Projected gradient method for the condensed box-constrained QP.

One iteration maps nu to the projection of nu - alpha * grad onto the
input box, with the classical optimal fixed step alpha = 2 / (l + L)
expressed through the extreme curvatures of the full Hessian 2H as
alpha = 1 / (lam_max(H) + lam_min(H)).  The iteration contracts to the
minimizer mu*(x) at rate eta = (lam_max - lam_min) / (lam_max + lam_min)
per step, uniformly in x: qp.step, formed once per problem.  A
controller runs its config's step as nu <- P(S [nu; c]), with
S = [I - 2 alpha H, I] held by the step and c = -2 alpha G x formed once
per call, which differs from the gradient form only by rounding.  Calls
of two windows of steps or more drop P, one C call a step, once a ball
certificate proves it idle; timed calls still execute every step.

The reference minimizer mu*(x), which runs qp.step whatever step the
controller runs, comes from a chain of three solves, each accepting only
the columns that pass one certificate on the fixed-point residual of
that iteration: the unconstrained minimizer -H^{-1} G x where it lies
strictly inside the box, refined once where it misses the certificate;
an exact primal active-set solve for the rest; and the iteration run to
convergence as the last fallback and the test oracle.
"""

import math
import operator

import numpy as np

from .condensed import _batched, _batched_pair
from .numerics import NumericsError


class BenchmarkSolveError(Exception):
    """Raised when the benchmark solve hits its iteration cap."""

    def __init__(self, message, iterations, residual):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class PgmConfig:
    """The controller's step, with its alpha and eta, and the reference solver's settings."""

    def __init__(self, step, tol_benchmark, iter_cap):
        if not tol_benchmark > 0.0:
            raise NumericsError(f"benchmark tolerance must be positive, got {tol_benchmark}")
        if not iter_cap >= 1:
            raise NumericsError(f"iteration cap must be >= 1, got {iter_cap}")
        self.step, self.tol_benchmark, self.iter_cap = step, float(tol_benchmark), int(iter_cap)
        self.alpha, self.eta = step.alpha, step.eta


def pgm_config(qp, tol_benchmark=1e-12, iter_cap=10**6):
    """A controller that runs qp's own contraction step (see CondensedQp)."""
    return PgmConfig(qp.step, tol_benchmark, iter_cap)


def _step_of(qp, cfg):
    """cfg's step, which must have been formed on qp's H."""
    if cfg.step.H is not qp.H:
        raise NumericsError("the configuration's step was formed for another problem")
    return cfg.step


# numpy's 3-input clip ufunc, min(max(x, lo), hi) in one C call (np.clip
# wraps it in Python); numpy 2 moved it from np.core to np._core
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip


def _pgm_steps(qp, step, GX, V, ell):
    """ell projected gradient steps on checked (dim, batch) arrays.

    GX = G @ X is formed once by the caller.  Each call writes V and
    c = GX * (-2 alpha) into one fresh C-ordered array Y = [V; c], and
    each step computes min(max(S Y, lo), hi) into its top block V: that is
    np.clip(S @ Y, lo, hi) for the finite bounds lo < hi, with the step's
    S = [I - 2 alpha H, I].  It is the gradient
    step V - 2 alpha (H V + G X) in affine form, c added inside the
    product, in two C calls per step (S.dot is S @ Y without matmul's
    dispatch), equal to it up to rounding but not bit for bit.  No step
    allocates, the caller's V is never written and every call returns a
    new block.
    """
    d = len(V)
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    Y = np.empty((2 * d, V.shape[1]))
    Y[:d], Y[d:] = V, GX * (-2.0 * step.alpha)
    dot, clip, V, T = step.S.dot, _clip, Y[:d], np.empty_like(Y[:d])
    for _ in range(ell):
        dot(Y, T)
        clip(T, lo, hi, V)
    return V


def _ball_certificate(qp, step, GX):
    """The ball certificate's per-call part: None if no check can pass, else check(V).

    Unclipped, a step fixes z = -H^{-1} G x and contracts by ||M|| <= eta,
    so the iterates stay within r = ||V - z|| of z, and a box that strictly
    holds that ball is never touched (Leung, Liao-McPherson & Kolmanovsky,
    ACC 2021).  In floats a step from within R of z lands within
    (eta + delta) R + rho + g (||z|| + ||c|| + R) of it: delta is the gap
    between eta and the float M's norm, rho = ||fl(S [z; c]) - z|| is z's
    fixed-point residual, g = gamma_2d ||S||_F bounds the gemv's rounding
    (Higham, 2002, sec. 3.5).  So the radius R = r + s is invariant for
    s = 2 (rho + g (||z|| + ||c|| + r) + delta r) / (1 - eta - 2 (g + delta)),
    the 2 covering the rounding of rho, of the norms and of R.  check(V)
    forms r and R and returns 0 when lo < z - R, z + R < hi strictly (clip
    returns every value as is), else the steps to wait (see _iterate).  The
    rest is formed once: as R >= 0, no check passes when z is not strictly
    inside the box or the allowance at r = 0 fills the room m left to it.
    """
    g, delta, lo, hi = step.g, step.delta, qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    room = 1.0 - step.eta - 2.0 * (g + delta)
    with np.errstate(all="ignore"):
        z, c = -(qp.H_inv @ GX), GX * (-2.0 * step.alpha)
        rho = _norms(step.S.dot(np.vstack([z, c])) - z)
        s0, m = _norms(z) + _norms(c), np.minimum(z - lo, hi - z)
        need = (room * m - 2.0 * (rho + g * s0)) / (room + 2.0 * (g + delta))
        if not (room > 0.0 and (need > 0.0).all()):  # need > 0 needs m > 0: lo < z < hi
            return None

    def check(V):
        with np.errstate(all="ignore"):
            r = _norms(V - z)
            R = r + 2.0 * (rho + g * (s0 + r) + delta * r) / room
            if ((lo < z - R) & (z + R < hi)).all():
                return 0
            j = (np.log(need / r) / np.log(step.eta)).max()
        return max(_CYCLE_WINDOW, math.ceil(j)) if np.isfinite(j) else math.inf

    return check


def _unclipped_steps(qp, step, GX, V, ell):
    """_pgm_steps from a V that passed the ball certificate: same bits, one S.dot a step."""
    Y, Z = (np.ascontiguousarray(np.vstack([V, GX * (-2.0 * step.alpha)])) for _ in range(2))
    dot, a, b = step.S.dot, Y[:len(V)], Z[:len(V)]
    for _ in range(ell >> 1):
        dot(Y, b)
        dot(Z, a)
    return dot(Y, b) if ell & 1 else a


# the gate: the per-call part of the ball certificate costs about 40 us and
# one check 14-30 us, a clip-free step saves about 0.55 us (N = 5 and 10, one
# column), so a call of fewer than two windows cannot pay for a check
_CYCLE_WINDOW = 60


def _iterate(qp, cfg, x, nu, ell, skip_repeats):
    """ell projected gradient steps from nu at x: the controller's one driver.

    A call of ell >= 2 * _CYCLE_WINDOW steps checks the ball certificate at
    entry and on a schedule; once a check passes, the rest runs
    _unclipped_steps.  z strictly inside the box is mu*, which the
    nonexpansive projection fixes, so the iterates approach it at rate eta,
    ||V_j - z|| <= eta^j r, and R < m reads r < need, R being affine in r:
    a check failing at r waits j = log(need / r) / log(eta) steps, the
    most over the entries, at least a window (so rounding near the floor
    cannot check every step), inf for r not finite.  The schedule only
    decides when to test; the test alone decides.  Every step executes,
    checks included, unless skip_repeats: then windows of _CYCLE_WINDOW
    steps run, checks wait for a window boundary, and each window's last
    iterate is kept by its bytes with the steps then left.  A step is a
    function of its input for fixed GX and box, so once a window ends on
    an earlier window's iterate, the orbit repeats with the steps between
    the two as period, of any length, and only ell's remainder modulo it
    runs.  The compared iterates are fresh C-ordered kernel outputs, so
    equal bytes mean equal bits (np.array_equal would match 0.0 with -0.0).
    """
    step, (X, V, squeeze) = _step_of(qp, cfg), _batched_pair(qp, x, nu)
    GX, W = qp.G @ X, _CYCLE_WINDOW
    check = _ball_certificate(qp, step, GX) if ell >= 2 * W else None
    steps, left, due, ends = _pgm_steps, ell, 0, {}
    while left >= W if skip_repeats else check and left:
        if check and due <= 0:
            due = check(V)  # steps to the next check: 0 once certified, inf if none
            if due == 0:
                steps, check = _unclipped_steps, None
                continue
        n = W if skip_repeats else min(due, left)
        V, left, due = steps(qp, step, GX, V, n), left - n, due - n
        if skip_repeats and (earlier := ends.setdefault(V.tobytes(), left)) != left:
            left %= earlier - left
            break
    out = steps(qp, step, GX, V, left)
    return out[:, 0] if squeeze else out


def _pgm_iterate_untimed(qp, cfg, x, nu, ell):
    """pgm_iterate(qp, cfg, x, nu, ell) for ell >= 1, skipping exact repeats of the
    orbit; the skipped steps never execute, so this must not be timed."""
    return _iterate(qp, cfg, x, nu, ell, True)


def _iteration_count(ell):
    """ell as a Python int; NumericsError unless it is a Python or numpy integer."""
    try:
        return operator.index(ell)
    except TypeError:
        raise NumericsError(f"iteration count must be an integer, got {ell!r}") from None


def _budget(ell):
    """A per-step iteration budget as a Python int; NumericsError unless an integer >= 1."""
    ell = _iteration_count(ell)
    if ell < 1:
        raise NumericsError("iteration schedule entries must be >= 1")
    return ell


# eta ** ell is already exactly 0.0 at ell = 2**63 for every double eta < 1,
# so larger budgets take this exponent and never overflow a float
_ELL_CAP = 2**63


def certified_rate(eta, ell):
    """The certified per-step rate eta ** ell of a budget of ell iterations.

    ell must be an integer >= 1; budgets past _ELL_CAP take that exponent,
    so a budget of any size has its rate.  Every rate in the package comes
    from this one Python power, so the chain of a constant schedule and
    sweep.csv's eta_pow_ell (rate_max) are the same bits; numpy's
    vectorized power can differ from it in the last bit.
    """
    return eta ** min(_budget(ell), _ELL_CAP)


def pgm_iterate(qp, cfg, x, nu, ell):
    """Apply ell projected gradient steps, each one executed; ell = 0 returns a copy of nu."""
    ell = _iteration_count(ell)
    if ell < 0:
        raise NumericsError(f"iteration count must be >= 0, got {ell}")
    return _iterate(qp, cfg, x, nu, ell, False)


def pgm_step(qp, cfg, x, nu):
    """One projected gradient step on nu at parameter x; batched like cost."""
    return pgm_iterate(qp, cfg, x, nu, 1)


def _norms(a):
    """np.linalg.norm(a, axis=0) for real a, without its conj copy: the same bits."""
    return np.sqrt(np.add.reduce(a * a, axis=0))


def _active_set_pass(qp, cfg, free, GX, V, bound):
    """One working-set change for columns that share the free mask `free`.

    Steps every column to the minimizer over its free components, stopped
    at the first blocking bound, which joins the working set.  A column
    that takes the full step gets one refinement with the same inverse of
    H on the free components and one projected gradient step, whose size
    is its certificate.  If the certificate fails, a bound that the step
    moves has a multiplier of the wrong sign, and the one it moves most
    leaves the working set.
    Updates V and bound in place; returns the columns that changed their
    working set and the scaled fixed-point residual of the others.
    """
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    inv = np.linalg.inv(qp.H[np.ix_(free, free)])
    HF, lf, hf = qp.H[free], lo[free], hi[free]
    p = -inv @ (HF @ V + GX[free])
    v = V[free]
    # ratio test: room to the bound that p moves toward, inf where p is 0 or NaN
    up = p > 0.0
    room = np.full(p.shape, np.inf)
    np.divide(np.where(up, hf, lf) - v, p, out=room, where=up | (p < 0.0))
    t = room.min(axis=0, initial=1.0)
    # the components in the working set already sit on their bounds, so
    # clipping the free ones before the blocking bounds are set clips all
    V[free] = _clip(v + t * p, lf, hf)
    blocked = t < 1.0
    b = np.flatnonzero(blocked)
    if b.size:
        k = room[:, b].argmin(axis=0)
        i = np.flatnonzero(free)[k]
        V[i, b] = np.where(up[k, b], hi[i, 0], lo[i, 0])
        bound[i, b] = True
    f = np.flatnonzero(~blocked)
    Vf, Gf = V[:, f], GX[:, f]
    Vf[free] = _clip(Vf[free] - inv @ (HF @ Vf + Gf[free]), lf, hf)
    z = Vf - _pgm_steps(qp, qp.step, Gf, Vf, 1)
    residual = np.full(V.shape[1], np.inf)
    residual[f] = _norms(z) / (1.0 + _norms(Vf))
    V[:, f] = Vf
    changed = blocked
    moved = np.where(bound[:, f], np.abs(z), 0.0)
    worst = moved.argmax(axis=0)
    release = (residual[f] > cfg.tol_benchmark) & (moved[worst, np.arange(f.size)] > 0.0)
    bound[worst[release], f[release]] = False
    changed[f[release]] = True
    return changed, residual


def _active_set(qp, cfg, GX, V):
    """Primal active-set solve (Nocedal & Wright, Alg. 16.3) of every column.

    The second stage of solve_benchmark, which sends it only the columns
    whose unconstrained minimizer leaves the box or, refined once, still
    misses the certificate, with their columns of G X and that minimizer
    clipped to the box as the start V.  The initial working set is the
    set of bounds that V touches.
    Each pass sorts the pending columns by working set and gathers each
    group, so the group shares one inverse and hands BLAS column-major
    operands.
    Writes V in place and returns (V, ok): ok marks the columns that
    finished within cfg.iter_cap working-set changes and whose
    certificate, the scaled fixed-point residual ||nu - T(nu)|| / (1 + ||nu||)
    of the projected gradient map T, is at most cfg.tol_benchmark.
    """
    bound = (V <= qp.nu_box.lower[:, None]) | (V >= qp.nu_box.upper[:, None])
    changes = np.zeros(V.shape[1], dtype=int)
    ok = np.zeros(V.shape[1], dtype=bool)
    todo = np.arange(V.shape[1])
    while todo.size:
        free = ~bound[:, todo]
        # stable: each group keeps its columns ascending, whatever the group order
        order = np.lexsort(free[::-1])
        cuts = np.flatnonzero((free[:, order[1:]] != free[:, order[:-1]]).any(axis=0)) + 1
        keep = np.zeros(todo.size, dtype=bool)
        for at in np.split(order, cuts):
            cols = todo[at]
            Gg, Vg, Bg = GX[:, cols], V[:, cols], bound[:, cols]
            changed, residual = _active_set_pass(qp, cfg, free[:, at[0]], Gg, Vg, Bg)
            V[:, cols], bound[:, cols] = Vg, Bg
            changes[cols] += changed
            ok[cols] = ~changed & (residual <= cfg.tol_benchmark)
            keep[at] = changed & (changes[cols] < cfg.iter_cap)
        todo = todo[keep]
    return V, ok


def solve_benchmark(qp, cfg, x):
    """The reference minimizer mu*(x), solved exactly and certified.

    A chain of three stages; each accepts a column only when its scaled
    fixed-point residual ||nu - P(nu - 2 alpha (H nu + G x))|| / (1 + ||nu||),
    the KKT residual in projected-gradient units, is at most
    tol_benchmark.  First the unconstrained minimizer -H^{-1} G x, the
    piece of the piecewise-affine mu* with no bound active: accepted
    where it lies strictly inside the box.  It is clipped before its
    certificate is taken, which leaves accepted columns unchanged and
    keeps every norm finite.  An inside column that misses its
    certificate (at long horizons, where H is ill-conditioned) is refined
    once with the same inverse and certified again.  Then a primal
    active-set solve of the other columns, started from that clipped
    minimizer and the bounds it touches, so mu*(x) depends on x alone.
    A column that fails there or reaches iter_cap working-set changes
    falls back to solve_benchmark_pgm warm-started from the active-set
    iterate, unless G x or that iterate is not finite, which raises
    NumericsError.  Accepts batched x (n, batch), checked on every call,
    and returns a C-ordered array; x is never written.
    """
    X, sx = _batched(x, qp.W.shape[0], "x")
    GX = qp.G @ X
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    inv = qp.H_inv

    def certified(GX, V):
        residual = _norms(V - _pgm_steps(qp, qp.step, GX, V, 1)) / (1.0 + _norms(V))
        return residual <= cfg.tol_benchmark

    V = _clip(-(inv @ GX), lo, hi)
    inside = ((lo < V) & (V < hi)).all(axis=0)
    ok = inside & certified(GX, V)
    miss = np.flatnonzero(inside & ~ok)
    if miss.size:  # refine once with the same inverse, as an active-set pass does
        Gm, Vm = GX[:, miss], V[:, miss]
        V[:, miss] = Vm = _clip(Vm - inv @ (qp.H @ Vm + Gm), lo, hi)
        ok[miss] = ((lo < Vm) & (Vm < hi)).all(axis=0) & certified(Gm, Vm)
    rest = np.flatnonzero(~ok)
    if rest.size:
        V[:, rest], ok[rest] = _active_set(qp, cfg, GX[:, rest], V[:, rest])
    if not ok.all():
        # projected gradient from a non-finite point would only run to its cap
        if not (np.isfinite(GX[:, ~ok]).all() and np.isfinite(V[:, ~ok]).all()):
            raise NumericsError("G x or the active-set iterate contains non-finite entries")
        V[:, ~ok] = solve_benchmark_pgm(qp, cfg, X[:, ~ok], V[:, ~ok])
    return V[:, 0] if sx else V


def solve_benchmark_pgm(qp, cfg, x, nu0=None):
    """Projected gradient iterated to numerical convergence.

    Stops when the successive difference satisfies
    ||nu_{j+1} - nu_j|| <= tol * (1 + ||nu_{j+1}||), which under the
    contraction of the iteration bounds the fixed-point residual by
    eta * tol * (1 + ||nu||), and raises BenchmarkSolveError after
    iter_cap iterations.  Accepts batched x (n, batch) and solves all
    columns simultaneously; extra iterations on already-converged columns
    are harmless because the map contracts toward mu*.  Starts from nu0
    projected onto the box, or from zeros.  The fallback of
    solve_benchmark and the oracle its tests compare against.
    """
    if nu0 is None:
        X, sx = _batched(x, qp.W.shape[0], "x")
        V = np.zeros((qp.H.shape[0], X.shape[1]))
    else:
        X, V, sx = _batched_pair(qp, x, nu0)
        V = _clip(V, qp.nu_box.lower[:, None], qp.nu_box.upper[:, None])
    GX = qp.G @ X
    tol = cfg.tol_benchmark
    residual = np.inf
    for it in range(1, cfg.iter_cap + 1):
        V_next = _pgm_steps(qp, qp.step, GX, V, 1)
        diff = np.linalg.norm(V_next - V, axis=0)
        size = 1.0 + np.linalg.norm(V_next, axis=0)
        V = V_next
        residual = float(np.max(diff / size))
        if np.all(diff <= tol * size):
            return V[:, 0] if sx else V
    raise BenchmarkSolveError(
        f"benchmark solve hit the iteration cap {cfg.iter_cap} "
        f"(worst scaled residual {residual:.3e})",
        cfg.iter_cap,
        residual,
    )
