"""Closed-loop simulation of the plant under benchmark and truncated control.

The benchmark loop applies the first block of the fully converged
minimizer mu*(x_k) at every step.  The truncated loop applies ell_k
projected gradient steps to the previous input sequence instead, so the
applied input carries an optimizer error d_k = ||nu_k - mu*(x_k)|| that
the suboptimality bounds track.  Each run records states, inputs, the
per-step optimizer errors and wall-clock time of the iteration loop.
"""

import io
import time

import numpy as np

from .numerics import NumericsError
from .pgm import _iteration_count, _pgm_iterate_untimed, pgm_iterate, solve_benchmark


class ClosedLoopRun:
    """Record of one closed-loop simulation.

    states has one more row than applied; d_norms, warm_gap_norms and
    ell_schedule are None for benchmark runs.  An unstable run keeps the
    prefix up to and including the first diverged state and sets
    aborted_at to its index.
    """

    def __init__(self, states, inputs, applied, solve_times, d_norms=None,
                 warm_gap_norms=None, ell_schedule=None, delta_u0_norm=None,
                 stable=True, aborted_at=None):
        self.states = states
        self.inputs = inputs
        self.applied = applied
        self.solve_times = solve_times
        self.d_norms = d_norms
        self.warm_gap_norms = warm_gap_norms
        self.ell_schedule = ell_schedule
        self.delta_u0_norm = delta_u0_norm
        self.stable = stable
        self.aborted_at = aborted_at

    @property
    def T(self):
        return self.applied.shape[0]


def _timed_loop(fn, repeats):
    """Run fn() once (or `repeats` times for timing) and return (result, seconds).

    repeats = 0 disables timing and reports 0.0 so that output files are
    reproducible byte for byte; repeats >= 1 averages that many identical
    evaluations.
    """
    if repeats < 0:
        raise NumericsError(f"timing repeats must be >= 0, got {repeats}")
    if repeats == 0:
        return fn(), 0.0
    total = 0.0
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        total += time.perf_counter() - t0
        if result is None:
            result = out
    return result, total / repeats


def run_benchmark(model, qp, cfg, x0, T, repeats=1):
    """Simulate T steps of the benchmark loop u_k = S mu*(x_k).

    Each solve is warm-started from the previous minimizer; timing wraps
    the solve only, never the bookkeeping around it.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != model.n:
        raise NumericsError(f"x0 has dimension {x0.size}, expected {model.n}")
    if T < 1:
        raise NumericsError(f"horizon T must be >= 1, got {T}")
    n, nNu = model.n, qp.H.shape[0]
    states = np.zeros((T + 1, n))
    inputs = np.zeros((T, nNu))
    applied = np.zeros((T, model.m))
    times = np.zeros(T)
    states[0] = x0
    warm = np.zeros(nNu)
    for k in range(T):
        xk = states[k]
        warm_start = warm.copy()
        mu, times[k] = _timed_loop(
            lambda: solve_benchmark(qp, cfg, xk, warm_start), repeats
        )
        inputs[k] = mu
        applied[k] = qp.S @ mu
        states[k + 1] = model.step(xk, applied[k])
        warm = mu
    return ClosedLoopRun(states, inputs, applied, times)


def run_tdmpc(model, qp, cfg, x0, ell_schedule, T, nu_init=None, repeats=1):
    """Simulate T steps of the truncated loop with ell_k iterations per step.

    ell_schedule is a single positive integer or a length-T sequence.  The
    previous input sequence is reused as the warm start without shifting;
    nu_init seeds the very first warm start (zero by default).  Each step
    also records the optimizer error d_k = ||nu_k - mu*(x_k)|| and the
    warm-start gap ||nu_{k-1} - mu*(x_k)||, both computed outside the
    timed loop from an instrumentation solve.  A state whose norm exceeds
    1e6 * (1 + ||x0||) aborts the run and marks it unstable.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != model.n:
        raise NumericsError(f"x0 has dimension {x0.size}, expected {model.n}")
    if T < 1:
        raise NumericsError(f"horizon T must be >= 1, got {T}")
    if np.ndim(ell_schedule) == 0:
        schedule = [_iteration_count(ell_schedule)] * T
    else:
        schedule = [_iteration_count(e) for e in ell_schedule]
    if len(schedule) != T:
        raise NumericsError(
            f"iteration schedule has length {len(schedule)}, expected {T}"
        )
    if any(e < 1 for e in schedule):
        raise NumericsError("iteration schedule entries must be >= 1")

    n, nNu = model.n, qp.H.shape[0]
    states = np.zeros((T + 1, n))
    inputs = np.zeros((T, nNu))
    applied = np.zeros((T, model.m))
    times = np.zeros(T)
    d_norms = np.zeros(T)
    warm_gaps = np.zeros(T)
    states[0] = x0
    if nu_init is None:
        nu = np.zeros(nNu)
    else:
        nu = qp.nu_box.project(np.asarray(nu_init, dtype=float).ravel().copy())
    blowup = 1e6 * (1.0 + float(np.linalg.norm(x0)))
    mu0 = solve_benchmark(qp, cfg, x0, nu)
    delta_u0 = float(np.linalg.norm(nu - mu0))

    stable = True
    aborted_at = None
    steps_done = 0
    mu = mu0
    # untimed runs skip exact repeats of the orbit; timed runs time every step
    iterate = pgm_iterate if repeats else _pgm_iterate_untimed
    for k in range(T):
        xk = states[k]
        if k > 0:
            mu = solve_benchmark(qp, cfg, xk, nu)
        warm_gaps[k] = np.linalg.norm(nu - mu)
        warm_start = nu
        ell = schedule[k]
        nu, times[k] = _timed_loop(
            lambda: iterate(qp, cfg, xk, warm_start, ell), repeats
        )
        d_norms[k] = np.linalg.norm(nu - mu)
        inputs[k] = nu
        applied[k] = qp.S @ nu
        states[k + 1] = model.step(xk, applied[k])
        steps_done = k + 1
        if np.linalg.norm(states[k + 1]) > blowup:
            stable = False
            aborted_at = k + 1
            break

    s = steps_done
    return ClosedLoopRun(states[:s + 1], inputs[:s], applied[:s], times[:s],
                         d_norms[:s], warm_gaps[:s], schedule[:s], delta_u0,
                         stable, aborted_at)


def cost_JT(run, Q, R, P):
    """Accumulated closed-loop cost of a run, terminal weight on the last state."""
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = np.asarray(P, dtype=float)
    X = run.states
    U = run.applied
    total = 0.0
    for k in range(U.shape[0]):
        total += float(X[k] @ Q @ X[k] + U[k] @ R @ U[k])
    total += float(X[-1] @ P @ X[-1])
    return total


def path_vectors(run):
    """Per-step state motion of a run.

    Returns (deltas, S_T, S_T2) with deltas_k = ||x_{k+1} - x_k|| over all
    recorded steps, S_T the total pathlength (1-norm of deltas) and S_T2
    its 2-norm.
    """
    diffs = np.diff(run.states, axis=0)
    deltas = np.linalg.norm(diffs, axis=1)
    return deltas, float(deltas.sum()), float(np.linalg.norm(deltas))


def truncate_run(run, T):
    """Prefix of a run with T applied inputs; used to compare against a shorter run."""
    if T > run.T:
        raise NumericsError(f"cannot truncate a {run.T}-step run to {T} steps")
    take = lambda a: None if a is None else a[:T]
    return ClosedLoopRun(
        run.states[:T + 1], run.inputs[:T], run.applied[:T], run.solve_times[:T],
        take(run.d_norms), take(run.warm_gap_norms),
        None if run.ell_schedule is None else list(run.ell_schedule[:T]),
        run.delta_u0_norm, run.stable, run.aborted_at,
    )


def _fmt(v):
    return repr(float(v))


def run_to_csv_text(run):
    """CSV serialization of a run; benchmark runs omit the optimizer-error column."""
    n = run.states.shape[1]
    m = run.applied.shape[1]
    with_d = run.d_norms is not None
    cols = ["k"]
    cols += [f"x_{i + 1}" for i in range(n)]
    cols += [f"u_applied_{i + 1}" for i in range(m)]
    if with_d:
        cols.append("norm_d_k")
    cols.append("solve_time_s")
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    T = run.T
    for k in range(T + 1):
        row = [str(k)]
        row += [_fmt(v) for v in run.states[k]]
        if k < T:
            row += [_fmt(v) for v in run.applied[k]]
            if with_d:
                row.append(_fmt(run.d_norms[k]))
            row.append(_fmt(run.solve_times[k]))
        else:
            row += [""] * m
            if with_d:
                row.append("")
            row.append("")
        out.write(",".join(row) + "\n")
    return out.getvalue()


def write_run_csv(run, path):
    with open(path, "w") as fh:
        fh.write(run_to_csv_text(run))


def read_run_csv(path):
    """Load a run CSV back into a ClosedLoopRun with the recorded columns.

    Only states, applied inputs, optimizer errors and solve times survive a
    round trip; full input sequences and the iteration schedule are not
    stored in the CSV.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    n = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("u_applied_"))
    with_d = "norm_d_k" in header
    rows = [ln.split(",") for ln in lines[1:]]
    T = len(rows) - 1
    states = np.zeros((T + 1, n))
    applied = np.zeros((T, m))
    d_norms = np.zeros(T) if with_d else None
    times = np.zeros(T)
    for k, row in enumerate(rows):
        states[k] = [float(v) for v in row[1:1 + n]]
        if k < T:
            applied[k] = [float(v) for v in row[1 + n:1 + n + m]]
            idx = 1 + n + m
            if with_d:
                d_norms[k] = float(row[idx])
                idx += 1
            times[k] = float(row[idx])
    return ClosedLoopRun(states, None, applied, times, d_norms)
