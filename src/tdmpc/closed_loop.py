"""Closed-loop simulation of the plant under benchmark and truncated control.

The benchmark loop applies the first block of the fully converged
minimizer mu*(x_k) at every step.  The truncated loop applies ell_k
projected gradient steps to the previous input sequence instead, so the
applied input carries an optimizer error d_k = ||nu_k - mu*(x_k)|| that
the suboptimality bounds track.  Each run records states, inputs,
wall-clock time of the iteration loop and, unless the caller opts out,
the per-step optimizer errors.
"""

import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .numerics import NumericsError
from .pgm import _iteration_count, _pgm_iterate_untimed, pgm_iterate, solve_benchmark


@dataclass(eq=False)
class ClosedLoopRun:
    """Record of one closed-loop simulation.

    states has one more row than applied; d_norms, warm_gap_norms and
    ell_schedule are None for benchmark runs, d_norms and warm_gap_norms
    are None for truncated runs made with optimizer_errors=False, and
    inputs is None for runs read from CSV.  An unstable run keeps the
    prefix up to and including the first diverged state and sets
    aborted_at to its index.
    """

    states: np.ndarray
    inputs: np.ndarray
    applied: np.ndarray
    solve_times: np.ndarray
    d_norms: np.ndarray = None
    warm_gap_norms: np.ndarray = None
    ell_schedule: list = None
    delta_u0_norm: float = None
    stable: bool = True
    aborted_at: int = None

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


def _check_start(model, x0, T):
    """x0 as a flat float array and T as an int >= 1; NumericsError otherwise."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != model.n:
        raise NumericsError(f"x0 has dimension {x0.size}, expected {model.n}")
    try:
        T = operator.index(T)
    except TypeError:
        raise NumericsError(f"horizon T must be an integer, got {T!r}") from None
    if T < 1:
        raise NumericsError(f"horizon T must be >= 1, got {T}")
    return x0, T


def _benchmark_steps(model, qp, cfg, x, T, repeats, disturbances=None):
    """The benchmark loop u_k = S mu*(x_k) from x of shape (n,) or (n, batch).

    Yields (mu_k, u_k, x_{k+1}, seconds) for k < T.  Each solve is
    warm-started from the previous minimizer (zeros at k = 0) and timed
    alone through _timed_loop; disturbances[k], when given, is added to
    x_{k+1}.  run_benchmark, the probes' evaluator and the decay check
    all step this one loop.
    """
    mu = np.zeros(qp.H.shape[:1] + x.shape[1:])
    for k in range(T):
        mu, seconds = _timed_loop(lambda: solve_benchmark(qp, cfg, x, mu), repeats)
        u = qp.S @ mu
        x = model.step(x, u)
        if disturbances is not None:
            x = x + disturbances[k]
        yield mu, u, x, seconds


def run_benchmark(model, qp, cfg, x0, T, repeats=1):
    """Simulate T steps of the benchmark loop u_k = S mu*(x_k), timing each solve."""
    x0, T = _check_start(model, x0, T)
    inputs, applied, states, times = zip(*_benchmark_steps(model, qp, cfg, x0, T, repeats))
    return ClosedLoopRun(np.array((x0,) + states), np.array(inputs), np.array(applied),
                         np.array(times))


def run_tdmpc(model, qp, cfg, x0, ell_schedule, T, nu_init=None, repeats=1, *,
              optimizer_errors=True):
    """Simulate T steps of the truncated loop with ell_k iterations per step.

    ell_schedule is a single positive integer or a length-T sequence.  The
    previous input sequence is reused as the warm start without shifting;
    nu_init seeds the very first warm start (zero by default).  Each step
    also records the optimizer error d_k = ||nu_k - mu*(x_k)|| and the
    warm-start gap ||nu_{k-1} - mu*(x_k)||, both computed outside the
    timed loop from an instrumentation solve; optimizer_errors=False skips
    those per-step solves and records both as None.  delta_u0_norm needs
    only mu*(x_0) and is always recorded.  A state whose norm exceeds
    1e6 * (1 + ||x0||) aborts the run and marks it unstable.
    """
    x0, T = _check_start(model, x0, T)
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
    d_norms = np.zeros(T) if optimizer_errors else None
    warm_gaps = np.zeros(T) if optimizer_errors else None
    states[0] = x0
    if nu_init is None:
        nu = np.zeros(nNu)
    else:
        nu = qp.nu_box.project(np.asarray(nu_init, dtype=float).ravel().copy())
    blowup = 1e6 * (1.0 + float(np.linalg.norm(x0)))
    mu = solve_benchmark(qp, cfg, x0, nu)
    delta_u0 = float(np.linalg.norm(nu - mu))

    stable = True
    aborted_at = None
    steps_done = 0
    # untimed runs skip exact repeats of the orbit; timed runs time every step
    iterate = pgm_iterate if repeats else _pgm_iterate_untimed
    for k in range(T):
        xk = states[k]
        if optimizer_errors:
            if k > 0:
                mu = solve_benchmark(qp, cfg, xk, nu)
            warm_gaps[k] = np.linalg.norm(nu - mu)
        warm_start = nu
        ell = schedule[k]
        nu, times[k] = _timed_loop(
            lambda: iterate(qp, cfg, xk, warm_start, ell), repeats
        )
        if optimizer_errors:
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
    if optimizer_errors:
        d_norms, warm_gaps = d_norms[:s], warm_gaps[:s]
    return ClosedLoopRun(states[:s + 1], inputs[:s], applied[:s], times[:s],
                         d_norms, warm_gaps, schedule[:s], delta_u0, stable, aborted_at)


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
    """Prefix of a run with T applied inputs; used to compare against a shorter run.

    A prefix that ends before the diverged state of an aborted run is
    stable; one that includes that state keeps stable and aborted_at.
    """
    if T > run.T:
        raise NumericsError(f"cannot truncate a {run.T}-step run to {T} steps")
    per_step = ("states", "inputs", "applied", "solve_times", "d_norms",
                "warm_gap_norms", "ell_schedule")
    fields = {f: v[:T + 1 if f == "states" else T] for f in per_step
              if (v := getattr(run, f)) is not None}
    if run.aborted_at is not None and T < run.aborted_at:
        fields.update(stable=True, aborted_at=None)
    return replace(run, **fields)


def write_run_csv(run, path):
    """Write a run as CSV, one row per state; benchmark runs omit norm_d_k.

    The last row holds the final state and leaves the per-step columns empty.
    """
    d = [] if run.d_norms is None else [run.d_norms]
    cols = ["k"] + [f"x_{i + 1}" for i in range(run.states.shape[1])]
    cols += [f"u_applied_{i + 1}" for i in range(run.applied.shape[1])]
    cols += ["norm_d_k"] * len(d) + ["solve_time_s"]
    steps = np.column_stack([run.applied, *d, run.solve_times])
    tails = [[repr(float(v)) for v in row] for row in steps] + [[""] * steps.shape[1]]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, (x, tail) in enumerate(zip(run.states, tails)):
            fh.write(",".join([str(k)] + [repr(float(v)) for v in x] + tail) + "\n")


def read_run_csv(path):
    """Load a run CSV back into a ClosedLoopRun with the recorded columns.

    Only states, applied inputs, optimizer errors and solve times survive a
    round trip; full input sequences and the iteration schedule are not
    stored in the CSV.
    """
    with open(path) as fh:
        header, *rows = [ln.strip().split(",") for ln in fh if ln.strip()]
    table = np.array([[float(v) if v else np.nan for v in row] for row in rows])
    n = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("u_applied_"))
    steps = table[:-1]
    d_norms = steps[:, header.index("norm_d_k")].copy() if "norm_d_k" in header else None
    return ClosedLoopRun(table[:, 1:1 + n].copy(), None, steps[:, 1 + n:1 + n + m].copy(),
                         steps[:, -1].copy(), d_norms)
