"""Closed-loop simulation of the plant under benchmark and truncated control.

Both loops step the plant under one policy each.  The benchmark policy
applies the first block of the fully converged minimizer mu*(x_k); the
truncated policy applies ell_k projected gradient steps to the previous
input sequence, so the applied input carries an optimizer error
d_k = ||nu_k - mu*(x_k)|| that the suboptimality bounds track.  Each run
records states, inputs and wall-clock time of the policy; a truncated run
also records its per-step optimizer errors.
"""

import operator
import time
from dataclasses import dataclass, replace

import numpy as np

from .numerics import NumericsError
from .pgm import _budget, _pgm_iterate_untimed, pgm_iterate, solve_benchmark


@dataclass(eq=False)
class ClosedLoopRun:
    """Record of one closed-loop simulation.

    states has one more row than applied; d_norms, warm_gap_norms and
    ell_schedule are None for benchmark runs, and inputs is None for runs
    read from CSV.
    """

    states: np.ndarray
    inputs: np.ndarray
    applied: np.ndarray
    solve_times: np.ndarray
    d_norms: np.ndarray = None
    warm_gap_norms: np.ndarray = None
    ell_schedule: list = None
    delta_u0_norm: float = None

    @property
    def T(self):
        return self.applied.shape[0]

    @property
    def stable(self):
        """Whether the last state passes the divergence guard, which ends a truncated run."""
        return not _diverged(self.states[-1], self.states[0])


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
    """x0 as a flat finite float array and T as an int >= 1; NumericsError otherwise."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.size != model.n:
        raise NumericsError(f"x0 has dimension {x0.size}, expected {model.n}")
    if not np.all(np.isfinite(x0)):
        raise NumericsError("x0 contains non-finite entries")
    try:
        T = operator.index(T)
    except TypeError:
        raise NumericsError(f"horizon T must be an integer, got {T!r}") from None
    if T < 1:
        raise NumericsError(f"horizon T must be >= 1, got {T}")
    return x0, T


def _steps(model, qp, x, T, repeats, policy, nu, disturbances=None):
    """The closed loop u_k = S nu_k with nu_k = policy(k, x_k, nu_{k-1}).

    x has shape (n,) or (n, batch) and nu is nu_{-1}, the first warm
    start (None for a policy that takes none).  Yields (nu_k, u_k,
    x_{k+1}, seconds) for k < T.  Each policy call is timed alone through
    _timed_loop; disturbances[k], when given, is added to x_{k+1}.  Both
    the benchmark and the truncated loop step the plant here and nowhere
    else.
    """
    for k in range(T):
        nu, seconds = _timed_loop(lambda: policy(k, x, nu), repeats)
        u = qp.S @ nu
        x = model.step(x, u)
        if disturbances is not None:
            x = x + disturbances[k]
        yield nu, u, x, seconds


def _benchmark_steps(model, qp, cfg, x, T, repeats, disturbances=None):
    """_steps under the policy mu*(x_k), which needs no warm start."""
    return _steps(model, qp, x, T, repeats, lambda k, x, nu: solve_benchmark(qp, cfg, x),
                  None, disturbances)


def _diverged(x, x0):
    """The divergence guard ||x|| > 1e6 (1 + ||x0||) of a run from x0."""
    return np.linalg.norm(x) > 1e6 * (1.0 + float(np.linalg.norm(x0)))


def _until_diverged(steps, x0):
    """The steps of a loop from x0 up to and including its first diverged state."""
    for step in steps:
        yield step
        if _diverged(step[2], x0):
            return


def run_benchmark(model, qp, cfg, x0, T, repeats=1):
    """Simulate T steps of the benchmark loop u_k = S mu*(x_k), timing each solve.

    A state that trips the divergence guard ends the run, as in run_tdmpc.
    """
    x0, T = _check_start(model, x0, T)
    inputs, applied, states, times = zip(
        *_until_diverged(_benchmark_steps(model, qp, cfg, x0, T, repeats), x0))
    return ClosedLoopRun(np.array((x0,) + states), np.array(inputs), np.array(applied),
                         np.array(times))


def run_tdmpc(model, qp, cfg, x0, ell_schedule, T, nu_init=None, repeats=1):
    """Simulate T steps of the truncated loop with ell_k iterations per step.

    ell_schedule is a single positive integer or a length-T sequence.  The
    previous input sequence is reused as the warm start without shifting;
    nu_init seeds the very first warm start (zero by default).  A state
    that trips the divergence guard ends the run.  After the loop, one
    batched reference solve of the visited states x_k gives the optimizer
    errors d_k = ||nu_k - mu*(x_k)|| and the warm-start gaps
    ||nu_{k-1} - mu*(x_k)||, the first of which is delta_u0_norm; it runs
    after the last timed controller call.
    """
    x0, T = _check_start(model, x0, T)
    if np.ndim(ell_schedule) == 0:
        schedule = [_budget(ell_schedule)] * T
    else:
        schedule = [_budget(e) for e in ell_schedule]
    if len(schedule) != T:
        raise NumericsError(
            f"iteration schedule has length {len(schedule)}, expected {T}"
        )

    if nu_init is None:
        nu = np.zeros(qp.H.shape[0])
    else:
        nu = qp.nu_box.project(np.asarray(nu_init, dtype=float).ravel().copy())

    # untimed runs skip exact repeats of the orbit; timed runs time every step
    iterate = pgm_iterate if repeats else _pgm_iterate_untimed
    steps = list(_until_diverged(
        _steps(model, qp, x0, T, repeats, lambda k, x, nu: iterate(qp, cfg, x, nu, schedule[k]),
               nu), x0))

    inputs, applied, states, times = map(np.array, zip(*steps))
    states = np.vstack((x0, states))
    warm = np.vstack((nu, inputs[:-1]))
    mu = solve_benchmark(qp, cfg, states[:-1].T).T
    warm_gaps = np.linalg.norm(warm - mu, axis=1)
    return ClosedLoopRun(states, inputs, applied, times, np.linalg.norm(inputs - mu, axis=1),
                         warm_gaps, schedule[:len(steps)], float(warm_gaps[0]))


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
    per_step = ("states", "inputs", "applied", "solve_times", "d_norms",
                "warm_gap_norms", "ell_schedule")
    fields = {f: v[:T + 1 if f == "states" else T] for f in per_step
              if (v := getattr(run, f)) is not None}
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
    states, steps = table[:, 1:1 + n].copy(), table[:-1]
    d_norms = steps[:, header.index("norm_d_k")].copy() if "norm_d_k" in header else None
    return ClosedLoopRun(states, None, steps[:, 1 + n:1 + n + m].copy(), steps[:, -1].copy(),
                         d_norms)
