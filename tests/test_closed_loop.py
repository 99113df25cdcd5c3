"""Closed-loop simulation: benchmark loop, truncated loop, costs, CSV round trip."""

import tracemalloc

import numpy as np
import pytest

import tdmpc as T
import tdmpc.closed_loop as closed_loop
import tdmpc.pgm as pgm
from conftest import PendulumSetup


def test_benchmark_from_origin_stays_at_origin(pend):
    run = T.run_benchmark(pend.model, pend.qp, pend.cfg, np.zeros(2), 5, repeats=0)
    assert np.linalg.norm(run.states) <= 1e-10
    assert np.linalg.norm(run.applied) <= 1e-10
    assert run.ell_schedule is None and run.d_norms is None
    assert run.T == 5


def test_benchmark_matches_linear_feedback_when_unsaturated(pend):
    # for small states the constraints never activate and the loop is
    # x+ = (A - B S H^{-1} G) x
    x0 = 1e-3 * np.array([1.0, 1.0])
    run = T.run_benchmark(pend.model, pend.qp, pend.cfg, x0, 10, repeats=0)
    K_mpc = pend.qp.S @ np.linalg.solve(pend.qp.H, pend.qp.G)
    x = x0.copy()
    for k in range(10):
        assert np.linalg.norm(run.states[k] - x) <= 1e-8 * max(1.0, np.linalg.norm(x))
        x = (pend.model.A - pend.model.B @ K_mpc) @ x
    assert np.linalg.norm(run.states[10] - x) <= 1e-8


def test_benchmark_value_decays_at_certified_rate(pend, pend_bench, pend_certs):
    psi = T.psi_value(pend.qp, pend.cfg, pend_bench.states.T)
    for k in range(pend_bench.T):
        assert psi[k + 1] <= pend_certs.beta * psi[k] * (1.0 + 1e-9) + 1e-12


def test_applied_inputs_respect_bounds(pend, pend_bench):
    assert np.all(np.abs(pend_bench.applied) <= 1.0 + 1e-12)
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 3, 10, repeats=0)
    assert np.all(np.abs(run.applied) <= 1.0 + 1e-12)


def test_tdmpc_with_many_iterations_matches_benchmark(pend, pend_bench):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 2300, pend.T, repeats=0)
    assert np.linalg.norm(run.states - pend_bench.states) <= 1e-8
    assert np.linalg.norm(run.applied - pend_bench.applied) <= 1e-8


def test_tdmpc_optimizer_error_contracts_per_step(pend):
    ell = 3
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, ell, 15, repeats=0)
    rate = pend.cfg.eta ** ell
    assert np.all(run.d_norms <= rate * run.warm_gap_norms * (1.0 + 1e-9) + 1e-15)
    assert run.ell_schedule == [ell] * 15
    assert run.stable and run.T == 15


def test_tdmpc_first_step_deviation_is_cold_start_minimizer(pend):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 5, 4, repeats=0)
    mu0 = T.solve_benchmark(pend.qp, pend.cfg, pend.x0)
    assert run.delta_u0_norm == pytest.approx(np.linalg.norm(mu0), rel=1e-9)


def test_tdmpc_mixed_schedule_and_optimal_init(pend):
    run = T.run_tdmpc(
        pend.model, pend.qp, pend.cfg, pend.x0, [5, 10, 1, 7], 4,
        nu_init=T.solve_benchmark(pend.qp, pend.cfg, pend.x0), repeats=0,
    )
    assert run.ell_schedule == [5, 10, 1, 7]
    assert run.delta_u0_norm == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(T.NumericsError):
        T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, [5, 10], 4, repeats=0)
    with pytest.raises(T.NumericsError):
        T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 0, 4, repeats=0)


def test_divergence_guard_truncates_run():
    model = T.LtiModel([[2.0]], [[0.001]])
    Q = np.array([[1.0]])
    R = np.array([[1.0]])
    P, _ = T.solve_dare(model.A, model.B, Q, R)
    qp = T.build_condensed(model, Q, R, P, 3, T.BoxSet([-1.0], [1.0]))
    cfg = T.pgm_config(qp)
    run = T.run_tdmpc(model, qp, cfg, np.array([1.0]), 1, 60, repeats=0)
    assert not run.stable
    assert run.T < 60
    assert not closed_loop._diverged(run.states[-2], run.states[0])
    assert run.states.shape[0] == run.T + 1
    assert np.linalg.norm(run.states[-1]) > 1e6
    deltas, S_T, S_T2 = T.path_vectors(run)
    assert deltas.shape == (run.T,)


def test_cost_accumulation_hand_case():
    states = np.array([[1.0, 0.0], [0.5, 0.5]])
    applied = np.array([[0.25]])
    run = T.ClosedLoopRun(states, None, applied, np.zeros(1))
    Q = np.eye(2)
    R = 2.0 * np.eye(1)
    P = 3.0 * np.eye(2)
    # x0'Qx0 + u0'Ru0 + x1'Px1 = 1 + 0.125 + 1.5
    assert T.cost_JT(run, Q, R, P) == pytest.approx(2.625, rel=1e-12)


def test_cost_additive_over_concatenation():
    rng = np.random.default_rng(40)
    states = rng.standard_normal((7, 2))
    applied = rng.standard_normal((6, 1))
    Q = np.eye(2)
    R = np.eye(1)
    zero = np.zeros((2, 2))
    whole = T.ClosedLoopRun(states, None, applied, np.zeros(6))
    first = T.ClosedLoopRun(states[:4], None, applied[:3], np.zeros(3))
    second = T.ClosedLoopRun(states[3:], None, applied[3:], np.zeros(3))
    total = T.cost_JT(first, Q, R, zero) + T.cost_JT(second, Q, R, zero)
    assert T.cost_JT(whole, Q, R, zero) == pytest.approx(total, rel=1e-12)


def test_path_vectors_cases():
    const = T.ClosedLoopRun(np.ones((4, 2)), None, np.zeros((3, 1)), np.zeros(3))
    deltas, S_T, S_T2 = T.path_vectors(const)
    assert np.all(deltas == 0.0) and S_T == 0.0 and S_T2 == 0.0
    two = T.ClosedLoopRun(np.array([[0.0, 0.0], [3.0, 0.0]]), None,
                          np.zeros((1, 1)), np.zeros(1))
    deltas, S_T, S_T2 = T.path_vectors(two)
    assert S_T == pytest.approx(3.0) and S_T2 == pytest.approx(3.0)
    rng = np.random.default_rng(41)
    rand = T.ClosedLoopRun(rng.standard_normal((9, 3)), None,
                           np.zeros((8, 1)), np.zeros(8))
    deltas, S_T, S_T2 = T.path_vectors(rand)
    assert S_T2 <= S_T + 1e-12
    assert deltas.shape == (8,)


def test_truncate_run_prefix(pend, pend_bench):
    short = T.truncate_run(pend_bench, 10)
    assert short.T == 10
    assert np.allclose(short.states, pend_bench.states[:11])
    assert np.allclose(short.applied, pend_bench.applied[:10])
    with pytest.raises(T.NumericsError):
        T.truncate_run(pend_bench, pend_bench.T + 1)


def test_csv_round_trip_tdmpc(tmp_path, pend):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 4, 5, repeats=0)
    path = tmp_path / "run.csv"
    T.write_run_csv(run, path)
    text = path.read_text()
    header = text.splitlines()[0]
    assert header == "k,x_1,x_2,u_applied_1,norm_d_k,solve_time_s"
    assert len(text.splitlines()) == 5 + 2  # header + T inputs + terminal state
    back = T.read_run_csv(path)
    # repr round trip is exact
    assert np.array_equal(back.states, run.states)
    assert np.array_equal(back.applied, run.applied)
    assert np.array_equal(back.d_norms, run.d_norms)
    assert np.array_equal(back.solve_times, run.solve_times)


def test_csv_round_trip_benchmark(tmp_path, pend, pend_bench):
    path = tmp_path / "bench.csv"
    T.write_run_csv(pend_bench, path)
    header = path.read_text().splitlines()[0]
    assert header == "k,x_1,x_2,u_applied_1,solve_time_s"
    back = T.read_run_csv(path)
    assert back.d_norms is None
    assert np.array_equal(back.states, pend_bench.states)
    # final row carries the terminal state and empty input cells
    last = path.read_text().splitlines()[-1]
    assert last.split(",")[2] != "" and last.split(",")[3] == ""


def test_negative_repeats_raises(pend):
    with pytest.raises(T.NumericsError, match="repeats"):
        T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 3, 2, repeats=-1)
    with pytest.raises(T.NumericsError, match="repeats"):
        T.run_benchmark(pend.model, pend.qp, pend.cfg, pend.x0, 2, repeats=-1)


def test_timed_run_times_every_full_iteration_loop(pend, monkeypatch):
    # repeats >= 1 times pgm_iterate, the real ell-step loop, never the skipping one
    calls = []
    iterate = closed_loop.pgm_iterate

    def recording(qp, cfg, x, nu, ell):
        calls.append(ell)
        return iterate(qp, cfg, x, nu, ell)

    def untimed(*args):
        raise AssertionError("a timed run used the untimed iterate")

    monkeypatch.setattr(closed_loop, "pgm_iterate", recording)
    monkeypatch.setattr(closed_loop, "_pgm_iterate_untimed", untimed)
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 2300, 3, repeats=2)
    assert calls == [2300] * (3 * 2)
    assert np.all(run.solve_times > 0.0)


def test_iteration_schedule_must_be_integral(pend):
    for schedule in (2.5, [1.9, 2, 2], [2, 2, np.float64(3.0)]):
        with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
            T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, schedule, 3, repeats=0)
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, np.int64(2), 3, repeats=0)
    assert run.ell_schedule == [2, 2, 2]
    assert all(type(e) is int for e in run.ell_schedule)
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, np.array([2, 3, 4]), 3,
                      repeats=0)
    assert run.ell_schedule == [2, 3, 4]


def test_zero_dimensional_schedule_is_a_scalar(pend):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, np.array(5), 3, repeats=0)
    scalar = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 5, 3, repeats=0)
    assert run.ell_schedule == [5, 5, 5]
    assert all(type(e) is int for e in run.ell_schedule)
    assert run.inputs.tobytes() == scalar.inputs.tobytes()
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, np.array(2.5), 3, repeats=0)


@pytest.mark.parametrize("horizon", [2.5, np.float64(3.0)])
def test_horizon_must_be_integral(pend, horizon):
    m, qp, cfg = pend.model, pend.qp, pend.cfg
    for run in (lambda T_: T.run_benchmark(m, qp, cfg, pend.x0, T_, repeats=0),
                lambda T_: T.run_tdmpc(m, qp, cfg, pend.x0, 3, T_, repeats=0)):
        with pytest.raises(T.NumericsError, match="horizon T must be an integer"):
            run(horizon)
        assert run(np.int64(pend.T)).T == pend.T


def test_truncate_csv_run(tmp_path, pend, pend_bench):
    # CSV runs carry inputs = None; truncation passes None fields through
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 4, 6, repeats=0)
    for whole in (run, pend_bench):
        T.write_run_csv(whole, tmp_path / "run.csv")
        short = T.truncate_run(T.read_run_csv(tmp_path / "run.csv"), 3)
        assert short.T == 3 and short.inputs is None and short.ell_schedule is None
        assert np.array_equal(short.states, whole.states[:4])
        assert np.array_equal(short.applied, whole.applied[:3])
        assert (short.d_norms is None) == (whole.d_norms is None)
        if whole.d_norms is not None:
            assert np.array_equal(short.d_norms, whole.d_norms[:3])


def test_run_csv_golden_text(tmp_path):
    with_d = T.ClosedLoopRun(
        np.array([[1.0, -0.0], [0.5, 1e-300], [2.0, -2.5]]), None,
        np.array([[0.25], [-0.0]]), np.array([0.0, 2.0]),
        d_norms=np.array([1e-300, 0.1 + 0.2]))
    bench = T.ClosedLoopRun(
        np.array([[-0.0], [1e-300], [2.0]]), None,
        np.array([[2.0, -1e-300], [-0.0, 1.5e10]]), np.array([0.1, 0.0]))
    T.write_run_csv(with_d, tmp_path / "with_d.csv")
    T.write_run_csv(bench, tmp_path / "bench.csv")
    assert (tmp_path / "with_d.csv").read_text() == (
        "k,x_1,x_2,u_applied_1,norm_d_k,solve_time_s\n"
        "0,1.0,-0.0,0.25,1e-300,0.0\n"
        "1,0.5,1e-300,-0.0,0.30000000000000004,2.0\n"
        "2,2.0,-2.5,,,\n"
    )
    assert (tmp_path / "bench.csv").read_text() == (
        "k,x_1,u_applied_1,u_applied_2,solve_time_s\n"
        "0,-0.0,2.0,-1e-300,0.1\n"
        "1,1e-300,-0.0,15000000000.0,0.0\n"
        "2,2.0,,,\n"
    )


def _diverging_setup():
    # the unstable scalar plant of test_divergence_guard_truncates_run
    model = T.LtiModel([[2.0]], [[0.001]])
    Q = np.array([[1.0]])
    R = np.array([[1.0]])
    P, K = T.solve_dare(model.A, model.B, Q, R)
    qp = T.build_condensed(model, Q, R, P, 3, T.BoxSet([-1.0], [1.0]))
    cfg = T.pgm_config(qp)
    return model, qp, cfg, K


def test_truncate_prefix_of_aborted_run():
    # a prefix that ends before the diverged state is stable; one that
    # includes it is not
    whole = T.ClosedLoopRun(
        np.array([[1.0], [2.0], [4.0], [1e9]]), np.zeros((3, 2)), np.zeros((3, 1)),
        np.zeros(3), np.ones(3), np.ones(3), [1, 1, 1])
    assert not whole.stable and whole.delta_u0_norm == 1.0
    for steps in (1, 2):
        short = T.truncate_run(whole, steps)
        assert short.T == steps and short.stable
    short = T.truncate_run(whole, 3)
    assert short.T == 3 and not short.stable
    model, qp, cfg, _ = _diverging_setup()
    run = T.run_tdmpc(model, qp, cfg, np.array([1.0]), 1, 60, repeats=0)
    assert T.truncate_run(run, run.T - 1).stable
    assert not T.truncate_run(run, run.T).stable


def _per_step_run(model, qp, cfg, x0, schedule, horizon, nu_init=None):
    """A frozen copy of run_tdmpc as it was when it solved mu*(x_k) inside its loop.

    One single-column reference solve per step, between the controller
    calls: mu*(x_0) before the loop, then mu*(x_k).  The untimed kernel steps the
    controller, as in a run with repeats = 0.  The reference that the one
    batched solve after the loop has to match within the reference
    resolution; returns the run, the minimizers it solved and its own
    divergence flag, which the run's stable property has to match.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    schedule = [schedule] * horizon if np.ndim(schedule) == 0 else list(schedule)
    if nu_init is None:
        nu = np.zeros(qp.H.shape[0])
    else:
        nu = qp.nu_box.project(np.asarray(nu_init, dtype=float).ravel().copy())
    mu = T.solve_benchmark(qp, cfg, x0)
    x, steps, errors, mus, stable = x0, [], [], [], True
    for k in range(horizon):
        if steps:
            mu = T.solve_benchmark(qp, cfg, x)
        nu_k = pgm._pgm_iterate_untimed(qp, cfg, x, nu, schedule[k])
        errors.append((np.linalg.norm(nu - mu), np.linalg.norm(nu_k - mu)))
        mus.append(mu)
        nu = nu_k
        u = qp.S @ nu
        x = model.step(x, u)
        steps.append((nu, u, x, 0.0))
        if np.linalg.norm(x) > 1e6 * (1.0 + float(np.linalg.norm(x0))):
            stable = False
            break
    inputs, applied, states, times = zip(*steps)
    warm_gaps, d_norms = map(np.array, zip(*errors))
    run = T.ClosedLoopRun(np.array((x0,) + states), np.array(inputs), np.array(applied),
                          np.array(times), d_norms, warm_gaps, schedule[:len(steps)])
    return run, np.array(mus), stable


def _check_against_per_step_oracle(monkeypatch, model, qp, cfg, x0, schedule, horizon,
                                   nu_init=None, repeats=(0,)):
    """run_tdmpc against _per_step_run, and the order of its solver calls.

    Every field but the three error fields keeps its bytes; the errors
    agree within the reference resolution tol_benchmark (1 + ||mu||) / (1 - eta)
    plus rounding, and contract at eta ** ell_k per step up to that
    resolution.  Counters on the controller iterate and on closed_loop's
    solve_benchmark see one batched solve per run, after the last
    controller call, whether the run is timed or not.
    """
    want, mus, stable = _per_step_run(model, qp, cfg, x0, schedule, horizon, nu_init)
    events = []
    solve = closed_loop.solve_benchmark

    def counting(kernel):
        def call(qp, cfg, x, nu, ell):
            events.append("controller")
            return kernel(qp, cfg, x, nu, ell)
        return call

    def counting_solve(qp, cfg, x):
        events.append(("reference", np.shape(x)))
        return solve(qp, cfg, x)

    monkeypatch.setattr(closed_loop, "pgm_iterate", counting(closed_loop.pgm_iterate))
    monkeypatch.setattr(closed_loop, "_pgm_iterate_untimed",
                        counting(closed_loop._pgm_iterate_untimed))
    monkeypatch.setattr(closed_loop, "solve_benchmark", counting_solve)
    for r in repeats:
        events.clear()
        got = T.run_tdmpc(model, qp, cfg, x0, schedule, horizon, nu_init=nu_init, repeats=r)
        assert events == ["controller"] * (got.T * max(r, 1)) + [
            ("reference", (model.n, got.T))]
        for field in ("states", "inputs", "applied"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert got.ell_schedule == want.ell_schedule
        assert got.stable is stable
        if r == 0:
            assert got.solve_times.tobytes() == want.solve_times.tobytes()
        res = cfg.tol_benchmark * (1.0 + np.linalg.norm(mus, axis=1)) / (1.0 - cfg.eta)
        slack = res + 1e-13 * (1.0 + np.linalg.norm(want.inputs, axis=1))
        for field in ("d_norms", "warm_gap_norms"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == float and a.shape == (got.T,)
            assert np.all(np.abs(a - b) <= slack), field
        assert abs(got.delta_u0_norm - want.delta_u0_norm) <= slack[0]
        assert got.delta_u0_norm == got.warm_gap_norms[0]
        # ||nu_k - mu|| <= rate ||nu_{k-1} - mu|| for the exact mu; a reference
        # that is res off adds at most (1 + rate) res
        rate = np.array([cfg.eta ** e for e in got.ell_schedule])
        assert np.all(got.d_norms <= rate * got.warm_gap_norms * (1.0 + 1e-9)
                      + (1.0 + rate) * res)


@pytest.mark.parametrize("case", ["constant", "mixed_optimal_init", "diverging"])
def test_batched_errors_match_per_step_oracle(monkeypatch, pend, case):
    # the errors come from one batched solve after the loop; the frozen
    # per-step loop gives the same run and the same errors within the resolution
    if case == "diverging":
        model, qp, cfg, _ = _diverging_setup()
        args = (np.array([1.0]), 1, 60)
    else:
        model, qp, cfg = pend.model, pend.qp, pend.cfg
        args = (pend.x0, 6, pend.T) if case == "constant" else (pend.x0, [5, 10, 1, 7], 4)
    nu_init = T.solve_benchmark(qp, cfg, pend.x0) if case == "mixed_optimal_init" else None
    _check_against_per_step_oracle(monkeypatch, model, qp, cfg, *args, nu_init=nu_init,
                                   repeats=(0, 1))
    if case == "diverging":
        run = T.run_tdmpc(model, qp, cfg, *args, repeats=0)
        assert not run.stable and run.T < 60


def test_batched_errors_match_per_step_oracle_on_random_instances(monkeypatch,
                                                                  random_instance):
    # ten seeded instances, the last of them with dim(H) = N m = 20
    rng = np.random.default_rng(43)
    instances = [random_instance(rng) for _ in range(9)]
    wide = random_instance(rng)
    while wide[1].H.shape[0] != 20:
        wide = random_instance(rng)
    for i, (model, qp, cfg, _) in enumerate(instances + [wide]):
        x0 = rng.standard_normal(model.n) * 10.0 ** rng.uniform(-1.0, 1.5)
        schedule = [int(e) for e in rng.choice([1, 2, 3, 6, 20, 100], size=15)]
        nu_init = qp.nu_box.sample(rng, 1)[:, 0] if i % 2 else None
        _check_against_per_step_oracle(monkeypatch, model, qp, cfg, x0, schedule, 15,
                                       nu_init=nu_init)


@pytest.mark.parametrize("repeats", [0, 1])
def test_csv_round_trip_keeps_divergence(tmp_path, repeats):
    # the guard stops a run at its first diverged state, the last row of its CSV
    model, qp, cfg, _ = _diverging_setup()
    run = T.run_tdmpc(model, qp, cfg, np.array([1.0]), 1, 60, repeats=repeats)
    assert not run.stable and run.T < 60
    T.write_run_csv(run, tmp_path / "run.csv")
    back = T.read_run_csv(tmp_path / "run.csv")
    assert not back.stable and back.T == run.T
    assert back.states.tobytes() == run.states.tobytes()
    T.write_run_csv(T.truncate_run(run, run.T - 1), tmp_path / "prefix.csv")
    back = T.read_run_csv(tmp_path / "prefix.csv")
    assert back.stable and back.T == run.T - 1


def test_diverging_benchmark_run_is_unstable(tmp_path, pend):
    # from x0 = [3, 0] the saturated benchmark loop of the calibrated
    # pendulum diverges; like a truncated run it stops at the first state
    # that trips the guard, and its last state decides
    x0 = np.array([3.0, 0.0])
    bench = T.run_benchmark(pend.model, pend.qp, pend.cfg, x0, 60, repeats=0)
    assert bench.T < 60 and not bench.stable
    assert not closed_loop._diverged(bench.states[-2], x0)
    assert T.truncate_run(bench, 1).stable
    T.write_run_csv(bench, tmp_path / "bench.csv")
    back = T.read_run_csv(tmp_path / "bench.csv")
    assert not back.stable and back.states.tobytes() == bench.states.tobytes()


def test_long_diverging_benchmark_run_has_finite_cost(pend):
    # without the guard, 1000 steps from x0 = [3, 0] reach states of 1e166
    # and J_T overflows to inf; with it the run ends where the 60-step one does
    x0 = np.array([3.0, 0.0])
    bench = T.run_benchmark(pend.model, pend.qp, pend.cfg, x0, 1000, repeats=0)
    J = T.cost_JT(bench, pend.qp.Q, pend.qp.R, pend.qp.P)
    short = T.run_benchmark(pend.model, pend.qp, pend.cfg, x0, 60, repeats=0)
    assert np.isfinite(J) and not bench.stable
    assert bench.states.tobytes() == short.states.tobytes()


@pytest.mark.parametrize("case", ["constant", "converged", "mixed", "diverging", "preset N = 10"])
def test_timed_and_untimed_policies_give_the_same_run(pend, case):
    # repeats = 1 steps pgm_iterate and repeats = 0 the orbit-skipping
    # iterate through the same loop; every recorded field keeps its bytes
    model, qp, cfg, x0 = pend.model, pend.qp, pend.cfg, pend.x0
    schedule, horizon = {"constant": (6, pend.T), "converged": (2300, pend.T),
                         "mixed": ([5, 130, 1, 61] * 5, 20), "diverging": (1, 60),
                         "preset N = 10": (5000, pend.T)}[case]
    if case == "diverging":
        model, qp, cfg, _ = _diverging_setup()
        x0 = np.array([1.0])
    if case == "preset N = 10":
        # tdmpc run 5000 on the default preset: its timed calls pass the
        # ball certificate and run clip-free
        preset = PendulumSetup(10)
        model, qp, cfg = preset.model, preset.qp, preset.cfg
    timed, untimed = (T.run_tdmpc(model, qp, cfg, x0, schedule, horizon, repeats=r)
                      for r in (1, 0))
    for field in ("states", "inputs", "applied", "d_norms", "warm_gap_norms"):
        assert getattr(timed, field).tobytes() == getattr(untimed, field).tobytes(), field
    assert timed.ell_schedule == untimed.ell_schedule
    assert (timed.stable, timed.T) == (untimed.stable, untimed.T)
    assert timed.stable == (case != "diverging")


def test_long_horizon_run_allocates_only_what_it_steps(pend):
    # nothing of length T is built before the loop: from [3, 0] the guard
    # ends the run within a hundred steps, whatever T asks for
    tracemalloc.start()
    try:
        run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, [3.0, 0.0], 6, 10**7, repeats=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not run.stable and run.T < 100 and run.ell_schedule == [6] * run.T
    assert peak < 2**20
