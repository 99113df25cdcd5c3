"""Closed-loop simulation: benchmark loop, truncated loop, costs, CSV round trip."""

import numpy as np
import pytest

import tdmpc as T
import tdmpc.closed_loop as closed_loop


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
    assert run.stable and run.aborted_at is None


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
    assert run.aborted_at is not None
    assert run.T == run.aborted_at
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
