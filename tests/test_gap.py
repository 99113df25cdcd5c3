"""Accumulated-rate vectors, empirical gaps, and the cumulative error bounds."""

import numpy as np
import pytest

import tdmpc as T


def brute_force_tilde(rates):
    """Direct double-loop evaluation of the accumulated rate products."""
    Tlen = len(rates)
    tilde = np.zeros(Tlen)
    for k in range(Tlen):
        total = 0.0
        for j in range(k, Tlen):
            prod = 1.0
            for i in range(k, j + 1):
                prod *= rates[i]
            total += prod
        tilde[k] = total
    return tilde


def test_eta_tilde_zero_rates():
    tilde = T.eta_tilde(np.zeros(5))
    assert np.all(tilde == 0.0)
    assert tilde.shape == (5,)


def test_eta_tilde_constant_rate_frozen():
    tilde = T.eta_tilde([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(tilde, [0.9375, 0.875, 0.75, 0.5], atol=1e-15)
    # closed form for a constant rate
    for k in range(4):
        ref = 0.5 * (1.0 - 0.5 ** (4 - k)) / (1.0 - 0.5)
        assert tilde[k] == pytest.approx(ref, rel=1e-14)


def test_eta_tilde_matches_brute_force():
    rng = np.random.default_rng(50)
    for _ in range(20):
        rates = rng.uniform(0.0, 0.99, int(rng.integers(1, 9)))
        assert np.allclose(T.eta_tilde(rates), brute_force_tilde(rates), atol=1e-13)


def test_eta_tilde_rejects_unit_rate():
    with pytest.raises(T.NumericsError):
        T.eta_tilde([0.5, 1.0])
    with pytest.raises(T.NumericsError):
        T.eta_tilde([-0.1])


def test_eta_tilde_truncates_after_exact_solves():
    # a zero rate wipes out every accumulated product from that step on
    rates = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    tilde = T.eta_tilde(rates)
    assert np.all(tilde[2:] == 0.0)
    assert tilde[1] == pytest.approx(0.5, rel=1e-15)
    assert tilde[0] == pytest.approx(0.75, rel=1e-15)


def test_eta_tilde_mpc_matches_powers():
    eta = 0.9
    schedule = [3, 1, 7, 2, 5]
    # every rate is the Python power, so the weights match bit for bit
    ref = T.eta_tilde([eta ** e for e in schedule])
    assert T.eta_tilde_mpc(eta, schedule).tolist() == ref.tolist()
    with pytest.raises(T.NumericsError):
        T.eta_tilde_mpc(0.9, [3, 0, 2])


def test_eta_tilde_mpc_takes_whole_budgets_of_any_size():
    # a budget past int64 has its (underflowed) rate; a fractional one is refused
    assert T.eta_tilde_mpc(0.5, [10**20, 2**63, 1]).tolist() == [0.0, 0.0, 0.5]
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.eta_tilde_mpc(0.5, [2.5])
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.eta_tilde_mpc(0.5, [2.5, 1])
    # the one certified rate: a budget with no float takes the capped exponent
    assert T.certified_rate(0.5, 10**400) == 0.0
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.certified_rate(0.5, 2.5)
    with pytest.raises(T.NumericsError, match=">= 1"):
        T.certified_rate(0.5, 0)


def test_single_step_bar_is_zero():
    # one step has no tail weights, so its chain is the first term alone
    tilde = T.eta_tilde([0.7])
    assert tilde.shape == (1,) and tilde[0] == pytest.approx(0.7)
    assert T.chain_bound(tilde, 5.0, [], 2.0) == pytest.approx(0.7 * 2.0)


def test_empirical_gap_self_and_guards(pend, pend_bench):
    assert T.empirical_gap(pend_bench, pend_bench, pend.Q, pend.R, pend.P) == 0.0
    other = T.run_benchmark(pend.model, pend.qp, pend.cfg, pend.x0 * 1.5, 3, repeats=0)
    with pytest.raises(T.NumericsError):
        T.empirical_gap(other, pend_bench, pend.Q, pend.R, pend.P)  # mismatched T
    with pytest.raises(T.NumericsError):
        T.empirical_gap(
            T.truncate_run(pend_bench, 3), other, pend.Q, pend.R, pend.P
        )  # mismatched start


def test_chain_bound_three_step_hand_case():
    tilde = T.eta_tilde([0.5, 0.5, 0.5])
    deltas = np.array([1.0, 1.0])
    total = T.chain_bound(tilde, L=1.0, deltas=deltas, delta_u0_norm=1.0)
    # 0.875 * 1 + (0 + 1*1) * 0.75 + (0 + 1*1) * 0.5
    assert total == pytest.approx(2.125, rel=1e-14)
    assert 2.0 * T.chain_bound(tilde, 1.0, deltas, 1.0) == pytest.approx(2.0 * 2.125, rel=1e-14)


def test_chain_bound_ignores_trailing_deltas():
    # runs record one delta per step; the chain uses the first T-1 of them
    tilde = T.eta_tilde([0.5, 0.5, 0.5])
    short = T.chain_bound(tilde, 1.0, np.array([1.0, 1.0]), 1.0)
    padded = T.chain_bound(tilde, 1.0, np.array([1.0, 1.0, 99.0]), 1.0)
    assert short == padded
    with pytest.raises(T.NumericsError):
        T.chain_bound(tilde, 1.0, np.array([1.0]), 1.0)


def test_chain_bound_zero_rates_keeps_first_term():
    tilde = T.eta_tilde(np.zeros(4))
    assert T.chain_bound(tilde, 5.0, np.ones(3), 2.0) == 0.0
    tilde = T.eta_tilde([0.5, 0.0, 0.0, 0.0])
    # only the first accumulated factor survives
    assert T.chain_bound(tilde, 5.0, np.ones(3), 2.0) == pytest.approx(0.5 * 2.0, rel=1e-14)


def test_complexity_term_examples():
    assert T.complexity_term(0.0, 3.0) == 0.0
    assert T.complexity_term(0.5, 3.0) == pytest.approx(3.0, rel=1e-14)


def test_complexity_dominates_chain_inner_product():
    # eta_tilde_k <= rate / (1 - rate) for a constant rate, so the
    # aggregate path term dominates the weighted one from the chain
    rng = np.random.default_rng(51)
    for _ in range(20):
        Tlen = int(rng.integers(2, 12))
        rate = float(rng.uniform(0.05, 0.95))
        deltas = rng.uniform(0.0, 2.0, Tlen - 1)
        tilde = T.eta_tilde(np.full(Tlen, rate))
        inner = float(np.sum(deltas * tilde[1:]))
        agg = T.complexity_term(rate, float(deltas.sum()))
        assert inner <= agg * (1.0 + 1e-12)


def test_bound_vanishes_with_iteration_count():
    deltas = np.ones(5)
    prev = np.inf
    for ell in [1, 5, 20, 100]:
        # the cost-gap bound M_bar * chain at M_bar = 1
        b = 1.0 * T.chain_bound(T.eta_tilde_mpc(0.8, [ell] * 6), 1.0, deltas, 1.0)
        assert b < prev
        prev = b
    assert prev <= 1e-8


def test_chain_bound_covers_measured_errors(pend, pend_certs):
    # per-step optimizer errors accumulate below the certified chain
    for ell in (6, 40):
        run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, ell, 12, repeats=0)
        deltas, S_T, S_T2 = T.path_vectors(run)
        tilde = T.eta_tilde_mpc(pend.cfg.eta, run.ell_schedule)
        total = T.chain_bound(tilde, pend_certs.L, deltas, run.delta_u0_norm)
        assert float(np.sum(run.d_norms)) <= total * (1.0 + 1e-9)


def test_build_gap_report_fields(pend, pend_certs, pend_bench, pend_fit):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 40, pend.T, repeats=0)
    report = T.build_gap_report(run, pend.qp, pend_certs, run_bench=pend_bench)
    assert report.T == pend.T
    assert report.bound is None  # no combined cost constant without a fit
    assert report.R_T is not None
    # one certified rate: the chain's weight and sweep.csv's rate cell are
    # the Python power eta ** 40 bit for bit (numpy's vectorized power
    # can miss it in the last bit)
    assert T.eta_tilde_mpc(pend.cfg.eta, [40])[0] == report.rate_max == pend.cfg.eta ** 40
    certs = T.compute_certificates(
        pend.model, pend.qp, pend.cfg, pend.K, rng=np.random.default_rng(1),
        psi_samples=50, ediss=pend_fit,
    )
    report = T.build_gap_report(run, pend.qp, certs, run_bench=pend_bench)
    assert report.bound == pytest.approx(report.M_bar * report.chain, rel=1e-12)
    assert report.R_T <= report.bound
    report_nobench = T.build_gap_report(run, pend.qp, certs)
    assert report_nobench.R_T is None


def test_gap_from_csv_round_trip(tmp_path, pend, pend_bench):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 25, pend.T, repeats=0)
    gap_mem = T.empirical_gap(run, pend_bench, pend.Q, pend.R, pend.P)
    T.write_run_csv(run, tmp_path / "sub.csv")
    T.write_run_csv(pend_bench, tmp_path / "bench.csv")
    sub = T.read_run_csv(tmp_path / "sub.csv")
    bench = T.read_run_csv(tmp_path / "bench.csv")
    assert T.empirical_gap(sub, bench, pend.Q, pend.R, pend.P) == gap_mem


def test_chain_bound_covers_optimizer_errors_on_random_instances(random_instance):
    # sum d_k <= chain holds for exact minimizers; the measured d_k carry the
    # reference solve's error, at most tol_benchmark (1 + ||mu*(x_k)||) / (1 - eta)
    # per step, so the check allows exactly that much and no more
    rng = np.random.default_rng(41)
    for i in range(30):
        model, qp, cfg, K = random_instance(rng)
        x0 = rng.standard_normal(model.n) * 10.0 ** rng.uniform(-1.0, 1.5)
        ell = int(rng.choice([1, 2, 3, 6, 20, 100]))
        nu_init = qp.nu_box.sample(rng, 1)[:, 0] if i % 2 else None
        run = T.run_tdmpc(model, qp, cfg, x0, ell, 15, nu_init=nu_init, repeats=0)
        deltas, _, _ = T.path_vectors(run)
        tilde = T.eta_tilde_mpc(cfg.eta, run.ell_schedule)
        chain = T.chain_bound(tilde, T.lipschitz_L(qp), deltas, run.delta_u0_norm)
        MU = T.solve_benchmark(qp, cfg, run.states[:run.T].T)
        resolution = float(np.sum(cfg.tol_benchmark * (1.0 + np.linalg.norm(MU, axis=0))
                                  / (1.0 - cfg.eta)))
        assert float(np.sum(run.d_norms)) <= chain + resolution, (i, ell)
