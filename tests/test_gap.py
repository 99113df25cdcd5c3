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
    rv = T.eta_tilde(np.zeros(5))
    assert np.all(rv.tilde == 0.0)
    assert rv.bar == 0.0
    assert rv.T == 5


def test_eta_tilde_constant_rate_frozen():
    rv = T.eta_tilde([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(rv.tilde, [0.9375, 0.875, 0.75, 0.5], atol=1e-15)
    # closed form for a constant rate
    for k in range(4):
        ref = 0.5 * (1.0 - 0.5 ** (4 - k)) / (1.0 - 0.5)
        assert rv.tilde[k] == pytest.approx(ref, rel=1e-14)
    assert rv.bar == pytest.approx(np.linalg.norm([0.875, 0.75, 0.5]), rel=1e-14)


def test_eta_tilde_matches_brute_force():
    rng = np.random.default_rng(50)
    for _ in range(20):
        rates = rng.uniform(0.0, 0.99, int(rng.integers(1, 9)))
        rv = T.eta_tilde(rates)
        assert np.allclose(rv.tilde, brute_force_tilde(rates), atol=1e-13)


def test_eta_tilde_rejects_unit_rate():
    with pytest.raises(T.NumericsError):
        T.eta_tilde([0.5, 1.0])
    with pytest.raises(T.NumericsError):
        T.eta_tilde([-0.1])


def test_eta_tilde_truncates_after_exact_solves():
    # a zero rate wipes out every accumulated product from that step on
    rates = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    rv = T.eta_tilde(rates)
    assert np.all(rv.tilde[2:] == 0.0)
    assert rv.tilde[1] == pytest.approx(0.5, rel=1e-15)
    assert rv.tilde[0] == pytest.approx(0.75, rel=1e-15)


def test_eta_tilde_mpc_matches_powers():
    eta = 0.9
    schedule = [3, 1, 7, 2, 5]
    rv = T.eta_tilde_mpc(eta, schedule)
    ref = T.eta_tilde([eta ** e for e in schedule])
    assert np.allclose(rv.tilde, ref.tilde, atol=1e-14)
    assert np.allclose(rv.rates, [eta ** e for e in schedule])
    with pytest.raises(T.NumericsError):
        T.eta_tilde_mpc(0.9, [3, 0, 2])


def test_eta_tilde_mpc_takes_whole_budgets_of_any_size():
    # a budget past int64 has its (underflowed) rate; a fractional one is refused
    assert T.eta_tilde_mpc(0.5, [10**20, 2**63, 1]).rates.tolist() == [0.0, 0.0, 0.5]
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.eta_tilde_mpc(0.5, [2.5])
    with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
        T.eta_tilde_mpc(0.5, [2.5, 1])


def test_single_step_bar_is_zero():
    rv = T.eta_tilde([0.7])
    assert rv.bar == 0.0
    assert rv.tilde[0] == pytest.approx(0.7)


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
    rv = T.eta_tilde([0.5, 0.5, 0.5])
    deltas = np.array([1.0, 1.0])
    total = T.chain_bound(rv, L=1.0, deltas=deltas, delta_u0_norm=1.0)
    # 0.875 * 1 + (0 + 1*1) * 0.75 + (0 + 1*1) * 0.5
    assert total == pytest.approx(2.125, rel=1e-14)
    assert 2.0 * T.chain_bound(rv, 1.0, deltas, 1.0) == pytest.approx(2.0 * 2.125, rel=1e-14)


def test_chain_bound_ignores_trailing_deltas():
    # runs record one delta per step; the chain uses the first T-1 of them
    rv = T.eta_tilde([0.5, 0.5, 0.5])
    short = T.chain_bound(rv, 1.0, np.array([1.0, 1.0]), 1.0)
    padded = T.chain_bound(rv, 1.0, np.array([1.0, 1.0, 99.0]), 1.0)
    assert short == padded
    with pytest.raises(T.NumericsError):
        T.chain_bound(rv, 1.0, np.array([1.0]), 1.0)


def test_chain_bound_zero_rates_keeps_first_term():
    rv = T.eta_tilde(np.zeros(4))
    assert T.chain_bound(rv, 5.0, np.ones(3), 2.0) == 0.0
    rv = T.eta_tilde([0.5, 0.0, 0.0, 0.0])
    # only the first accumulated factor survives
    assert T.chain_bound(rv, 5.0, np.ones(3), 2.0) == pytest.approx(0.5 * 2.0, rel=1e-14)


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
        rv = T.eta_tilde(np.full(Tlen, rate))
        inner = float(np.sum(deltas * rv.tilde[1:]))
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
        rv = T.eta_tilde_mpc(pend.cfg.eta, run.ell_schedule)
        total = T.chain_bound(rv, pend_certs.L, deltas, run.delta_u0_norm)
        assert float(np.sum(run.d_norms)) <= total * (1.0 + 1e-9)


def test_build_gap_report_fields(pend, pend_certs, pend_bench, pend_fit):
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 40, pend.T, repeats=0)
    report = T.build_gap_report(run, pend.qp, pend_certs, run_bench=pend_bench)
    assert report.T == pend.T
    assert report.bound is None  # no combined cost constant without a fit
    assert report.R_T is not None
    # the Python power eta ** 40 exactly, as sweep.csv writes it; the numpy
    # power behind the rate vector can differ from it in the last bit
    assert report.rate_max == pend_certs.eta ** 40
    certs = T.compute_certificates(
        pend.model, pend.qp, pend.cfg, pend.K, rng=np.random.default_rng(1),
        psi_samples=50, ediss=pend_fit,
    )
    report = T.build_gap_report(run, pend.qp, certs, run_bench=pend_bench)
    assert report.bound == pytest.approx(report.M_bar * report.chain, rel=1e-12)
    assert report.R_T <= report.bound
    lines = report.to_lines()
    assert any(ln.startswith("R_T = ") for ln in lines)
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
