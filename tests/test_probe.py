"""Empirical probes: incremental-stability fit, contraction audit, Lyapunov window."""

import math

import numpy as np
import pytest

import tdmpc as T
from tdmpc.probe import _holdout_margins, _pair_deviations, _pulse_gain


def linear_map_evaluator(A):
    """Batched iteration of x+ = A x + w, matching the probe's evaluator shape."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]

    def evaluator(X0, horizon, disturbances=None):
        X = np.atleast_2d(np.asarray(X0, dtype=float))
        out = np.zeros((horizon + 1, n, X.shape[1]))
        out[0] = X
        for k in range(horizon):
            out[k + 1] = A @ out[k]
            if disturbances is not None:
                out[k + 1] = out[k + 1] + disturbances[k]
        return out

    return evaluator


def box_sampler(n, scale=1.0):
    def sampler(rng, count):
        return scale * rng.uniform(-1.0, 1.0, (n, count))

    return sampler


# --- incremental-stability fit ---


def test_fit_recovers_scalar_contraction_constants():
    rng = np.random.default_rng(60)
    fit = T.fit_ediss(
        linear_map_evaluator([[0.5]]), box_sampler(1), rng, r_w=0.1,
        pairs=50, horizon=20, holdout_pairs=30,
    )
    assert fit.rho == pytest.approx(0.5, abs=1e-9)
    assert fit.c0 == pytest.approx(1.0, abs=1e-9)
    assert fit.c_w == pytest.approx(1.0, abs=1e-9)
    # the envelope is exactly tight for this map, so the holdout slack
    # is zero up to round-off and may land a few ulp negative
    assert fit.worst_slack >= -1e-12
    assert fit.r_w == 0.1


def test_fit_rejects_expanding_map():
    rng = np.random.default_rng(61)
    with pytest.raises(T.EdissFitError):
        T.fit_ediss(
            linear_map_evaluator([[1.5]]), box_sampler(1), rng, r_w=0.1,
            pairs=20, horizon=12, holdout_pairs=10,
        )


def test_fit_rejects_degenerate_sampling():
    rng = np.random.default_rng(62)

    def constant_sampler(rng_, count):
        return np.ones((1, count))

    with pytest.raises(T.EdissFitError):
        T.fit_ediss(
            linear_map_evaluator([[0.5]]), constant_sampler, rng, r_w=0.1,
            pairs=20, horizon=12, holdout_pairs=10,
        )
    with pytest.raises(T.EdissFitError):
        T.fit_ediss(
            linear_map_evaluator([[0.5]]), box_sampler(1), rng, r_w=0.0,
            pairs=20, horizon=12, holdout_pairs=10,
        )


def test_fit_handles_transient_growth():
    # a non-normal stable map whose one-step deviation grows: the tail fit
    # must still find a subunit rate and push the transient into c0
    A = np.array([[0.0, 1.8], [0.45, 0.0]])
    rng = np.random.default_rng(63)
    fit = T.fit_ediss(
        linear_map_evaluator(A), box_sampler(2), rng, r_w=0.05,
        pairs=60, horizon=40, holdout_pairs=30,
    )
    assert fit.rho < 1.0
    assert fit.c0 > 1.5  # the one-step transient growth sits in c0
    assert fit.worst_slack >= 0.0


def test_fit_pendulum_benchmark_loop(pend_fit):
    assert 0.0 < pend_fit.rho < 1.0
    assert pend_fit.c0 >= 1.0
    assert pend_fit.c_w > 0.0
    assert pend_fit.worst_slack >= 0.0
    lines = pend_fit.to_lines()
    assert any(ln.startswith("rho = 0.9") for ln in lines)


def test_fit_simulates_each_pair_set_in_one_call():
    widths = []
    linear = linear_map_evaluator([[0.5]])

    def counting(X0, horizon, disturbances=None):
        widths.append(X0.shape[1])
        return linear(X0, horizon, disturbances)

    rng = np.random.default_rng(60)
    T.fit_ediss(counting, box_sampler(1), rng, r_w=0.1, pairs=50, horizon=20, holdout_pairs=30)
    assert widths == [100, 100, 60]  # one call per pair set, and no holdout retry


def test_pair_deviations_match_separate_simulations(pend_evaluator, pend_sampler):
    # BLAS products may round differently at another batch width, so the
    # one-batch deviations are pinned to round-off, not to the bit
    rng = np.random.default_rng(70)
    horizon, pairs = 30, 40
    Xa, Xb = pend_sampler(rng, pairs), pend_sampler(rng, pairs)
    W = 0.01 * rng.standard_normal((horizon, 2, pairs))
    for Yb, dist in ((Xb, None), (Xa, W), (Xb, W)):
        got = _pair_deviations(pend_evaluator, Xa, Yb, horizon, dist)
        want = np.linalg.norm(
            pend_evaluator(Xa, horizon) - pend_evaluator(Yb, horizon, dist), axis=1)
        assert got.shape == (horizon + 1, pairs)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())


def pulse_gain_double_loop(devw, pulse_steps, mags, rho):
    """The per-pair, per-step gain read-off that _pulse_gain vectorizes."""
    c_w = 0.0
    for j in range(devw.shape[1]):
        i = int(pulse_steps[j])
        for k in range(i + 1, devw.shape[0]):
            c_w = max(c_w, float(devw[k, j] / (rho ** (k - i - 1) * mags[j])))
    return c_w


def test_pulse_gain_equals_the_double_loop():
    rng = np.random.default_rng(71)
    for _ in range(40):
        horizon, pairs = int(rng.integers(4, 70)), int(rng.integers(1, 15))
        devw = rng.uniform(0.0, 1.0, (horizon + 1, pairs)) * 10.0 ** rng.uniform(-3.0, 1.0)
        pulse_steps = rng.integers(0, horizon // 2, size=pairs)
        mags = rng.uniform(0.5, 1.0, pairs) * 10.0 ** rng.uniform(-3.0, 0.0)
        rho = float(rng.uniform(0.05, 0.999))
        got = _pulse_gain(devw, pulse_steps, mags, rho)
        assert got > 0.0
        assert got == pulse_gain_double_loop(devw, pulse_steps, mags, rho)


def holdout_double_loop(devh, wnorms, rho, c0, c_w):
    """The step-by-step holdout check that _holdout_margins vectorizes."""
    horizon, pairs = wnorms.shape
    worst_factor = 0.0
    worst_slack = math.inf
    for k in range(horizon + 1):
        conv = np.zeros(pairs)
        for i in range(k):
            conv += rho ** (k - i - 1) * wnorms[i]
        rhs = c0 * rho ** k * devh[0] + c_w * conv
        bad = devh[k] > rhs * (1.0 + 1e-9)
        if np.any(bad):
            worst_factor = max(worst_factor, float(np.max(devh[k][bad] / rhs[bad])))
        good = rhs > 0.0
        if np.any(good):
            worst_slack = min(
                worst_slack, float(np.min((rhs[good] - devh[k][good]) / rhs[good]))
            )
    return worst_factor, worst_slack


def test_holdout_margins_equal_the_double_loop():
    rng = np.random.default_rng(69)
    violated = 0
    for _ in range(40):
        horizon, pairs = int(rng.integers(1, 70)), int(rng.integers(1, 15))
        devh = rng.uniform(0.0, 1.0, (horizon + 1, pairs)) * 10.0 ** rng.uniform(-3.0, 1.0)
        wnorms = rng.uniform(0.0, 0.1, (horizon, pairs))
        rho = float(rng.uniform(0.05, 0.999))
        c0, c_w = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.1, 3.0))
        got = _holdout_margins(devh, wnorms, rho, c0, c_w)
        assert got == holdout_double_loop(devh, wnorms, rho, c0, c_w)
        violated += got[0] > 0.0
    assert 0 < violated < 40  # both outcomes of the check are exercised


# --- contraction audit ---


def test_audit_contraction_passes_on_pendulum(pend, pend_sampler):
    rng = np.random.default_rng(64)
    worst = T.audit_contraction(pend.qp, pend.cfg, pend_sampler, rng,
                                samples=200, ell_max=30)
    assert 0.0 <= worst <= 1.0 + 1e-9


def test_audit_contraction_zero_ratio_for_identity_hessian():
    # H = c I solves exactly in one step, so every audited ratio is 0/eps
    box = T.BoxSet([-1.0, -1.0], [1.0, 1.0])
    qp = T.CondensedQp(
        N=2, H=2.0 * np.eye(2), G=np.zeros((2, 1)), W=np.eye(1),
        S=np.array([[1.0, 0.0]]), B_bar=np.zeros((1, 1)),
        u_box=T.BoxSet([-1.0], [1.0]), nu_box=box,
        Q=np.eye(1), R=np.eye(1), P=np.eye(1),
    )
    cfg = T.pgm_config(qp)
    worst = T.audit_contraction(qp, cfg, box_sampler(1), np.random.default_rng(65),
                                samples=100, ell_max=5)
    assert worst == pytest.approx(0.0, abs=1e-9)


def test_audit_contraction_detects_overclaimed_rate(pend, pend_sampler):
    bad = T.PgmConfig(pend.cfg.alpha, 0.5 * pend.cfg.eta,
                      pend.cfg.tol_benchmark, pend.cfg.iter_cap)
    with pytest.raises(T.ContractionError) as exc:
        T.audit_contraction(pend.qp, bad, pend_sampler, np.random.default_rng(66),
                            samples=100, ell_max=10)
    err = exc.value
    assert err.ratio > 1.0
    assert err.ell >= 1
    assert err.x.shape == (2,)
    assert err.nu0.shape == (5,)


# --- finite-horizon Lyapunov probe ---


def test_lyapunov_scalar_closed_forms():
    rng = np.random.default_rng(67)
    report = T.lyapunov_finite_horizon(
        linear_map_evaluator([[0.5]]), box_sampler(1), rng, N_V=2,
        samples=50, fit_horizon=20,
    )
    assert report.lam == pytest.approx(0.5, abs=1e-9)
    assert report.d == pytest.approx(1.0, abs=1e-9)
    assert report.c2 == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert report.beta_sq == pytest.approx(0.296875, rel=1e-9)
    assert report.passed
    assert report.lower_margin >= 0.0
    assert report.upper_margin >= 0.0
    assert report.decrease_margin >= 0.0
    assert any(ln == "passed = 1" for ln in report.to_lines())


def test_lyapunov_window_too_short_names_requirement():
    A = np.array([[0.0, 1.8], [0.45, 0.0]])
    rng = np.random.default_rng(68)
    with pytest.raises(T.LyapunovError, match="need N_V"):
        T.lyapunov_finite_horizon(
            linear_map_evaluator(A), box_sampler(2), rng, N_V=2,
            samples=50, fit_horizon=40,
        )
    report = T.lyapunov_finite_horizon(
        linear_map_evaluator(A), box_sampler(2), np.random.default_rng(69),
        N_V=20, samples=50, fit_horizon=40,
    )
    assert report.passed
    assert report.beta_sq < 1.0


def test_lyapunov_rejects_zero_samples():
    def zero_sampler(rng, count):
        return np.zeros((1, count))

    with pytest.raises(T.LyapunovError):
        T.lyapunov_finite_horizon(
            linear_map_evaluator([[0.5]]), zero_sampler, np.random.default_rng(70),
            N_V=2, samples=10, fit_horizon=10,
        )
    with pytest.raises(T.LyapunovError):
        T.lyapunov_finite_horizon(
            linear_map_evaluator([[0.5]]), box_sampler(1), np.random.default_rng(71),
            N_V=0, samples=10, fit_horizon=10,
        )


def test_lyapunov_pendulum_window(pend_evaluator, pend_sampler):
    report = T.lyapunov_finite_horizon(
        pend_evaluator, pend_sampler, np.random.default_rng(72), N_V=12,
        samples=100, fit_horizon=60,
    )
    assert report.passed
    assert report.c2 >= 1.0
    assert 0.0 < report.beta_sq < 1.0


def test_evaluator_matches_benchmark_run(pend, pend_bench, pend_evaluator):
    states = pend_evaluator(pend.x0.reshape(2, 1), pend.T)
    assert states.shape == (pend.T + 1, 2, 1)
    assert np.linalg.norm(states[:, :, 0] - pend_bench.states) <= 1e-8
