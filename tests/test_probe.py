"""Empirical probes: incremental-stability fit, contraction audit, Lyapunov window."""

import math
import tracemalloc

import numpy as np
import pytest

import tdmpc as T
from conftest import PendulumSetup
from tdmpc.condensed import _Step
from tdmpc.probe import _geometric_envelope, _holdout_margins, _pair_gaps, _pulse_gain


def linear_map_evaluator(A):
    """Batched iteration of x+ = A x + w, matching the probe's evaluator shape."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]

    def evaluator(X0, horizon, disturbances=None, reduce=None):
        X = np.atleast_2d(np.asarray(X0, dtype=float))
        out = np.zeros((horizon + 1, n, X.shape[1]))
        out[0] = X
        for k in range(horizon):
            out[k + 1] = A @ out[k]
            if disturbances is not None:
                out[k + 1] = out[k + 1] + disturbances[k]
        return out if reduce is None else np.array([reduce(x) for x in out])

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


def counting_evaluator(evaluator, widths):
    """evaluator, appending the batch width of each call to widths."""
    def counting(X0, horizon, disturbances=None, reduce=None):
        widths.append(X0.shape[1])
        return evaluator(X0, horizon, disturbances, reduce)

    return counting


def test_fit_simulates_each_pair_set_in_one_call():
    widths = []
    evaluator = counting_evaluator(linear_map_evaluator([[0.5]]), widths)
    rng = np.random.default_rng(60)
    T.fit_ediss(evaluator, box_sampler(1), rng, r_w=0.1, pairs=50, horizon=20, holdout_pairs=30)
    assert widths == [260]  # all three pair sets in one call, and no holdout retry


def test_pair_deviations_match_separate_simulations(pend_evaluator, pend_sampler):
    # BLAS products may round differently at another batch width, so the
    # one-batch deviations, reduced step by step, are pinned to round-off
    rng = np.random.default_rng(70)
    horizon, pairs = 30, 40
    Xa, Xb = pend_sampler(rng, pairs), pend_sampler(rng, pairs)
    W = 0.01 * rng.standard_normal((horizon, 2, pairs))
    for Yb, dist in ((Xb, None), (Xa, W), (Xb, W)):
        both = None
        if dist is not None:
            both = np.zeros((horizon, 2, 2 * pairs))
            both[:, :, pairs:] = dist
        got = pend_evaluator(np.hstack([Xa, Yb]), horizon, both, _pair_gaps)
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


# --- one batch per fit: the same fit as a frozen phase-by-phase oracle ---


def _phase_deviations(evaluator, Xa, Xb, horizon, disturbances=None):
    """Frozen: deviation norms (horizon+1, pairs) of the pairs (Xa, Xb),
    from the stored trajectories of one batch; the disturbances
    (horizon, n, pairs) drive Xb only."""
    pairs = Xa.shape[1]
    W = None
    if disturbances is not None:
        W = np.zeros((horizon, Xa.shape[0], 2 * pairs))
        W[:, :, pairs:] = disturbances
    S = evaluator(np.hstack([Xa, Xb]), horizon, W)
    return np.linalg.norm(S[:, :, :pairs] - S[:, :, pairs:], axis=1)


def _phase_by_phase_fit(evaluator, sampler, rng, r_w, pairs=200, horizon=60,
                        holdout_pairs=100):
    """A frozen copy of fit_ediss as it was before the phases shared a batch.

    Each phase draws its pairs and simulates them in an evaluator call of
    its own, which keeps the whole state history: the reference that the
    live fit has to match bit for bit, rng stream included.
    """
    if r_w <= 0.0:
        raise T.EdissFitError(f"disturbance radius must be positive, got {r_w}")
    if pairs < 2 or horizon < 4:
        raise T.EdissFitError("need at least 2 pairs and a horizon of at least 4")

    Xa = sampler(rng, pairs)
    Xb = sampler(rng, pairs)
    rho, c0, _ = _geometric_envelope(
        _phase_deviations(evaluator, Xa, Xb, horizon), T.EdissFitError,
        "sampled trajectory pairs all coincide at the start",
        "benchmark loop is not incrementally contracting",
        lambda rate: min(max(rate, 1e-6), 1.0 - 1e-6),
    )

    Xc = sampler(rng, pairs)
    pulse_steps = rng.integers(0, max(horizon // 2, 1), size=pairs)
    dirs = rng.standard_normal((Xc.shape[0], pairs))
    dirs /= np.linalg.norm(dirs, axis=0, keepdims=True)
    mags = r_w * rng.uniform(0.5, 1.0, size=pairs)
    W = np.zeros((horizon, Xc.shape[0], pairs))
    W[pulse_steps, :, np.arange(pairs)] = (dirs * mags).T
    c_w = _pulse_gain(_phase_deviations(evaluator, Xc, Xc, horizon, W), pulse_steps, mags, rho)
    if c_w <= 0.0:
        raise T.EdissFitError("disturbance pulses produced no measurable response")

    def holdout_violation(c0_try, cw_try):
        Xh = sampler(rng, holdout_pairs)
        Yh = sampler(rng, holdout_pairs)
        mags_h = rng.uniform(0.0, r_w, size=(horizon, holdout_pairs))
        dirs_h = rng.standard_normal((horizon, Xh.shape[0], holdout_pairs))
        dirs_h /= np.linalg.norm(dirs_h, axis=1, keepdims=True)
        Wh = dirs_h * mags_h[:, None, :]
        devh = _phase_deviations(evaluator, Xh, Yh, horizon, Wh)
        return _holdout_margins(devh, np.linalg.norm(Wh, axis=1), rho, c0_try, cw_try)

    factor, slack = holdout_violation(c0, c_w)
    if factor > 0.0:
        c0 *= factor * 1.01
        c_w *= factor * 1.01
        factor, slack = holdout_violation(c0, c_w)
        if factor > 0.0:
            raise T.EdissFitError(
                f"held-out trajectories violate the inflated envelope by {factor:.3e}"
            )
    return T.EdissFit(c0, c_w, rho, r_w, pairs, horizon, slack)


def both_fits(evaluator, sampler, seed, r_w, **sizes):
    """[(fit or error message, rng state after)] of the live fit and the oracle."""
    out = []
    for fit in (T.fit_ediss, _phase_by_phase_fit):
        rng = np.random.default_rng(seed)
        try:
            out.append((fit(evaluator, sampler, rng, r_w, **sizes), rng.bit_generator.state))
        except T.EdissFitError as exc:
            out.append((str(exc), None))
    return out


@pytest.mark.parametrize("N", [5, 10])
def test_fit_is_bit_identical_to_phase_by_phase_fit_on_pendulum(N, pend, pend_certs):
    # the CLI's problem at its default sizes, and at smaller ones
    if N == pend.N:
        qp, cfg, r_N = pend.qp, pend.cfg, pend_certs.r_N
        model, P = pend.model, pend.P
    else:
        setup = PendulumSetup(N)
        model, qp, cfg, P = setup.model, setup.qp, setup.cfg, setup.P
        r_N = T.compute_certificates(model, qp, cfg, setup.K, rng=np.random.default_rng(11),
                                     psi_samples=500).r_N
    evaluator = T.make_benchmark_evaluator(model, qp, cfg)

    def sampler(rng, count):
        return T.sample_gamma(qp, cfg, r_N, rng, count)

    r_w = 0.01 * r_N * T.spectral_norm(T.mat_inv_sqrt(P))
    for seed, sizes in ((0, {}), (1, {}), (2, dict(pairs=37, horizon=23, holdout_pairs=11))):
        (new, new_state), (old, old_state) = both_fits(evaluator, sampler, seed, r_w, **sizes)
        assert isinstance(new, T.EdissFit) and new == old
        assert new_state == old_state


def test_fit_is_bit_identical_to_phase_by_phase_fit_with_a_retry():
    widths = []
    evaluator = counting_evaluator(linear_map_evaluator([[0.0, 1.8], [0.45, 0.0]]), widths)
    (new, new_state), (old, old_state) = both_fits(
        evaluator, box_sampler(2), 1, 0.05, pairs=3, horizon=12, holdout_pairs=20)
    # the live fit, then the oracle; each retried its holdout in a call of its own
    assert widths == [52, 40, 6, 6, 40, 40]
    assert isinstance(new, T.EdissFit) and new == old
    assert new_state == old_state


def test_fit_matches_phase_by_phase_fit_on_random_instances(random_instance):
    # another plant can meet another BLAS kernel: OpenBLAS rounds some
    # small products (a one-row operand, k = 20) differently with the
    # batch's width and a column's place in it, so the last bits may move;
    # the draws, and so the rng stream and the outcome, may not
    rng = np.random.default_rng(80)
    for seed in range(16):
        model, qp, cfg, _ = random_instance(rng)
        scale = 10.0 ** rng.uniform(-2.0, 1.0)
        sizes = dict(pairs=int(rng.integers(2, 60)), horizon=int(rng.integers(4, 40)),
                     holdout_pairs=int(rng.integers(1, 40)))
        (new, new_state), (old, old_state) = both_fits(
            T.make_benchmark_evaluator(model, qp, cfg), box_sampler(model.n, scale),
            seed, 0.01 * scale, **sizes)
        assert new_state == old_state
        if isinstance(old, str):
            assert new == old
            continue
        for name in ("c0", "c_w", "rho"):
            assert getattr(new, name) == pytest.approx(getattr(old, name), rel=1e-12, abs=0.0)
        assert new.worst_slack == pytest.approx(old.worst_slack, rel=0.0, abs=1e-12)
        assert (new.r_w, new.pairs, new.horizon) == (old.r_w, old.pairs, old.horizon)


def test_fit_errors_match_phase_by_phase_fit():
    linear = linear_map_evaluator([[0.5]])

    def constant_sampler(rng_, count):
        return np.ones((1, count))

    def deaf(X0, horizon, disturbances=None, reduce=None):
        return linear(X0, horizon, None, reduce)

    cases = [
        (linear_map_evaluator([[1.5]]), box_sampler(1), "not incrementally contracting"),
        (linear, constant_sampler, "coincide at the start"),
        (deaf, box_sampler(1), "no measurable response"),
    ]
    for evaluator, sampler, shown in cases:
        (new, _), (old, _) = both_fits(evaluator, sampler, 61, 0.1,
                                       pairs=20, horizon=12, holdout_pairs=10)
        assert new == old and shown in new


def test_fit_keeps_no_state_history(pend, pend_certs, pend_sampler, pend_evaluator):
    # at the default sizes the one batch is 1,000 columns wide: its state
    # history alone, (61, 2, 1000) floats, would be 0.98 MB, and the one
    # disturbance array is 0.96 MB
    r_w = 0.01 * pend_certs.r_N * T.spectral_norm(T.mat_inv_sqrt(pend.P))
    tracemalloc.start()
    try:
        T.fit_ediss(pend_evaluator, pend_sampler, np.random.default_rng(7), r_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


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
    bad = T.PgmConfig(_Step(pend.qp.H, pend.cfg.alpha, 0.5 * pend.cfg.eta),
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


def test_evaluator_runs_one_state_as_one_column(pend, pend_bench, pend_evaluator):
    states = pend_evaluator(pend.x0, 4)
    assert states.shape == (5, 2, 1)
    assert states[:, :, 0].tobytes() == pend_bench.states[:5].tobytes()
    for X0 in (0.0, np.zeros(3), np.zeros((1, 2)), np.zeros((3, 2))):
        with pytest.raises(T.NumericsError, match="leading dimension"):
            pend_evaluator(X0, 2)
