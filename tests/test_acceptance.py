"""Acceptance gate: every verification criterion at its stated tolerance.

One test per criterion, in order, each printing a single PASS line with the
measured quantities.  Two window checks on the calibrated benchmark
reproduction (the bound-complexity ratio and the realized-gap ratio between
iteration budgets 6 and 40) do not hold for this problem data: at budget 6
the combined system-optimizer loop is locally unstable and wanders along a
bounded orbit, which inflates both ratios far beyond the quoted windows.
Those two tests are implemented faithfully and left failing; their assertion
messages carry the measured values.
"""

import time

import numpy as np
import pytest

import tdmpc as T
import tdmpc.cli as cli
from conftest import grad, rollout_cost


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        d = dict(zip(header, cells))
        rows[int(d["ell"])] = {
            k: (int(v) if k in ("ell", "stable_flag") else float(v))
            for k, v in d.items()
        }
    return rows


@pytest.fixture(scope="module")
def sweep_rows(pend, pend_fit, tmp_path_factory):
    """Full sweep over 30 log-spaced budgets in 1..5000 plus {6, 40}, T = 30."""
    out = tmp_path_factory.mktemp("acceptance_sweep")
    conf = cli.pendulum_preset()
    conf.update(
        N=5, T=30, repeats=0, seed=0, psi_samples=500,
        ell_list=sorted(set(cli.default_ell_list()) | {6, 40}),
    )
    conf = cli.checked(conf, cli.CONFIG_KEYS)
    # chain from the session fit, stamped with this problem's fingerprint,
    # so the sweep reuses it instead of refitting
    model, qp, _, _ = cli.build_setup(conf)
    lines = pend_fit.to_lines() + [f"fingerprint = {cli.fit_fingerprint(conf, model, qp)}"]
    (out / "ediss_fit.txt").write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    code = cli.cmd_sweep(conf, str(out))
    elapsed = time.perf_counter() - t0
    assert code == 0
    return _read_rows(out / "sweep.csv"), elapsed, out


def test_condensed_cost_and_gradient_oracles(random_instance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 1e-6
    for _ in range(100):
        model, qp, cfg, K = random_instance(rng, eta_cap=1.0)
        for _ in range(20):
            x = rng.standard_normal(model.n)
            nu = qp.nu_box.sample(rng)
            c = T.cost(qp, x, nu)
            ref = rollout_cost(model, qp.Q, qp.R, qp.P, x, nu)
            assert abs(c - ref) <= 1e-9 * max(1.0, abs(ref))
        x = rng.standard_normal(model.n)
        nu = qp.nu_box.sample(rng)
        g = grad(qp, x, nu)
        for i in range(min(nu.size, 6)):
            e = np.zeros(nu.size)
            e[i] = h
            fd = (T.cost(qp, x, nu + e) - T.cost(qp, x, nu - e)) / (2.0 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        "PASS: condensed cost matches the rollout oracle (1e-9 relative) and "
        f"gradients match central differences (1e-6) on 100 random instances "
        f"in {elapsed:.2f}s"
    )


def test_optimizer_contraction_audit(pend, pend_sampler, random_instance):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = T.audit_contraction(
        pend.qp, pend.cfg, pend_sampler, rng, samples=1000, ell_max=50
    )
    assert worst <= 1.0 + 1e-9
    for _ in range(20):
        model, qp, cfg, K = random_instance(rng, n_max=3, eta_cap=0.99)
        c, d, r_N = T.region_radius(qp, K)
        sampler = lambda r, count: T.sample_gamma(qp, cfg, r_N, r, count)
        w = T.audit_contraction(qp, cfg, sampler, rng, samples=100, ell_max=20)
        assert w <= 1.0 + 1e-9
        worst = max(worst, w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        "PASS: contraction ratio <= 1 + 1e-9 on 1000 pendulum samples and 20 "
        f"random instances (worst {worst:.12f}) in {elapsed:.1f}s"
    )


def test_minimizer_lipschitz_on_region(pend, pend_certs, random_instance):
    rng = np.random.default_rng(102)
    instances = [(pend.qp, pend.cfg, pend_certs.L, pend_certs.r_N)]
    for _ in range(3):
        model, qp, cfg, K = random_instance(rng, n_max=3, eta_cap=0.99)
        c, d, r_N = T.region_radius(qp, K)
        instances.append((qp, cfg, T.lipschitz_L(qp), r_N))
    for qp, cfg, L, r_N in instances:
        Xa = T.sample_gamma(qp, cfg, r_N, rng, 500)
        Xb = T.sample_gamma(qp, cfg, r_N, rng, 500)
        Ma = T.solve_benchmark(qp, cfg, Xa)
        Mb = T.solve_benchmark(qp, cfg, Xb)
        lhs = np.linalg.norm(Ma - Mb, axis=0)
        rhs = L * np.linalg.norm(Xa - Xb, axis=0)
        assert not np.any(lhs > rhs * (1.0 + 1e-9) + 1e-12)
    print(
        "PASS: minimizer Lipschitz bound holds on 500 region pairs for the "
        "pendulum and 3 random instances (zero violations)"
    )


def test_value_decay_certificate(pend, pend_certs):
    # the session certificates already audited 500 region samples at build
    # time; repeat with a fresh draw
    assert pend_certs.psi_decay_worst <= pend_certs.beta * (1.0 + 1e-9)
    worst = T.check_psi_decay(
        pend.model, pend.qp, pend.cfg, pend_certs.beta, pend_certs.r_N,
        np.random.default_rng(103), samples=500,
    )
    assert worst <= pend_certs.beta * (1.0 + 1e-9)
    print(
        f"PASS: value decay holds on 500 region samples (worst ratio "
        f"{worst:.12f} vs beta = {pend_certs.beta:.12f})"
    )


def test_cumulative_chain_bound_on_runs(pend, pend_certs):
    violations = []
    for ell in (1, 2, 3, 6, 10, 40, 100):
        run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, ell, pend.T,
                          repeats=0)
        deltas, S_T, S_T2 = T.path_vectors(run)
        rv = T.eta_tilde_mpc(pend.cfg.eta, run.ell_schedule)
        chain = T.chain_bound(rv, pend_certs.L, deltas, run.delta_u0_norm)
        if float(np.sum(run.d_norms)) > chain * (1.0 + 1e-9):
            violations.append(ell)
    assert not violations
    print(
        "PASS: accumulated optimizer error stays below the certified chain "
        "for budgets {1, 2, 3, 6, 10, 40, 100} (zero violations)"
    )


def test_gap_bound_soundness_over_sweep(sweep_rows):
    rows, _, _ = sweep_rows
    stable = 0
    for ell, row in rows.items():
        if row["stable_flag"] == 1:
            bound = row["bound_thm8"]
            assert row["R_T_empirical"] <= bound + 1e-9 * max(1.0, abs(bound)), ell
            stable += 1
    assert stable >= 1
    print(
        f"PASS: realized gap below the certified bound on all {stable} stable "
        f"swept budgets (of {len(rows)})"
    )


def test_gap_vanishes_at_high_accuracy(pend, pend_bench):
    ell = 1650
    assert pend.cfg.eta ** ell <= 1e-10
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, ell, pend.T,
                      repeats=0)
    R_T = T.empirical_gap(run, pend_bench, pend.Q, pend.R, pend.P)
    J_bench = T.cost_JT(pend_bench, pend.Q, pend.R, pend.P)
    assert abs(R_T) <= 1e-6 * (1.0 + J_bench)
    print(
        f"PASS: |R_T| = {abs(R_T):.3e} <= 1e-6 * (1 + J_T) once eta^ell <= "
        f"1e-10 (budget {ell})"
    )


def test_incremental_stability_probe(pend_fit, pend_evaluator, pend_sampler):
    assert pend_fit.rho < 1.0
    assert pend_fit.worst_slack >= 0.0
    # independent holdout: fresh pairs under full random disturbance sequences
    rng = np.random.default_rng(104)
    pairs, horizon = 100, 60
    Xa = pend_sampler(rng, pairs)
    Xb = pend_sampler(rng, pairs)
    mags = rng.uniform(0.0, pend_fit.r_w, size=(horizon, pairs))
    dirs = rng.standard_normal((horizon, Xa.shape[0], pairs))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    Wd = dirs * mags[:, None, :]
    dev = np.linalg.norm(pend_evaluator(Xa, horizon) - pend_evaluator(Xb, horizon, Wd),
                         axis=1)
    wnorms = np.linalg.norm(Wd, axis=1)
    d0 = dev[0]
    violations = 0
    for k in range(horizon + 1):
        conv = np.zeros(pairs)
        for i in range(k):
            conv += pend_fit.rho ** (k - i - 1) * wnorms[i]
        rhs = pend_fit.c0 * pend_fit.rho ** k * d0 + pend_fit.c_w * conv
        violations += int(np.sum(dev[k] > rhs * (1.0 + 1e-9)))
    assert violations == 0
    assert pend_fit.fit_seconds < 120.0
    print(
        f"PASS: incremental stability fit rho = {pend_fit.rho:.6f} < 1; "
        f"100 fresh disturbed holdout pairs show zero envelope violations "
        f"(fit took {pend_fit.fit_seconds:.1f}s)"
    )


def test_lyapunov_window_certificate(pend_evaluator, pend_sampler):
    report = T.lyapunov_finite_horizon(
        pend_evaluator, pend_sampler, np.random.default_rng(105), N_V=12,
        samples=200,
    )
    assert report.passed
    assert report.lower_margin >= 0.0
    assert report.upper_margin >= 0.0
    assert report.decrease_margin >= 0.0
    print(
        "PASS: finite-window Lyapunov sandwich and decrease hold on 200 states "
        f"(margins {report.lower_margin:.3e} / {report.upper_margin:.3e} / "
        f"{report.decrease_margin:.3e})"
    )


def test_calibrated_contraction_windows(pend, sweep_rows, tmp_path):
    rows, elapsed, out = sweep_rows
    assert elapsed < 300.0
    conf = cli.checked(cli.pendulum_preset(), cli.CONFIG_KEYS)
    assert cli.cmd_calibrate_n(conf, str(tmp_path)) == 0
    assert "chosen_N = 5" in (tmp_path / "calibration.txt").read_text()
    eta = pend.cfg.eta
    assert 0.91 <= eta ** 6 <= 0.93
    assert 0.50 <= eta ** 40 <= 0.62
    print(
        f"PASS: calibration picks N = 5 with eta^6 = {eta ** 6:.4f} in "
        f"[0.91, 0.93] and eta^40 = {eta ** 40:.4f} in [0.50, 0.62]; "
        f"full sweep completed in {elapsed:.0f}s"
    )


def test_bound_complexity_ratio_window(sweep_rows):
    rows, _, _ = sweep_rows
    r6, r40 = rows[6], rows[40]
    ratio = r6["complexity_cor1"] / r40["complexity_cor1"]
    assert 7.0 <= ratio <= 12.0, (
        f"bound-complexity ratio between budgets 6 and 40 is {ratio:.2f}, "
        f"outside [7, 12]: at budget 6 the loop is locally unstable and wanders "
        f"along a bounded orbit, inflating its pathlength "
        f"(S_T = {r6['S_T']:.2f} vs {r40['S_T']:.2f} at budget 40)"
    )
    print(
        f"PASS: bound-complexity ratio between budgets 6 and 40 is "
        f"{ratio:.2f}, inside [7, 12]"
    )


def test_realized_gap_ratio_window(sweep_rows):
    rows, _, _ = sweep_rows
    r6, r40 = rows[6], rows[40]
    ratio = r6["R_T_empirical"] / r40["R_T_empirical"]
    assert 6.0 <= ratio <= 11.0, (
        f"realized-gap ratio between budgets 6 and 40 is {ratio:.2f}, outside "
        f"[6, 11]: the orbit at budget 6 accumulates stage cost far beyond a "
        f"converging trajectory (R_T = {r6['R_T_empirical']:.2f} vs "
        f"{r40['R_T_empirical']:.4f})"
    )
    print(
        f"PASS: realized-gap ratio between budgets 6 and 40 is {ratio:.2f}, "
        f"inside [6, 11]"
    )


def test_iteration_threshold_magnitude(pend_certs):
    ref = 849.0
    ratio = pend_certs.ell_star / ref
    assert 1.0 / 3.0 <= ratio <= 3.0
    print(
        f"PASS: certified iteration threshold ell* = {pend_certs.ell_star} "
        f"within a factor 3 of the reference value 849"
    )


def test_settled_tail_contributes_nothing(pend):
    Tlong, ell = 170, 40
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, ell, Tlong,
                      repeats=0)
    assert run.stable
    deltas, S_T, S_T2 = T.path_vectors(run)
    thresh = 1e-10 * float(np.max(deltas))
    moving = np.nonzero(deltas > thresh)[0]
    jbar = int(moving.max()) + 1  # every step from here on is settled
    assert jbar < Tlong - 1
    rv = T.eta_tilde_mpc(pend.cfg.eta, run.ell_schedule)
    w = deltas[:Tlong - 1] * rv.tilde[1:]
    total = float(np.sum(w))
    tail = float(np.sum(w[jbar:]))
    assert tail <= 1e-8 * total
    # once the remaining rates are exactly zero the chain inner product
    # collapses onto its leading partial sum, bit for bit
    rates = np.full(Tlong, pend.cfg.eta ** ell)
    rates[jbar + 1:] = 0.0
    rv0 = T.eta_tilde(rates)
    full = 0.0
    for j in range(Tlong - 1):
        full += deltas[j] * rv0.tilde[j + 1]
    partial = 0.0
    for j in range(jbar):
        partial += deltas[j] * rv0.tilde[j + 1]
    assert full == partial
    print(
        f"PASS: settled tail (steps {jbar}..{Tlong}) contributes "
        f"{tail / total:.2e} <= 1e-8 of the chain, and zeroed rates truncate "
        f"the chain exactly"
    )


def test_sweep_reproducibility(tmp_path):
    conf = cli.pendulum_preset()
    conf.update(
        N=5, T=6, repeats=0, seed=0, psi_samples=50, ell_list=[3, 7],
        ediss_pairs=20, ediss_horizon=20, ediss_holdout=10,
    )
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    assert cli.cmd_sweep(cli.checked(conf, cli.CONFIG_KEYS), str(d1)) == 0
    assert cli.cmd_sweep(cli.checked(conf, cli.CONFIG_KEYS), str(d2)) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "ediss_fit.txt").read_bytes() == (d2 / "ediss_fit.txt").read_bytes()
    print(
        "PASS: repeated sweep with a fixed seed produces byte-identical "
        "sweep and fit files"
    )
