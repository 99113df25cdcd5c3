"""Certified constants: hand-computed scalar cases, defining properties, and pins."""

import math

import numpy as np
import pytest

import tdmpc as T


def scalar_one_step_instance():
    """a = 0.5, b = q = r = 1, N = 1: every constant has a closed form."""
    model = T.LtiModel([[0.5]], [[1.0]])
    Q = np.array([[1.0]])
    R = np.array([[1.0]])
    P, K = T.solve_dare(model.A, model.B, Q, R)
    qp = T.build_condensed(model, Q, R, P, 1, T.BoxSet([-1.0], [1.0]))
    return model, qp, P[0, 0], K


def test_lipschitz_scalar_example():
    box = T.BoxSet([-1.0], [1.0])
    qp = T.CondensedQp(
        N=1, H=np.array([[4.0]]), G=np.array([[2.0]]), W=np.array([[2.0]]),
        S=np.array([[1.0]]), B_bar=np.array([[0.0]]), u_box=box, nu_box=box,
        Q=np.array([[1.0]]), R=np.array([[1.0]]), P=np.array([[1.0]]),
    )
    assert T.lipschitz_L(qp) == pytest.approx(0.5, abs=1e-14)


def test_lipschitz_bounds_minimizer_differences(pend, pend_certs):
    rng = np.random.default_rng(30)
    L = pend_certs.L
    Xa = T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, rng, 150)
    Xb = T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, rng, 150)
    Ma = T.solve_benchmark(pend.qp, pend.cfg, Xa)
    Mb = T.solve_benchmark(pend.qp, pend.cfg, Xb)
    lhs = np.linalg.norm(Ma - Mb, axis=0)
    rhs = L * np.linalg.norm(Xa - Xb, axis=0)
    assert np.all(lhs <= rhs * (1.0 + 1e-9) + 1e-12)


def test_decay_beta_unconstrained_like_cost():
    # A = 0 makes W = Q, so the decay factor collapses to its floor value.
    model = T.LtiModel(np.zeros((2, 2)), np.eye(2))
    P, K = T.solve_dare(model.A, model.B, np.eye(2), np.eye(2))
    qp = T.build_condensed(model, np.eye(2), np.eye(2), P, 3, T.BoxSet([-1.0, -1.0], [1.0, 1.0]))
    assert T.decay_beta(qp) == pytest.approx(1e-6, rel=1e-12)


def test_decay_beta_formula_and_range(pend):
    beta = T.decay_beta(pend.qp)
    lam_min, _ = T.weighted_extremes(pend.qp.Q, pend.qp.W)
    assert beta == pytest.approx(math.sqrt(max(1e-12, 1.0 - lam_min)), rel=1e-12)
    assert 0.0 < beta < 1.0


def test_psi_value_sandwich(pend, pend_certs):
    rng = np.random.default_rng(31)
    X = T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, rng, 100)
    psi = T.psi_value(pend.qp, pend.cfg, X)
    low = np.sqrt(np.einsum("ij,ik,kj->j", X, pend.P, X))
    high = np.sqrt(np.einsum("ij,ik,kj->j", X, pend.qp.W, X))
    assert np.all(psi >= low - 1e-9)
    assert np.all(psi <= high + 1e-9)


def test_psi_value_of_one_state_is_a_float_column(pend, pend_certs):
    X = T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, np.random.default_rng(35), 4)
    NU = T.solve_benchmark(pend.qp, pend.cfg, X)
    batch = T.psi_value(pend.qp, pend.cfg, X, NU)
    for j in range(X.shape[1]):
        one = T.psi_value(pend.qp, pend.cfg, X[:, j], NU[:, j])
        assert type(one) is float
        # a one-column batch runs the same products as one state
        column = T.psi_value(pend.qp, pend.cfg, X[:, j:j + 1], NU[:, j:j + 1])
        assert column.shape == (1,) and np.float64(one).tobytes() == column.tobytes()
        assert one == pytest.approx(batch[j], rel=1e-12)


def test_sample_gamma_stays_in_level_set(pend, pend_certs):
    rng = np.random.default_rng(32)
    X = T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, rng, 200)
    assert X.shape == (2, 200)
    psi = T.psi_value(pend.qp, pend.cfg, X)
    assert np.all(psi <= pend_certs.r_N * (1.0 + 1e-12))


def test_check_psi_decay_passes_and_detects_false_claim(pend, pend_certs):
    rng = np.random.default_rng(33)
    worst = T.check_psi_decay(
        pend.model, pend.qp, pend.cfg, pend_certs.beta, pend_certs.r_N, rng, samples=200
    )
    assert worst <= pend_certs.beta * (1.0 + 1e-9)
    with pytest.raises(T.CertificateError):
        T.check_psi_decay(
            pend.model, pend.qp, pend.cfg, 0.5 * pend_certs.beta, pend_certs.r_N,
            np.random.default_rng(34), samples=200,
        )


def test_terminal_level_scalar_cases():
    box1 = T.BoxSet([-1.0], [1.0])
    # P = 1, K = 1: the ellipsoid radius equals the input bound
    assert T.terminal_level_c([[1.0]], [[1.0]], box1) == pytest.approx(1.0, rel=1e-12)
    # asymmetric bounds bind at the smaller magnitude
    assert T.terminal_level_c([[1.0]], [[1.0]], T.BoxSet([-0.5], [2.0])) == pytest.approx(
        0.25, rel=1e-12
    )
    # zero gain never saturates: capped level
    assert T.terminal_level_c([[1.0]], [[0.0]], box1) == pytest.approx(1e12, rel=1e-12)
    # doubling the box quadruples the level
    c1 = T.terminal_level_c([[2.0]], [[0.7]], box1)
    c2 = T.terminal_level_c([[2.0]], [[0.7]], T.BoxSet([-2.0], [2.0]))
    assert c2 == pytest.approx(4.0 * c1, rel=1e-12)


def test_terminal_level_two_input_rows():
    box = T.BoxSet([-1.0, -2.0], [1.0, 3.0])  # bound magnitudes 1 and 2
    # a zero row never binds (and divides by nothing): the other row's 2^2 / 2^2
    assert T.terminal_level_c([[1.0]], [[0.0], [2.0]], box) == 1.0
    assert T.terminal_level_c([[1.0]], [[2.0], [0.0]], box) == 0.25
    # of two binding rows the smaller quotient wins, whichever row it is
    assert T.terminal_level_c([[1.0]], [[1.0], [1.0]], box) == 1.0   # 1 / 1 against 4 / 1
    assert T.terminal_level_c([[1.0]], [[1.0], [4.0]], box) == 0.25  # 1 / 1 against 4 / 16


def test_region_radius_composition(pend, pend_certs):
    c, d, r_N = T.region_radius(pend.qp, pend.K)
    assert c == pytest.approx(pend_certs.c, rel=1e-12)
    lamQ = T.sym_eig(pend.Q).min
    lamP = T.sym_eig(pend.P).max
    assert d == pytest.approx(c * lamQ / lamP, rel=1e-12)
    assert r_N == pytest.approx(math.sqrt(pend.N * d + c), rel=1e-12)


def test_interconnection_scalar_closed_forms():
    model, qp, p, K = scalar_one_step_instance()
    H = qp.H[0, 0]
    G = qp.G[0, 0]
    W = qp.W[0, 0]
    omega, sigma, kappa = T.interconnection_constants(qp, model)
    assert omega == pytest.approx(1.0 + abs(G) / H, rel=1e-12)
    assert sigma == pytest.approx(math.sqrt(W), rel=1e-12)
    lam_GB = G / H
    lam_WP = W / p
    kappa_ref = abs(G * (0.5 - 1.0)) / (H * math.sqrt(p)) + math.sqrt(
        lam_GB * (lam_WP - 1.0)
    ) / math.sqrt(H)
    assert kappa == pytest.approx(kappa_ref, rel=1e-12)


def test_interconnection_decoupled_case():
    box = T.BoxSet([-1.0], [1.0])
    model = T.LtiModel([[0.5]], [[1.0]])
    qp = T.CondensedQp(
        N=1, H=np.array([[1.0]]), G=np.array([[0.0]]), W=np.array([[2.0]]),
        S=np.array([[1.0]]), B_bar=np.array([[0.0]]), u_box=box, nu_box=box,
        Q=np.array([[1.0]]), R=np.array([[1.0]]), P=np.array([[1.0]]),
    )
    omega, sigma, kappa = T.interconnection_constants(qp, model)
    assert omega == pytest.approx(1.0, abs=1e-14)
    assert sigma == pytest.approx(0.0, abs=1e-14)
    assert kappa == pytest.approx(0.0, abs=1e-14)


def test_interconnection_rejects_inconsistent_curvature():
    box = T.BoxSet([-1.0], [1.0])
    model = T.LtiModel([[0.5]], [[1.0]])
    qp = T.CondensedQp(
        N=1, H=np.array([[1.0]]), G=np.array([[0.0]]), W=np.array([[0.5]]),
        S=np.array([[1.0]]), B_bar=np.array([[0.0]]), u_box=box, nu_box=box,
        Q=np.array([[1.0]]), R=np.array([[1.0]]), P=np.array([[1.0]]),
    )
    with pytest.raises(T.CertificateError):
        T.interconnection_constants(qp, model)


def test_ell_star_example_and_defining_property():
    raw, ell = T.ell_star(beta=0.9, kappa=1.0, sigma=1.0, omega=2.0, eta=0.5)
    assert raw == pytest.approx(3.5849625007211565, rel=1e-14)
    assert ell == 4
    # raw satisfies eta^raw * (sigma*kappa + omega*(1-beta)) = 1 - beta
    assert 0.5 ** raw * (1.0 * 1.0 + 2.0 * 0.1) == pytest.approx(0.1, rel=1e-12)


def test_ell_star_edge_cases():
    raw, ell = T.ell_star(beta=0.5, kappa=0.0, sigma=0.0, omega=1.0, eta=0.0)
    assert raw == 0.0 and ell == 1
    # already-contracting constants clamp to a single iteration
    raw, ell = T.ell_star(beta=0.5, kappa=0.1, sigma=0.1, omega=0.9, eta=0.5)
    assert raw < 0.0 and ell == 1
    with pytest.raises(T.CertificateError):
        T.ell_star(beta=0.5, kappa=1.0, sigma=1.0, omega=1.0, eta=1.0)


def test_tau_star_balances_both_branches():
    beta, kappa, sigma, omega = 0.5, 1.0, 1.0, 1.0
    eta, ell = 0.1, 1
    tau, eps = T.tau_star(beta, kappa, sigma, omega, eta, ell)
    roots = np.roots([kappa * eta, beta - omega * eta, -sigma])
    tau_ref = float(roots[roots > 0.0][0])
    assert tau == pytest.approx(tau_ref, rel=1e-12)
    assert tau == pytest.approx(1.7416573867739413, rel=1e-14)
    assert eps == pytest.approx(0.6741657386773941, rel=1e-14)
    left = beta + tau * kappa * eta
    right = (sigma + tau * omega * eta) / tau
    assert left == pytest.approx(right, abs=1e-10)
    assert eps == pytest.approx(left, rel=1e-12)


def test_tau_star_minimizes_the_rate():
    rng = np.random.default_rng(35)
    beta, kappa, sigma, omega = 0.5, 1.0, 1.0, 1.0
    tau, eps = T.tau_star(beta, kappa, sigma, omega, 0.1, 1)
    for _ in range(100):
        other = float(rng.uniform(0.01, 50.0))
        assert eps <= T.epsilon_rate(beta, kappa, sigma, omega, 0.1, 1, other) + 1e-12


def test_tau_star_degenerate_branches():
    # kappa = 0 with beta > omega * eta^ell: finite balancing weight
    tau, eps = T.tau_star(beta=0.9, kappa=0.0, sigma=1.0, omega=1.0, eta=0.5, ell=1)
    assert tau == pytest.approx(2.5, rel=1e-12)
    assert eps == pytest.approx(0.9, rel=1e-12)
    # kappa = 0 with beta < omega * eta^ell: the optimizer branch dominates
    tau, eps = T.tau_star(beta=0.3, kappa=0.0, sigma=1.0, omega=1.0, eta=0.5, ell=1)
    assert math.isinf(tau)
    assert eps == pytest.approx(0.5, rel=1e-12)


def test_stage_cost_lipschitz_corner_and_combination(pend, pend_certs, pend_fit):
    # two-input-slot box [-1, 1]^2: the corner norm is sqrt(2)
    box = T.BoxSet([-1.0], [1.0])
    qp = T.CondensedQp(
        N=2, H=np.eye(2), G=np.zeros((2, 1)), W=np.array([[1.0]]),
        S=np.array([[1.0, 0.0]]), B_bar=np.array([[0.0]]),
        u_box=box, nu_box=box.replicate(2),
        Q=np.array([[1.0]]), R=np.array([[1.0]]), P=np.array([[1.0]]),
    )
    M_x, M_u, M_bar = T.stage_cost_lipschitz(qp, r_N=1.0)
    assert M_u == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert M_x == pytest.approx(2.0 * 1.0 * 1.0, rel=1e-12)
    assert M_bar is None
    # a zero disturbance gain collapses the combined constant onto M_u
    fit0 = T.EdissFit(c0=1.0, c_w=0.0, rho=0.5, r_w=1.0, pairs=1, horizon=1, worst_slack=0.0)
    assert T.stage_cost_lipschitz(qp, 1.0, fit0)[2] == pytest.approx(M_u, rel=1e-12)
    # with a real fit the combination dominates the input part
    M_x, M_u, M_bar = T.stage_cost_lipschitz(pend.qp, pend_certs.r_N, pend_fit)
    assert M_bar is not None and M_bar >= M_u


def test_certificates_frozen_pendulum_values(pend_certs):
    # regression pins for the calibrated pendulum instance (horizon N = 5)
    pins = {
        "alpha": 0.0020994663774409365,
        "eta": 0.9858108121192326,
        "L": 12.979472694945743,
        "beta": 0.9991399187796159,
        "c": 7.970697153971477,
        "d": 0.625558574825326,
        "r_N": 3.331439632966221,
        "omega": 13.554622407905939,
        "sigma": 23.33642798392487,
        "kappa": 10.449103758107482,
        "ell_star_raw": 878.5406322320737,
        "M_x": 81.26419411641747,
        "M_u": 4.47213595499958,
    }
    for name, value in pins.items():
        assert getattr(pend_certs, name) == pytest.approx(value, rel=1e-9), name
    assert pend_certs.ell_star == 879
    assert pend_certs.N == 5
    assert pend_certs.psi_decay_worst <= pend_certs.beta * (1.0 + 1e-9)


def test_certificates_report_lines(pend, pend_certs, pend_fit):
    lines = pend_certs.to_lines()
    assert any(ln == "M_bar = pending probe" for ln in lines)
    assert any(ln.startswith("eta = 0.98581") for ln in lines)
    with_fit = T.compute_certificates(
        pend.model, pend.qp, pend.cfg, pend.K, rng=np.random.default_rng(0),
        psi_samples=50, ediss=pend_fit,
    )
    lines = with_fit.to_lines()
    assert any(ln.startswith("M_bar = ") and "pending" not in ln for ln in lines)
    assert any(ln.startswith("ediss_rho = ") for ln in lines)
