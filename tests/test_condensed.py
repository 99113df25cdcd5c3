"""Condensed finite-horizon QP: cost/gradient against rollout oracles."""

import numpy as np
import pytest

import tdmpc as T
from conftest import grad, rollout_cost


@pytest.fixture(scope="module")
def small():
    model = T.LtiModel([[0.8, 0.1], [0.0, 0.7]], [[0.0], [1.0]])
    Q = np.eye(2)
    R = np.eye(1)
    P, K = T.solve_dare(model.A, model.B, Q, R)
    box = T.BoxSet([-1.0], [1.0])
    qp = T.build_condensed(model, Q, R, P, 4, box)
    return model, Q, R, P, qp


def test_shapes_and_symmetry(small):
    model, Q, R, P, qp = small
    N, n, m = 4, 2, 1
    assert qp.H.shape == (N * m, N * m)
    assert qp.G.shape == (N * m, n)
    assert qp.W.shape == (n, n)
    assert qp.S.shape == (m, N * m)
    assert np.allclose(qp.S, [[1.0, 0.0, 0.0, 0.0]])
    assert np.allclose(qp.H, qp.H.T)
    assert np.allclose(qp.W, qp.W.T)
    assert np.allclose(qp.B_bar, model.B @ qp.S)
    assert qp.nu_box.dim == N * m


def test_horizon_one_closed_forms():
    model = T.LtiModel([[0.5]], [[1.0]])
    Q = np.array([[1.0]])
    R = np.array([[1.0]])
    P, _ = T.solve_dare(model.A, model.B, Q, R)
    qp = T.build_condensed(model, Q, R, P, 1, T.BoxSet([-1.0], [1.0]))
    p = P[0, 0]
    assert qp.H[0, 0] == pytest.approx(p + 1.0, rel=1e-12)
    assert qp.G[0, 0] == pytest.approx(0.5 * p, rel=1e-12)
    assert qp.W[0, 0] == pytest.approx(1.0 + 0.25 * p, rel=1e-12)


def test_stacked_cost_matches_rollout(small, random_instance):
    model, Q, R, P, qp = small
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = rng.standard_normal(2)
        nu = rng.uniform(-1.0, 1.0, 4)
        c = T.cost(qp, x, nu)
        ref = rollout_cost(model, Q, R, P, x, nu)
        assert c == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # and across random instances
    for _ in range(10):
        model, qp, cfg, K = random_instance(rng)
        for _ in range(10):
            x = rng.standard_normal(model.n)
            nu = qp.nu_box.sample(rng)
            c = T.cost(qp, x, nu)
            ref = rollout_cost(model, qp.Q, qp.R, qp.P, x, nu)
            assert c == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_cost_batched_matches_single(small):
    model, Q, R, P, qp = small
    rng = np.random.default_rng(11)
    X = rng.standard_normal((2, 7))
    V = rng.uniform(-1.0, 1.0, (4, 7))
    batch = T.cost(qp, X, V)
    assert batch.shape == (7,)
    for j in range(7):
        assert batch[j] == pytest.approx(T.cost(qp, X[:, j], V[:, j]), rel=1e-12)


def test_gradient_matches_central_differences(small):
    model, Q, R, P, qp = small
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        x = rng.standard_normal(2)
        nu = rng.uniform(-1.0, 1.0, 4)
        g = grad(qp, x, nu)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (T.cost(qp, x, nu + e) - T.cost(qp, x, nu - e)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_gradient_vanishes_at_unconstrained_minimizer(small):
    model, Q, R, P, qp = small
    x = np.array([0.3, -0.2])
    nu = -np.linalg.solve(qp.H, qp.G @ x)
    assert np.linalg.norm(grad(qp, x, nu)) <= 1e-10


def test_stacked_hessian_block_psd(small):
    model, Q, R, P, qp = small
    M = np.block([[qp.W, qp.G.T], [qp.G, qp.H]])  # form of (x, nu) -> J_N
    w = np.linalg.eigvalsh(M)
    assert w.min() >= -1e-9 * max(1.0, w.max())


def test_value_sandwiched_between_P_and_W_norms(small):
    # min over nu of the condensed cost lies between the P- and W-weighted
    # squared norms of the state; checked at the unconstrained minimizer
    # projected into the box via an actual solve.
    model, Q, R, P, qp = small
    cfg = T.pgm_config(qp)
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = 0.5 * rng.standard_normal(2)
        mu = T.solve_benchmark(qp, cfg, x)
        val = T.cost(qp, x, mu)
        assert val >= float(x @ P @ x) - 1e-9
        assert val <= float(x @ qp.W @ x) + 1e-9


def test_build_rejects_bad_inputs(small):
    model, Q, R, P, qp = small
    box = T.BoxSet([-1.0], [1.0])
    with pytest.raises(T.NumericsError):
        T.build_condensed(model, Q, R, P, 0, box)
    with pytest.raises(T.NumericsError):
        T.build_condensed(model, np.zeros((2, 2)), R, P, 3, box)
    with pytest.raises(T.NumericsError):
        T.build_condensed(model, Q, np.zeros((1, 1)), P, 3, box)
    with pytest.raises(T.NumericsError):
        T.build_condensed(model, Q, R, P, 3, T.BoxSet([-1.0, -1.0], [1.0, 1.0]))


@pytest.mark.filterwarnings("error")
def test_build_names_overflowing_prediction_matrices():
    # A^N overflows from N = 309; below that only the products H, G and W do
    model = T.LtiModel([[10.0]], [[1.0]])
    P, _ = T.solve_dare(model.A, model.B, np.eye(1), np.eye(1))
    box = T.BoxSet([-1.0], [1.0])
    for N, names in ((400, "F, L, H, G, W"), (200, "H, G, W")):
        with pytest.raises(T.NumericsError, match=f"condensing overflows at horizon {N}: "
                                                  f"{names} contain non-finite entries"):
            T.build_condensed(model, np.eye(1), np.eye(1), P, N, box)
    # at N = 100 H is finite, with entries near 1e200 whose squares overflow,
    # and too ill-conditioned for its positive definiteness to be told
    with pytest.raises(T.NumericsError, match="H is not positive definite to working precision"):
        T.build_condensed(model, np.eye(1), np.eye(1), P, 100, box)
