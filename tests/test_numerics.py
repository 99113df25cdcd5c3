"""Linear-algebra kernel checks against closed forms and series oracles."""

import re

import numpy as np
import pytest

import tdmpc as T


def zoh_series_oracle(A_c, B_c, T_s, terms=40):
    """Plain truncated exponential series on the augmented block matrix."""
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    n, m = A_c.shape[0], B_c.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A_c
    M[:n, n:] = B_c
    E = np.eye(n + m)
    term = np.eye(n + m)
    for k in range(1, terms):
        term = term @ (M * T_s) / k
        E += term
    return E[:n, :n], E[:n, n:]


# --- symmetric eigendecomposition ---


def test_sym_eig_2x2_characteristic_roots():
    e = T.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)
    assert e.min == pytest.approx(1.0, abs=1e-12)
    assert e.max == pytest.approx(3.0, abs=1e-12)


def test_sym_eig_identity_and_diagonal():
    e = T.sym_eig(np.eye(3))
    assert np.allclose(e.eigenvalues, np.ones(3))
    e = T.sym_eig(np.diag([5.0, -1.0, 2.0]))
    assert np.allclose(e.eigenvalues, [-1.0, 2.0, 5.0])


def test_sym_eig_reconstruction_orthonormality_ordering():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        S = rng.standard_normal((n, n))
        S = S + S.T
        e = T.sym_eig(S)
        V, w = e.eigenvectors, e.eigenvalues
        scale = max(1.0, np.linalg.norm(S))
        assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10
        assert np.linalg.norm((V * w) @ V.T - S) <= 1e-10 * scale
        assert np.all(np.diff(w) >= -1e-12 * scale)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(T.NumericsError):
        T.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- norms, square roots ---


def test_spectral_norm_and_radius():
    X = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert T.spectral_norm(X) == pytest.approx(4.0, abs=1e-12)
    assert T.spectral_radius(X) == pytest.approx(4.0, abs=1e-12)
    N = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert T.spectral_norm(N) == pytest.approx(2.0, abs=1e-12)
    assert T.spectral_radius(N) == pytest.approx(0.0, abs=1e-12)


def test_mat_sqrt_and_inverse_sqrt():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    S = M.T @ M + 0.5 * np.eye(4)
    root = T.mat_sqrt(S)
    inv_root = T.mat_inv_sqrt(S)
    assert np.linalg.norm(root @ root - S) <= 1e-10 * np.linalg.norm(S)
    assert np.linalg.norm(root @ inv_root - np.eye(4)) <= 1e-10


def test_mat_sqrt_rejects_indefinite():
    with pytest.raises(T.NumericsError):
        T.mat_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(T.NumericsError):
        T.mat_inv_sqrt(np.diag([1.0, 0.0]))


def test_spd_check_names_conditioning_below_rounding_level():
    # a least eigenvalue within dim eps of the largest says nothing about
    # its sign: the message names conditioning, not indefiniteness
    for S, shown in ((np.diag([1e18, -12.0]), "-1.200e+01"), (np.diag([1.0, 0.0]), "0.000e+00")):
        with pytest.raises(T.NumericsError, match=f"not positive definite to working precision: "
                           f"min eigenvalue {re.escape(shown)} is below rounding level .* ill-conditioned"):
            T.mat_sqrt(S, "H")
    for S in (np.diag([2.0, -0.5]), np.zeros((2, 2))):
        with pytest.raises(T.NumericsError, match=r"^H is not positive definite: min eigenvalue "
                           r"\S+$"):
            T.mat_sqrt(S, "H")
    assert np.array_equal(T.mat_sqrt(np.diag([1.0, 1e-20])), np.diag([1.0, 1e-10]))


def test_weighted_extremes_diagonal_example():
    lo, hi = T.weighted_extremes(np.diag([2.0, 8.0]), np.diag([1.0, 4.0]))
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)


def test_weighted_extremes_generalized_eigenvalues():
    rng = np.random.default_rng(2)
    Ms = rng.standard_normal((3, 3))
    Mm = rng.standard_normal((3, 3))
    S = Ms.T @ Ms + 0.3 * np.eye(3)
    M = Mm.T @ Mm + 0.3 * np.eye(3)
    lo, hi = T.weighted_extremes(S, M)
    gen = np.sort(np.linalg.eigvals(np.linalg.solve(M, S)).real)
    assert lo == pytest.approx(gen[0], rel=1e-9)
    assert hi == pytest.approx(gen[-1], rel=1e-9)


def test_weighted_extremes_names_offending_matrix():
    with pytest.raises(T.NumericsError, match="Qbad"):
        T.weighted_extremes(np.diag([1.0, -1.0]), np.eye(2), "Qbad", "Wgood")


# --- Riccati solve ---


def test_dare_scalar_closed_form():
    # a = 0.5, b = q = r = 1: the fixed point satisfies p^2 - 0.25 p - 1 = 0.
    p_exact = (0.25 + np.sqrt(0.0625 + 4.0)) / 2.0
    P, K = T.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])
    assert P[0, 0] == pytest.approx(p_exact, abs=1e-9)
    assert K[0, 0] == pytest.approx(P[0, 0] * 0.5 / (1.0 + P[0, 0]), abs=1e-9)


def test_dare_zero_dynamics():
    P, K = T.solve_dare(np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2))
    assert np.allclose(P, np.eye(2), atol=1e-10)
    assert np.allclose(K, np.zeros((2, 2)), atol=1e-10)


def test_dare_fixed_point_residual_and_stability():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(max(abs(np.linalg.eigvals(A))), 1e-9)
        B = rng.standard_normal((n, m))
        Mq = rng.standard_normal((n, n))
        Q = Mq.T @ Mq + 0.2 * np.eye(n)
        R = np.eye(m)
        P, K = T.solve_dare(A, B, Q, R)
        Acl = A - B @ K
        res = Q + K.T @ R @ K + Acl.T @ P @ Acl - P
        assert np.linalg.norm(res) <= 1e-9 * max(1.0, np.linalg.norm(P))
        assert T.spectral_radius(Acl) < 1.0


def _fixed_point_dare(A, B, Q, R):
    """A frozen copy of solve_dare's Riccati map iterated from P = Q to a 1e-12 relative change."""
    P = Q.copy()
    for _ in range(10**6):
        BPA = B.T @ P @ A
        P_next = Q + A.T @ P @ A - BPA.T @ np.linalg.solve(R + B.T @ P @ B, BPA)
        P_next = 0.5 * (P_next + P_next.T)
        change = np.linalg.norm(P_next - P)
        P = P_next
        if change <= 1e-12 * max(1.0, np.linalg.norm(P)):
            return P
    raise AssertionError("the fixed-point iteration did not converge")


def test_dare_doubling_matches_fixed_point_iteration(pend, random_instance):
    rng = np.random.default_rng(45)
    cases = [(pend.model, pend.Q, pend.R, pend.P)]
    for _ in range(30):
        model, qp, _, _ = random_instance(rng)
        cases.append((model, qp.Q, qp.R, qp.P))
    for model, Q, R, P in cases:
        want = _fixed_point_dare(model.A, model.B, Q, R)
        assert np.linalg.norm(P - want) <= 1e-10 * np.linalg.norm(want)
        _, K = T.solve_dare(model.A, model.B, Q, R)
        # rounding level: 6.4e-15 at worst over 200 such instances
        assert T.dare_residual(model.A, model.B, Q, R, P, K) < 1e-13


def test_dare_rejects_unstabilizable_pair():
    with pytest.raises(T.NumericsError, match="diverged"):
        T.solve_dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("Q, R, shown", [
    ([[1.0]], [[1.0]], r"Q has shape \(1, 1\), expected \(2, 2\)"),
    (np.eye(2), np.eye(2), r"R has shape \(2, 2\), expected \(1, 1\)"),
])
def test_dare_rejects_mis_shaped_weights(Q, R, shown):
    with pytest.raises(T.NumericsError, match=shown):
        T.solve_dare(0.5 * np.eye(2), [[1.0], [0.0]], Q, R)


# --- zero-order-hold discretization ---


def test_zoh_zero_dynamics():
    A, B = T.discretize_zoh(np.zeros((2, 2)), np.eye(2), 0.3)
    assert np.allclose(A, np.eye(2), atol=1e-14)
    assert np.allclose(B, 0.3 * np.eye(2), atol=1e-14)


def test_zoh_double_integrator_closed_form():
    A, B = T.discretize_zoh([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 0.1)
    assert np.allclose(A, [[1.0, 0.1], [0.0, 1.0]], atol=1e-14)
    assert np.allclose(B, [[0.005], [0.1]], atol=1e-14)


def test_zoh_matches_series_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A_c = rng.standard_normal((n, n))
        B_c = rng.standard_normal((n, m))
        T_s = float(rng.uniform(0.01, 1.0))
        if np.linalg.norm(A_c * T_s, 2) > 5.0:
            A_c *= 5.0 / np.linalg.norm(A_c * T_s, 2)
        A, B = T.discretize_zoh(A_c, B_c, T_s)
        A_ref, B_ref = zoh_series_oracle(A_c, B_c, T_s)
        assert np.linalg.norm(A - A_ref) <= 1e-10 * max(1.0, np.linalg.norm(A_ref))
        assert np.linalg.norm(B - B_ref) <= 1e-10 * max(1.0, np.linalg.norm(B_ref))


def test_zoh_pendulum_frozen_values():
    A, B = T.discretize_zoh([[0.0, 1.0], [14.7, 0.0]], [[0.0], [30.0]], 0.1)
    A_ref = np.array(
        [
            [1.0744047984375122, 0.1024680706551009],
            [1.506280638629983, 1.0744047984375118],
        ]
    )
    B_ref = np.array([[0.15184652742349053], [3.074042119653023]])
    assert np.allclose(A, A_ref, atol=1e-12)
    assert np.allclose(B, B_ref, atol=1e-12)
