"""Dense linear-algebra helpers shared by the rest of the package.

Everything here works on plain numpy arrays.  Matrices that are
mathematically symmetric are symmetrized before factorization so that
round-off in the caller cannot leak into eigenvalue routines.
"""

import numpy as np


class NumericsError(Exception):
    """Raised when a numerical routine cannot certify its own result."""


def _as_matrix(X, name="matrix"):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise NumericsError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NumericsError(f"{name} contains non-finite entries")
    return X


class SymEig:
    """Eigendecomposition of a symmetric matrix.

    eigenvalues are sorted ascending, eigenvectors[:, i] is the unit
    eigenvector for eigenvalues[i].
    """

    def __init__(self, eigenvalues, eigenvectors):
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors

    @property
    def min(self):
        return float(self.eigenvalues[0])

    @property
    def max(self):
        return float(self.eigenvalues[-1])


def sym_eig(S, name="matrix"):
    """Eigendecomposition of a symmetric matrix with a symmetry guard.

    Rejects inputs whose relative asymmetry ||S - S^T|| / max(1, ||S||)
    exceeds 1e-12; the guard catches calls that pass a matrix which is
    not symmetric by construction.
    """
    S = _as_matrix(S, name)
    if S.shape[0] != S.shape[1]:
        raise NumericsError(f"{name} must be square, got shape {S.shape}")
    m = max(1.0, np.abs(S).max(initial=0.0))  # so neither norm overflows for finite S
    asym, scale = np.linalg.norm((S - S.T) / m), max(1.0 / m, np.linalg.norm(S / m))
    if asym / scale > 1e-12:
        raise NumericsError(
            f"{name} is not symmetric: relative asymmetry {asym / scale:.3e}"
        )
    w, V = np.linalg.eigh(0.5 * (S + S.T))
    return SymEig(w, V)


def _spd_eig(S, name):
    """sym_eig(S, name), raising NumericsError unless S is positive definite."""
    e = sym_eig(S, name)
    if e.min <= 0.0:
        # eigh is exact for a matrix within about dim eps ||S|| of S (Higham, 2002, ch. 7)
        if -e.min < len(e.eigenvalues) * np.finfo(float).eps * e.max:
            raise NumericsError(f"{name} is not positive definite to working precision: min "
                                f"eigenvalue {e.min:.3e} is below rounding level for max eigenvalue "
                                f"{e.max:.3e}, so {name} is too ill-conditioned to tell")
        raise NumericsError(f"{name} is not positive definite: min eigenvalue {e.min:.3e}")
    return e


def spectral_norm(X):
    """Largest singular value of a (possibly non-square) matrix."""
    X = _as_matrix(X)
    return float(np.linalg.norm(X, 2))


def spectral_radius(X):
    """Largest absolute eigenvalue of a square matrix."""
    X = _as_matrix(X)
    if X.shape[0] != X.shape[1]:
        raise NumericsError(f"spectral radius needs a square matrix, got {X.shape}")
    return float(np.max(np.abs(np.linalg.eigvals(X))))


def mat_sqrt(S, name="matrix"):
    """Symmetric square root of a symmetric positive definite matrix."""
    e = _spd_eig(S, name)
    V = e.eigenvectors
    return (V * np.sqrt(e.eigenvalues)) @ V.T


def mat_inv_sqrt(S, name="matrix"):
    """Inverse symmetric square root of a symmetric positive definite matrix."""
    e = _spd_eig(S, name)
    V = e.eigenvectors
    return (V / np.sqrt(e.eigenvalues)) @ V.T


def weighted_extremes(S, M, s_name="matrix", m_name="weight"):
    """Extreme generalized eigenvalues of S with respect to the metric M.

    Returns (lam_min, lam_max) of M^{-1/2} S M^{-1/2}.  Both matrices must
    be symmetric and M positive definite; S must be positive semidefinite
    for the result to be a pair of nonnegative curvature bounds, and we
    require S positive definite here because every caller uses it that way.
    """
    Em = mat_inv_sqrt(M, m_name)
    _spd_eig(S, s_name)
    e = sym_eig(Em @ np.asarray(S, dtype=float) @ Em, s_name)
    return e.min, e.max


_DARE_TOL = 1e-12
_DARE_MAX_DOUBLINGS = 100


def dare_residual(A, B, Q, R, P, K):
    """||Q + K'RK + (A - BK)'P(A - BK) - P|| / max(1, ||P||), the relative residual of (P, K)."""
    A_cl = A - B @ K
    residual = np.linalg.norm(Q + K.T @ R @ K + A_cl.T @ P @ A_cl - P)
    return float(residual / max(1.0, np.linalg.norm(P)))


def solve_dare(A, B, Q, R):
    """Stabilizing solution of the discrete-time algebraic Riccati equation.

    Structure-preserving doubling (Chu, Fan & Lin, Linear Algebra Appl.,
    2005): from A_0 = A, G_0 = B R^{-1} B' and P_0 = Q, each doubling
    takes W = I + G_k P_k and
        A_{k+1} = A_k W^{-1} A_k,   G_{k+1} = G_k + A_k W^{-1} G_k A_k',
        P_{k+1} = P_k + A_k' P_k W^{-1} A_k,
    so P_k is the Riccati map P <- Q + A'PA - A'PB (R + B'PB)^{-1} B'PA
    iterated 2^k times from P = 0 and converges quadratically; it stops
    once the relative change drops below 1e-12.  Returns (P, K) with the
    state feedback gain K = (R + B'PB)^{-1} B'PA, after verifying that
    dare_residual is at most 1e-9 and that A - BK is Schur stable.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    n = A.shape[0]
    if A.shape != (n, n):
        raise NumericsError(f"A must be square, got {A.shape}")
    if B.shape[0] != n:
        raise NumericsError(f"B has {B.shape[0]} rows, expected {n}")
    m = B.shape[1]
    if Q.shape != (n, n):
        raise NumericsError(f"Q has shape {Q.shape}, expected {(n, n)}")
    if R.shape != (m, m):
        raise NumericsError(f"R has shape {R.shape}, expected {(m, m)}")
    if sym_eig(Q, "Q").min < 0.0:
        raise NumericsError("Q must be positive semidefinite")
    _spd_eig(R, "R")

    G, I = B @ np.linalg.solve(R, B.T), np.eye(n)
    Ak, G, P = A, 0.5 * (G + G.T), Q
    # an unstabilizable pair makes A_k and P_k overflow; the change says so
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DARE_MAX_DOUBLINGS):
            Z = np.linalg.solve(I + G @ P, np.hstack((Ak, G)))  # W^{-1} [A_k, G_k]
            P_next = P + Ak.T @ P @ Z[:, :n]
            G = G + Ak @ Z[:, n:] @ Ak.T
            Ak = Ak @ Z[:, :n]
            P_next, G = 0.5 * (P_next + P_next.T), 0.5 * (G + G.T)
            change = np.linalg.norm(P_next - P)
            P = P_next
            if not np.isfinite(change):  # P starts finite, so this covers P too
                raise NumericsError("Riccati doubling diverged (non-finite change)")
            if change <= _DARE_TOL * max(1.0, np.linalg.norm(P)):
                break
        else:
            raise NumericsError(
                f"Riccati doubling did not converge within {_DARE_MAX_DOUBLINGS} doublings")

    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    residual = dare_residual(A, B, Q, R, P, K)
    if residual > 1e-9:
        raise NumericsError(f"Riccati fixed-point residual {residual:.3e} exceeds tolerance")
    rho = spectral_radius(A - B @ K)
    if rho >= 1.0:
        raise NumericsError(f"closed-loop matrix A - BK is not Schur stable (rho={rho:.6f})")
    return P, K


def _expm(M):
    # scaling and squaring with a 30-term Taylor series on the scaled matrix
    norm = np.linalg.norm(M, np.inf)
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    Ms = M / (2.0 ** s)
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 30):
        term = term @ Ms / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def discretize_zoh(A_c, B_c, T_s):
    """Zero-order-hold discretization of a continuous-time linear system.

    Computes the matrix exponential of the augmented matrix
    [[A_c, B_c], [0, 0]] * T_s and reads off A = exp(A_c T_s) and
    B = int_0^{T_s} exp(A_c s) ds B_c from its blocks.
    """
    A_c = _as_matrix(A_c, "A_c")
    B_c = _as_matrix(B_c, "B_c")
    if T_s <= 0.0:
        raise NumericsError(f"sampling time must be positive, got {T_s}")
    n = A_c.shape[0]
    if A_c.shape != (n, n):
        raise NumericsError(f"A_c must be square, got {A_c.shape}")
    if B_c.shape[0] != n:
        raise NumericsError(f"B_c has {B_c.shape[0]} rows, expected {n}")
    m = B_c.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A_c
    M[:n, n:] = B_c
    # a huge T_s makes the squaring overflow; LtiModel's finiteness check says so
    with np.errstate(over="ignore", invalid="ignore"):
        E = _expm(M * T_s)
    return E[:n, :n].copy(), E[:n, n:].copy()
