"""Condensed finite-horizon quadratic program for linear MPC.

The horizon-N optimal control problem with stage cost x'Qx + u'Ru,
terminal cost x'Px and box input constraints is condensed by eliminating
the states through X = F x + L nu, where nu stacks the N input blocks.
The result is

    J_N(x, nu) = x'Wx + 2 nu'Gx + nu'H nu,    nu in the replicated box,

and the closed-loop input applied to the plant is the first block S nu.
"""

import numpy as np

from .numerics import NumericsError, _as_matrix, _spd_eig


class _Step:
    """One projected gradient step on H (see pgm): alpha, its rate eta, S, g and delta."""

    def __init__(self, H, alpha, eta):
        if not eta < 1.0:  # as when lam_min(H) is far below rounding level for lam_max(H)
            raise NumericsError(f"H is not positive definite to working precision: the rate "
                                f"eta = {eta!r} of its step is not below 1, so H is too "
                                "ill-conditioned to tell")
        M, ku = np.eye(len(H)) - (2.0 * alpha) * H, len(H) * 2.0**-52  # k u = 2 d 2**-53
        self.H, self.alpha, self.eta, self.S = H, alpha, eta, np.hstack([M, np.eye(len(H))])
        self.g, self.delta = ku / (1 - ku) * np.linalg.norm(self.S), abs(np.linalg.norm(M, 2) - eta)


class CondensedQp:
    """Condensed quadratic program data for one (model, Q, R, P, N, box) tuple.

    H is checked positive definite.  H_inv and the contraction step (see
    pgm) serve the reference minimizer, whatever step a controller runs.
    """

    def __init__(self, N, H, G, W, S, B_bar, u_box, nu_box, Q, R, P):
        self.N = N
        self.H = H
        self.G = G
        self.W = W
        self.S = S
        self.B_bar = B_bar
        self.u_box = u_box
        self.nu_box = nu_box
        self.Q = Q
        self.R = R
        self.P = P
        e = _spd_eig(H, "H")
        self.step = _Step(H, 1.0 / (e.max + e.min), (e.max - e.min) / (e.max + e.min))
        self.H_inv = np.linalg.inv(H)


def build_condensed(model, Q, R, P, N, u_box):
    """Condense the horizon-N problem into a CondensedQp.

    Q and R must be positive definite (Q also bounds the decay certificate
    from below, R makes H positive definite); P is the terminal weight.
    """
    Q = _as_matrix(Q, "Q")
    R = _as_matrix(R, "R")
    P = _as_matrix(P, "P")
    if N < 1:
        raise NumericsError(f"horizon must be >= 1, got {N}")
    N = int(N)
    n, m = model.n, model.m
    if Q.shape != (n, n):
        raise NumericsError(f"Q has shape {Q.shape}, expected {(n, n)}")
    if R.shape != (m, m):
        raise NumericsError(f"R has shape {R.shape}, expected {(m, m)}")
    if P.shape != (n, n):
        raise NumericsError(f"P has shape {P.shape}, expected {(n, n)}")
    _spd_eig(Q, "Q")
    _spd_eig(R, "R")
    if u_box.dim != m:
        raise NumericsError(f"input box has dimension {u_box.dim}, expected {m}")
    # the largest matrices formed below are square in N max(n, m); one that
    # numpy cannot index is refused before anything is allocated
    side = N * max(n, m)
    if side * side * 8 > np.iinfo(np.intp).max:
        raise NumericsError(f"condensing overflows at horizon {N}: its {side} x {side} "
                            "matrices are too big for an array")

    A, B = model.A, model.B
    # the products overflow at long horizons of an unstable A: one error, no numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        # prediction matrices: row block i (i = 1..N) gives x_i = A^i x + sum_j A^{i-1-j} B u_j
        F = np.zeros((N * n, n))
        L = np.zeros((N * n, N * m))
        Apow = np.eye(n)
        for i in range(N):
            Apow = A @ Apow
            F[i * n:(i + 1) * n, :] = Apow
        for i in range(N):
            blk = B
            for j in range(i, -1, -1):
                L[i * n:(i + 1) * n, j * m:(j + 1) * m] = blk
                blk = A @ blk
        Qbar = np.zeros((N * n, N * n))
        for i in range(N - 1):
            Qbar[i * n:(i + 1) * n, i * n:(i + 1) * n] = Q
        Qbar[(N - 1) * n:, (N - 1) * n:] = P
        Rbar = np.kron(np.eye(N), R)

        H = L.T @ Qbar @ L + Rbar
        H = 0.5 * (H + H.T)
        G = L.T @ Qbar @ F
        W = Q + F.T @ Qbar @ F
        W = 0.5 * (W + W.T)
    bad = [k for k, X in zip("FLHGW", (F, L, H, G, W)) if not np.isfinite(X).all()]
    if bad:
        raise NumericsError(
            f"condensing overflows at horizon {N}: {', '.join(bad)} contain non-finite entries")

    S = np.zeros((m, N * m))
    S[:, :m] = np.eye(m)
    B_bar = B @ S
    return CondensedQp(N, H, G, W, S, B_bar, u_box, u_box.replicate(N), Q, R, P)


def _batched(v, dim, name):
    v = np.asarray(v, dtype=float, order="C")  # G @ X rounds its last bit with X's layout
    if v.shape[:1] != (dim,):
        lead = v.shape[0] if v.ndim else "none"
        raise NumericsError(f"{name} has leading dimension {lead}, expected {dim}")
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    return v, squeeze


def _batched_pair(qp, x, nu):
    """Check x (n,) or (n, batch) against nu shaped to match.

    Returns (X, V, squeeze): both as (dim, batch) arrays, and whether a
    result should drop its batch axis (both inputs were 1-D).
    """
    X, sx = _batched(x, qp.W.shape[0], "x")
    V, sv = _batched(nu, qp.H.shape[0], "nu")
    if X.shape[1] != V.shape[1]:
        raise NumericsError("x and nu have mismatched batch sizes")
    return X, V, sx and sv


def cost(qp, x, nu):
    """J_N(x, nu); x may be (n,) or (n, batch) with nu shaped to match."""
    X, V, squeeze = _batched_pair(qp, x, nu)
    J = (X * (qp.W @ X)).sum(axis=0) + 2.0 * (V * (qp.G @ X)).sum(axis=0) + (
        V * (qp.H @ V)
    ).sum(axis=0)
    return float(J[0]) if squeeze else J
