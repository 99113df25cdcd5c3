"""Discrete-time linear plant model and box input constraints."""

import numpy as np

from .numerics import NumericsError, _as_matrix, discretize_zoh


class LtiModel:
    """Discrete-time linear system x+ = A x + B u."""

    def __init__(self, A, B):
        self.A = _as_matrix(A, "A")
        self.B = _as_matrix(B, "B")
        if self.A.shape[0] != self.A.shape[1]:
            raise NumericsError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != self.A.shape[0]:
            raise NumericsError(
                f"B has {self.B.shape[0]} rows but the state dimension is "
                f"{self.A.shape[0]}"
            )
        self.n = self.A.shape[0]
        self.m = self.B.shape[1]

    @classmethod
    def from_continuous(cls, A_c, B_c, T_s):
        """Build the model by zero-order-hold discretization."""
        return cls(*discretize_zoh(A_c, B_c, T_s))

    def step(self, x, u):
        """The plant step; x may be (n,) or (n, batch) with u shaped to match."""
        return self.A @ x + self.B @ u


class BoxSet:
    """Axis-aligned box {v : lower <= v <= upper} containing 0 in its interior."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float).ravel()
        upper = np.asarray(upper, dtype=float).ravel()
        if lower.shape != upper.shape:
            raise NumericsError(
                f"box bounds have mismatched shapes {lower.shape} and {upper.shape}"
            )
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise NumericsError("box bounds must be finite")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(upper - lower)):
                raise NumericsError("box width upper - lower must be finite")
        if not np.all(lower < upper):
            raise NumericsError("box requires lower < upper componentwise")
        if not np.all((lower < 0.0) & (upper > 0.0)):
            raise NumericsError("box must contain 0 in its interior")
        self.lower = lower
        self.upper = upper
        self.dim = lower.size

    def project(self, v):
        """Euclidean projection onto the box; v may be (dim,) or (dim, batch)."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.dim:
            raise NumericsError(
                f"vector has leading dimension {v.shape[0]}, expected {self.dim}"
            )
        if v.ndim == 1:
            return np.clip(v, self.lower, self.upper)
        return np.clip(v, self.lower[:, None], self.upper[:, None])

    def replicate(self, N):
        """Box for N stacked copies of this set."""
        if N < 1:
            raise NumericsError(f"replication count must be >= 1, got {N}")
        return BoxSet(np.tile(self.lower, N), np.tile(self.upper, N))

    def sample(self, rng, count=None):
        """Uniform samples from the box: (dim,) if count is None, else (dim, count)."""
        if count is None:
            return rng.uniform(self.lower, self.upper)
        return rng.uniform(
            self.lower[:, None], self.upper[:, None], size=(self.dim, count)
        )
