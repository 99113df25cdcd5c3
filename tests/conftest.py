"""Shared fixtures and oracles.

Fixtures: the calibrated pendulum instance and a random-instance factory.
Oracles: the horizon cost by explicit simulation and the gradient of the
condensed cost, both independent of the condensed solver paths.

The pendulum setup (horizon N = 5, the value the calibration scan picks
for the target contraction factor) is session-scoped because several
suites reuse its benchmark run and the incremental-stability fit, both
of which take seconds to build.
"""

import math
import time

import numpy as np
import pytest

import tdmpc as T


def rollout_cost(model, Q, R, P, x, nu):
    """Horizon cost evaluated by explicit simulation of the input sequence.

    Steps the plant through the N input blocks of nu and accumulates
    stage costs plus the terminal cost; an independent check of the
    condensed quadratic form.
    """
    x = np.asarray(x, dtype=float).ravel()
    nu = np.asarray(nu, dtype=float).ravel()
    m = model.m
    assert nu.size % m == 0
    total = 0.0
    xi = x
    for i in range(nu.size // m):
        ui = nu[i * m:(i + 1) * m]
        total += float(xi @ Q @ xi + ui @ R @ ui)
        xi = model.step(xi, ui)
    total += float(xi @ P @ xi)
    return total


def grad(qp, x, nu):
    """Gradient of the condensed cost J_N with respect to nu: 2 (H nu + G x)."""
    return 2.0 * (qp.H @ nu + qp.G @ x)


class PendulumSetup:
    """Inverted pendulum benchmark problem at the calibrated horizon."""

    def __init__(self, N=5):
        self.model = T.LtiModel.from_continuous(
            [[0.0, 1.0], [14.7, 0.0]], [[0.0], [30.0]], 0.1
        )
        self.Q = np.eye(2)
        self.R = np.eye(1)
        self.P, self.K = T.solve_dare(self.model.A, self.model.B, self.Q, self.R)
        self.box = T.BoxSet([-1.0], [1.0])
        self.N = N
        self.qp = T.build_condensed(self.model, self.Q, self.R, self.P, N, self.box)
        self.cfg = T.pgm_config(self.qp)
        self.x0 = np.array([-math.pi / 4.0, math.pi / 3.0])
        self.T = 30


@pytest.fixture(scope="session")
def pend():
    return PendulumSetup()


@pytest.fixture(scope="session")
def pend_certs(pend):
    return T.compute_certificates(
        pend.model, pend.qp, pend.cfg, pend.K,
        rng=np.random.default_rng(11), psi_samples=500,
    )


@pytest.fixture(scope="session")
def pend_bench(pend):
    return T.run_benchmark(pend.model, pend.qp, pend.cfg, pend.x0, pend.T, repeats=0)


@pytest.fixture(scope="session")
def pend_sampler(pend, pend_certs):
    def sampler(rng, count):
        return T.sample_gamma(pend.qp, pend.cfg, pend_certs.r_N, rng, count)

    return sampler


@pytest.fixture(scope="session")
def pend_evaluator(pend):
    return T.make_benchmark_evaluator(pend.model, pend.qp, pend.cfg)


@pytest.fixture(scope="session")
def pend_fit(pend, pend_certs, pend_sampler, pend_evaluator):
    r_w = 0.01 * pend_certs.r_N * T.spectral_norm(T.mat_inv_sqrt(pend.P))
    t0 = time.perf_counter()
    fit = T.fit_ediss(pend_evaluator, pend_sampler, np.random.default_rng(7), r_w)
    fit.fit_seconds = time.perf_counter() - t0
    return fit


@pytest.fixture(scope="session")
def random_instance():
    """Factory for random stable instances (model, qp, cfg, K).

    A is scaled to a subunit spectral radius so the pair is stabilizable,
    Q and R are random positive definite, and the box is a random
    origin-centered interval product.  eta_cap rejects instances whose
    optimizer contraction factor would make benchmark solves slow.
    """

    def make(rng, n_max=4, m_max=2, N_max=10, eta_cap=0.995):
        while True:
            n = int(rng.integers(1, n_max + 1))
            m = int(rng.integers(1, m_max + 1))
            N = int(rng.integers(1, N_max + 1))
            A = rng.standard_normal((n, n))
            radius = max(abs(np.linalg.eigvals(A)))
            A *= rng.uniform(0.3, 0.95) / max(radius, 1e-9)
            B = rng.standard_normal((n, m))
            Mq = rng.standard_normal((n, n))
            Q = Mq.T @ Mq + 0.2 * np.eye(n)
            Mr = rng.standard_normal((m, m))
            R = Mr.T @ Mr + 0.2 * np.eye(m)
            box = T.BoxSet(-rng.uniform(0.2, 2.0, m), rng.uniform(0.2, 2.0, m))
            try:
                P, K = T.solve_dare(A, B, Q, R)
            except T.NumericsError:
                continue
            model = T.LtiModel(A, B)
            qp = T.build_condensed(model, Q, R, P, N, box)
            cfg = T.pgm_config(qp)
            if cfg.eta <= eta_cap:
                return model, qp, cfg, K

    return make
