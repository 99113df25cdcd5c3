"""Model container, stepping, and box-set behavior."""

import numpy as np
import pytest

import tdmpc as T


def test_model_shapes_and_dims():
    model = T.LtiModel([[1.0, 0.1], [0.0, 1.0]], [[0.0], [1.0]])
    assert model.n == 2
    assert model.m == 1
    assert model.A.shape == (2, 2)
    assert model.B.shape == (2, 1)


def test_model_rejects_mismatched_shapes():
    with pytest.raises(T.NumericsError):
        T.LtiModel([[1.0, 0.0]], [[1.0]])
    with pytest.raises(T.NumericsError):
        T.LtiModel(np.eye(2), np.ones((3, 1)))


def test_from_continuous_matches_zoh():
    A_c = [[0.0, 1.0], [14.7, 0.0]]
    B_c = [[0.0], [30.0]]
    model = T.LtiModel.from_continuous(A_c, B_c, 0.1)
    A, B = T.discretize_zoh(A_c, B_c, 0.1)
    assert np.allclose(model.A, A)
    assert np.allclose(model.B, B)


def test_step_single_and_batched():
    model = T.LtiModel([[0.5, 0.0], [0.0, 2.0]], [[1.0], [0.0]])
    x = np.array([1.0, 1.0])
    u = np.array([0.25])
    assert np.allclose(model.step(x, u), [0.75, 2.0])
    X = np.array([[1.0, 2.0], [1.0, 0.0]])
    U = np.array([[0.25, 0.0]])
    out = model.step(X, U)
    assert out.shape == (2, 2)
    assert np.allclose(out[:, 0], [0.75, 2.0])
    assert np.allclose(out[:, 1], [1.0, 0.0])


def test_every_plant_step_goes_through_model_step(pend, pend_certs, monkeypatch):
    # the closed loops, the decay check and the probe evaluator all step
    # the plant through LtiModel.step and use what it returns
    real = T.LtiModel.step
    outputs = []

    def recording(self, x, u):
        outputs.append(real(self, x, u))
        return outputs[-1]

    monkeypatch.setattr(T.LtiModel, "step", recording)
    m, qp, cfg = pend.model, pend.qp, pend.cfg
    runs = (
        lambda: T.run_benchmark(m, qp, cfg, pend.x0, 4, repeats=0),
        lambda: T.run_tdmpc(m, qp, cfg, pend.x0, 6, 4, repeats=0),
    )
    for simulate in runs:
        run = simulate()
        assert len(outputs) == 4
        assert np.array_equal(run.states[1:], np.array(outputs))
        outputs.clear()
    T.check_psi_decay(m, qp, cfg, pend_certs.beta, pend_certs.r_N,
                      np.random.default_rng(3), samples=20)
    assert len(outputs) == 1 and outputs[0].shape == (2, 20)
    outputs.clear()
    states = T.make_benchmark_evaluator(m, qp, cfg)(np.outer(pend.x0, [1.0, 0.5]), 3)
    assert len(outputs) == 3
    assert np.array_equal(states[1:], np.array(outputs))


def test_box_validation():
    with pytest.raises(T.NumericsError):
        T.BoxSet([1.0], [1.0])  # empty interval
    with pytest.raises(T.NumericsError):
        T.BoxSet([0.0], [1.0])  # origin on the boundary
    with pytest.raises(T.NumericsError):
        T.BoxSet([0.5], [1.0])  # origin outside
    box = T.BoxSet([-1.0, -2.0], [3.0, 0.5])
    assert box.dim == 2


def test_box_project_and_contains():
    box = T.BoxSet([-1.0], [1.0])
    assert box.project(np.array([2.5]))[0] == pytest.approx(1.0, abs=0.0)
    assert box.project(np.array([-3.0]))[0] == pytest.approx(-1.0, abs=0.0)
    assert box.project(np.array([0.3]))[0] == pytest.approx(0.3, abs=0.0)
    # feasible points are exactly the fixed points of the projection
    assert box.project(np.array([1.0]))[0] == 1.0
    assert box.project(np.array([1.1]))[0] != 1.1
    # projection is idempotent and batched
    V = np.array([[-5.0, 0.0, 5.0]])
    PV = box.project(V)
    assert PV.shape == (1, 3)
    assert np.allclose(PV, [[-1.0, 0.0, 1.0]])
    assert np.allclose(box.project(PV), PV)


def test_box_projection_nonexpansive():
    rng = np.random.default_rng(5)
    box = T.BoxSet([-1.0, -0.5], [0.7, 2.0])
    for _ in range(100):
        a = rng.uniform(-4.0, 4.0, 2)
        b = rng.uniform(-4.0, 4.0, 2)
        da = box.project(a)
        db = box.project(b)
        assert np.linalg.norm(da - db) <= np.linalg.norm(a - b) + 1e-14


def test_box_replicate_and_sample():
    box = T.BoxSet([-1.0], [2.0])
    rep = box.replicate(3)
    assert rep.dim == 3
    assert np.allclose(rep.lower, [-1.0, -1.0, -1.0])
    assert np.allclose(rep.upper, [2.0, 2.0, 2.0])
    rng = np.random.default_rng(6)
    pts = rep.sample(rng, 200)
    assert pts.shape == (3, 200)
    assert np.all(pts >= -1.0) and np.all(pts <= 2.0)
    single = rep.sample(rng)
    assert single.shape == (3,)
