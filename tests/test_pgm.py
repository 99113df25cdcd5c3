"""Projected-gradient solver: step size, contraction, fixed points, benchmark stop."""

import collections
import copy
from types import SimpleNamespace

import numpy as np
import pytest

import tdmpc as T
import tdmpc.certificates
import tdmpc.cli
import tdmpc.closed_loop
import tdmpc.condensed
import tdmpc.pgm
import tdmpc.probe
from conftest import PendulumSetup


@pytest.fixture(scope="module")
def scalar_qp():
    # One-dimensional instance with H = 4, G = 2 over the box [-1, 1]:
    # mu*(x) = clip(-x/2, -1, 1).
    box = T.BoxSet([-1.0], [1.0])
    qp = T.CondensedQp(
        N=1,
        H=np.array([[4.0]]),
        G=np.array([[2.0]]),
        W=np.array([[2.0]]),
        S=np.array([[1.0]]),
        B_bar=np.array([[0.0]]),
        u_box=box,
        nu_box=box,
        Q=np.array([[1.0]]),
        R=np.array([[1.0]]),
        P=np.array([[1.0]]),
    )
    return qp, T.pgm_config(qp)


def test_config_step_size_and_contraction_factor(pend):
    cfg = pend.cfg
    ev = T.sym_eig(pend.qp.H)
    assert cfg.alpha == pytest.approx(1.0 / (ev.min + ev.max), rel=1e-12)
    assert cfg.eta == pytest.approx((ev.max - ev.min) / (ev.max + ev.min), rel=1e-12)
    assert 0.0 <= cfg.eta < 1.0
    # the chosen step size minimizes the linear contraction factor
    assert T.spectral_norm(np.eye(pend.qp.H.shape[0]) - 2.0 * cfg.alpha * pend.qp.H) \
        == pytest.approx(cfg.eta, abs=1e-12)


def test_config_rejects_indefinite_hessian(scalar_qp):
    # the problem forms its step when it is built, so H is checked there
    qp = scalar_qp[0]
    with pytest.raises(T.NumericsError,
                       match="H is not positive definite: min eigenvalue -5.000e-01"):
        T.CondensedQp(qp.N, np.diag([2.0, -0.5]), qp.G, qp.W, qp.S, qp.B_bar, qp.u_box,
                      qp.nu_box, qp.Q, qp.R, qp.P)


def test_config_rejects_bad_stopping_parameters(pend):
    # one copy of the checks, in the constructor: NaN is rejected too, where
    # it used to run the fallback to its cap
    for tol in (0.0, -1.0, np.nan):
        with pytest.raises(T.NumericsError, match="benchmark tolerance must be positive"):
            T.PgmConfig(pend.cfg.step, tol, 10**5)
        with pytest.raises(T.NumericsError, match="benchmark tolerance must be positive"):
            T.pgm_config(pend.qp, tol_benchmark=tol)
    for cap in (0, -3, np.nan):
        with pytest.raises(T.NumericsError, match="iteration cap must be >= 1"):
            T.PgmConfig(pend.cfg.step, 1e-12, cap)
        with pytest.raises(T.NumericsError, match="iteration cap must be >= 1"):
            T.pgm_config(pend.qp, iter_cap=cap)


def test_config_conditioned_identity_hessian():
    box = T.BoxSet([-1.0, -1.0], [1.0, 1.0])
    qp = T.CondensedQp(
        N=2, H=2.0 * np.eye(2), G=np.zeros((2, 1)), W=np.eye(1),
        S=np.array([[1.0, 0.0]]), B_bar=np.zeros((1, 1)),
        u_box=T.BoxSet([-1.0], [1.0]), nu_box=box,
        Q=np.eye(1), R=np.eye(1), P=np.eye(1),
    )
    cfg = T.pgm_config(qp)
    assert cfg.eta == pytest.approx(0.0, abs=1e-15)
    assert cfg.alpha == pytest.approx(0.25, rel=1e-15)


def test_scalar_interior_solution(scalar_qp):
    qp, cfg = scalar_qp
    mu = T.solve_benchmark(qp, cfg, np.array([1.0]))
    assert mu[0] == pytest.approx(-0.5, abs=1e-12)


def test_scalar_boundary_solution(scalar_qp):
    qp, cfg = scalar_qp
    mu = T.solve_benchmark(qp, cfg, np.array([10.0]))
    assert mu[0] == pytest.approx(-1.0, abs=1e-14)
    # a single step from the fixed point stays put
    assert T.pgm_step(qp, cfg, np.array([10.0]), mu)[0] == pytest.approx(-1.0, abs=1e-14)


def test_identity_hessian_solves_in_one_step():
    # with H = c I the operator reaches the constrained minimizer in one step
    box = T.BoxSet([-1.0, -1.0], [1.0, 1.0])
    qp = T.CondensedQp(
        N=2, H=2.0 * np.eye(2), G=np.array([[1.0], [3.0]]), W=np.eye(1),
        S=np.array([[1.0, 0.0]]), B_bar=np.zeros((1, 1)),
        u_box=T.BoxSet([-1.0], [1.0]), nu_box=box,
        Q=np.eye(1), R=np.eye(1), P=np.eye(1),
    )
    cfg = T.pgm_config(qp)
    rng = np.random.default_rng(20)
    for _ in range(10):
        x = rng.standard_normal(1)
        nu0 = box.sample(rng)
        one = T.pgm_step(qp, cfg, x, nu0)
        ref = T.solve_benchmark(qp, cfg, x)
        assert np.allclose(one, ref, atol=1e-12)


def test_iterate_zero_is_identity_and_one_is_step(pend):
    rng = np.random.default_rng(21)
    x = rng.standard_normal(2)
    nu = pend.qp.nu_box.sample(rng)
    z = T.pgm_iterate(pend.qp, pend.cfg, x, nu, 0)
    assert np.allclose(z, nu)
    assert z is not nu
    assert np.allclose(
        T.pgm_iterate(pend.qp, pend.cfg, x, nu, 1), T.pgm_step(pend.qp, pend.cfg, x, nu)
    )
    with pytest.raises(T.NumericsError):
        T.pgm_iterate(pend.qp, pend.cfg, x, nu, -1)


def test_iterates_stay_feasible_and_contract(pend):
    rng = np.random.default_rng(22)
    box = pend.qp.nu_box
    for _ in range(50):
        x = rng.uniform(-1.0, 1.0, 2)
        nu = box.sample(rng)
        mu = T.solve_benchmark(pend.qp, pend.cfg, x)
        ell = int(rng.integers(1, 30))
        out = T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell)
        assert np.array_equal(box.project(out), out)  # feasible
        lhs = np.linalg.norm(out - mu)
        rhs = pend.cfg.eta ** ell * np.linalg.norm(nu - mu)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-15


def test_step_batched_matches_single(pend):
    rng = np.random.default_rng(23)
    X = rng.standard_normal((2, 6))
    V = pend.qp.nu_box.sample(rng, 6)
    batch = T.pgm_step(pend.qp, pend.cfg, X, V)
    assert batch.shape == V.shape
    for j in range(6):
        assert np.allclose(batch[:, j], T.pgm_step(pend.qp, pend.cfg, X[:, j], V[:, j]))


def test_benchmark_zero_state_zero_minimizer(pend):
    mu = T.solve_benchmark(pend.qp, pend.cfg, np.zeros(2))
    assert np.linalg.norm(mu) <= 1e-12


def test_benchmark_warm_start_invariance(pend):
    # the exact solve takes no start; projected gradient from any start agrees
    rng = np.random.default_rng(24)
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 2)
        exact = T.solve_benchmark(pend.qp, pend.cfg, x)
        warm = T.solve_benchmark_pgm(pend.qp, pend.cfg, x, pend.qp.nu_box.sample(rng))
        assert np.linalg.norm(exact - warm) <= 1e-8


def test_benchmark_stop_criterion_residual(pend):
    x = pend.x0
    mu = T.solve_benchmark(pend.qp, pend.cfg, x)
    res = np.linalg.norm(T.pgm_step(pend.qp, pend.cfg, x, mu) - mu)
    assert res <= pend.cfg.tol_benchmark * (1.0 + np.linalg.norm(mu)) * 1.01


def test_benchmark_unconstrained_matches_linear_solve(pend):
    qp = T.build_condensed(pend.model, pend.Q, pend.R, pend.P, 5, T.BoxSet([-1e9], [1e9]))
    cfg = T.pgm_config(qp)
    rng = np.random.default_rng(25)
    for _ in range(5):
        x = 0.1 * rng.standard_normal(2)
        mu = T.solve_benchmark(qp, cfg, x)
        ref = -np.linalg.solve(qp.H, qp.G @ x)
        assert np.linalg.norm(mu - ref) <= 1e-8 * max(1.0, np.linalg.norm(ref))


def test_benchmark_batched_matches_single(pend):
    rng = np.random.default_rng(26)
    X = rng.uniform(-0.5, 0.5, (2, 5))
    MU = T.solve_benchmark(pend.qp, pend.cfg, X)
    assert MU.shape == (5, 5)
    for j in range(5):
        assert np.linalg.norm(MU[:, j] - T.solve_benchmark(pend.qp, pend.cfg, X[:, j])) <= 1e-10


def test_benchmark_iteration_cap_raises(pend):
    cfg = T.PgmConfig(pend.cfg.step, 1e-300, 50)
    with pytest.raises(T.BenchmarkSolveError) as exc:
        T.solve_benchmark(pend.qp, cfg, pend.x0)
    assert exc.value.iterations == 50
    assert exc.value.residual > 0.0


# --- exact active-set reference minimizer ---


def _certificate(qp, cfg, X, MU):
    """Scaled fixed-point residual ||mu - T(mu)|| / (1 + ||mu||) per column."""
    step = T.pgm_step(qp, cfg, X, MU)
    return np.linalg.norm(MU - step, axis=0) / (1.0 + np.linalg.norm(MU, axis=0))


@pytest.fixture
def no_fallback(monkeypatch):
    """Fail the test if solve_benchmark falls back to projected gradient.

    The package-level T.solve_benchmark_pgm, which runs the same loop,
    stays usable as the oracle.
    """
    converge, oracle, in_oracle = tdmpc.pgm._pgm_converge, T.solve_benchmark_pgm, []

    def guarded(*args):
        if not in_oracle:
            raise AssertionError("the active-set solve fell back to projected gradient")
        return converge(*args)

    def oracle_call(*args):
        in_oracle.append(True)
        try:
            return oracle(*args)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(tdmpc.pgm, "_pgm_converge", guarded)
    monkeypatch.setattr(T, "solve_benchmark_pgm", oracle_call)


def test_exact_solve_matches_pgm_oracle_on_random_instances(random_instance, no_fallback):
    rng = np.random.default_rng(27)
    saturated = 0
    for _ in range(60):
        model, qp, cfg, _ = random_instance(rng)
        box = qp.nu_box
        # scales from the interior to far outside, where every bound saturates
        scales = np.logspace(-2.0, 4.0, 8)
        X = rng.standard_normal((model.n, scales.size)) * scales
        MU = T.solve_benchmark(qp, cfg, X)
        res = cfg.tol_benchmark / (1.0 - cfg.eta)
        size = 1.0 + np.linalg.norm(MU, axis=0)
        assert np.array_equal(box.project(MU), MU)  # feasible
        assert np.all(_certificate(qp, cfg, X, MU) <= cfg.tol_benchmark)
        oracle = T.solve_benchmark_pgm(qp, cfg, X)
        assert np.all(np.linalg.norm(MU - oracle, axis=0) <= 10.0 * res * size)
        at_bound = (MU == box.lower[:, None]) | (MU == box.upper[:, None])
        saturated += int(np.sum(np.all(at_bound, axis=0)))
        for j in range(scales.size):
            single = T.solve_benchmark(qp, cfg, X[:, j])
            assert single.shape == (qp.H.shape[0],)
            assert np.linalg.norm(single - MU[:, j]) <= 2.0 * res * size[j]
    assert saturated > 0


def test_exact_solve_certifies_ill_conditioned_horizon(pend, no_fallback):
    # at N = 20, eta is 1 - 1.4e-7: projected gradient would need some 2e8
    # iterations, and an unrefined inverse misses the certificate
    long = T.build_condensed(pend.model, pend.Q, pend.R, pend.P, 20, pend.box)
    cfg = T.pgm_config(long)
    rng = np.random.default_rng(28)
    X = rng.standard_normal((2, 200)) * np.logspace(-2.0, 1.0, 200)
    MU = T.solve_benchmark(long, cfg, X)
    assert np.all(_certificate(long, cfg, X, MU) <= cfg.tol_benchmark)


def test_inverses_are_per_problem(pend, monkeypatch):
    # same horizon and box, different input weight: same masks, different H
    other = T.build_condensed(pend.model, pend.Q, 4.0 * pend.R, pend.P, pend.N, pend.box)
    cfg = T.pgm_config(other)
    X = np.outer(pend.x0, np.linspace(-6.0, 6.0, 13))
    masks = {id(pend.qp): set(), id(other): set()}
    active_set_pass = tdmpc.pgm._active_set_pass

    def recorded(qp, cfg, free, GX, V, bound):
        masks[id(qp)].add(free.tobytes())
        return active_set_pass(qp, cfg, free, GX, V, bound)

    monkeypatch.setattr(tdmpc.pgm, "_active_set_pass", recorded)
    for qp, c in ((pend.qp, pend.cfg), (other, cfg)):
        MU = T.solve_benchmark(qp, c, X)
        oracle = T.solve_benchmark_pgm(qp, c, X)
        res = c.tol_benchmark / (1.0 - c.eta)
        assert np.all(np.linalg.norm(MU - oracle, axis=0)
                      <= 10.0 * res * (1.0 + np.linalg.norm(MU, axis=0)))
        assert np.array_equal(qp.H_inv, np.linalg.inv(qp.H))
    assert pend.qp.H_inv is not other.H_inv
    shared = [np.frombuffer(k, dtype=bool) for k in masks[id(pend.qp)] & masks[id(other)]]
    shared = [free for free in shared if free.any()]
    assert shared
    for free in shared:
        block = np.ix_(free, free)
        assert not np.allclose(np.linalg.inv(pend.qp.H[block]), np.linalg.inv(other.H[block]))


def test_active_set_cap_with_capped_fallback_raises(pend):
    # the clipped unconstrained minimizer of this state touches only the
    # first bound, and the minimizer saturates all five: the active set
    # takes the other four one working-set change at a time
    x = np.array([0.0, 8.0])
    mu = T.solve_benchmark(pend.qp, pend.cfg, x)
    assert np.all(np.abs(mu) == 1.0)
    cfg = T.PgmConfig(pend.cfg.step, pend.cfg.tol_benchmark, 2)
    with pytest.raises(T.BenchmarkSolveError) as exc:
        T.solve_benchmark(pend.qp, cfg, x)
    assert exc.value.iterations == 2
    assert exc.value.residual > cfg.tol_benchmark


# --- one certificate for every stage, one G x for every solve ---


@pytest.fixture
def stages(monkeypatch):
    """Send every third active-set column on to the fallback, started from
    the box's lower corner, so that all three stages occur.  Returns the
    (stage, GX) of every active-set and fallback call, in call order."""
    seen = []
    active_set, converge = tdmpc.pgm._active_set, tdmpc.pgm._pgm_converge

    def sending(qp, cfg, GX, V):
        seen.append(("active set", GX.copy()))
        V, ok = active_set(qp, cfg, GX, V)
        V[:, ::3], ok[::3] = qp.nu_box.lower[:, None], False
        return V, ok

    def recorded(qp, cfg, GX, V):
        seen.append(("fallback", GX.copy()))
        return converge(qp, cfg, GX, V)

    monkeypatch.setattr(tdmpc.pgm, "_active_set", sending)
    monkeypatch.setattr(tdmpc.pgm, "_pgm_converge", recorded)
    return seen


@pytest.mark.parametrize("N", [5, 10])
def test_every_returned_column_passes_the_certificate(pend, random_instance, stages, N):
    setup = pend if N == pend.N else PendulumSetup(N)
    rng = np.random.default_rng(80 + N)
    problems = [(setup.model, setup.qp, setup.cfg)] + [random_instance(rng)[:3]
                                                       for _ in range(4)]
    for model, qp, cfg in problems:
        # scales from the interior to far outside, where every bound saturates
        X = rng.standard_normal((model.n, 12)) * np.logspace(-3.0, 4.0, 12)
        stages.clear()
        MU = T.solve_benchmark(qp, cfg, X)
        assert [stage for stage, _ in stages] == ["active set", "fallback"]
        active, fallback = (GX.shape[1] for _, GX in stages)
        assert 0 < fallback <= active < X.shape[1]  # stage 1 accepted the others
        assert np.array_equal(qp.nu_box.project(MU), MU)
        assert np.all(_certificate(qp, cfg, X, MU) <= cfg.tol_benchmark)


class _CountedMatmul(np.ndarray):
    """An array that counts the products it is the left operand of."""

    def __matmul__(self, other):
        self.calls.append(other.shape)
        return np.asarray(self) @ other


def test_fallback_runs_on_the_solves_own_product(pend, stages):
    # every state far outside: stage 1 accepts none, the active set gets
    # all 40 columns and sends columns 0, 3, ..., 39 on to the fallback
    qp = copy.copy(pend.qp)
    qp.G = pend.qp.G.view(_CountedMatmul)
    qp.G.calls = []
    rng = np.random.default_rng(84)
    X = rng.standard_normal((2, 40)) * 100.0
    GX = pend.qp.G @ X
    MU = T.solve_benchmark(qp, pend.cfg, X)
    assert qp.G.calls == [(2, 40)]  # one G x per solve, none in the fallback
    (_, active), (_, fallback) = stages
    assert active.tobytes() == GX.tobytes()
    assert fallback.shape == (5, 14) and fallback.tobytes() == GX[:, ::3].tobytes()
    assert np.all(_certificate(pend.qp, pend.cfg, X, MU) <= pend.cfg.tol_benchmark)


def test_cap_residual_is_the_worst_certificate_of_the_last_iterate(pend):
    # the cap-th step certifies the iterate that cap - 1 steps reached
    cap, rng = 7, np.random.default_rng(85)
    X = rng.standard_normal((2, 6))
    cfg = T.PgmConfig(pend.cfg.step, 1e-300, cap)
    with pytest.raises(T.BenchmarkSolveError) as exc:
        T.solve_benchmark_pgm(pend.qp, cfg, X)
    last = T.pgm_iterate(pend.qp, cfg, X, np.zeros((5, 6)), cap - 1)
    assert exc.value.iterations == cap
    assert exc.value.residual == _certificate(pend.qp, cfg, X, last).max() > 0.0


# --- grouped active-set solve: same bits as a frozen gather-form oracle ---


def _gather_pass(qp, cfg, free, GX, V, bound):
    """A frozen copy of the active-set pass as it was before it ran on views.

    Boolean-mask copies of H, GX, V and the bounds, the ratio test under
    np.errstate, np.clip and np.linalg.norm: the reference that the live
    pass has to match bit for bit.
    """
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    inv = np.linalg.inv(qp.H[np.ix_(free, free)])
    HF = qp.H[free]
    p = -inv @ (HF @ V + GX[free])
    v = V[free]
    with np.errstate(divide="ignore", invalid="ignore"):
        room = np.where(p > 0.0, (hi[free] - v) / p,
                        np.where(p < 0.0, (lo[free] - v) / p, np.inf))
    t = room.min(axis=0, initial=1.0)
    V[free] = v + t * p
    blocked = t < 1.0
    b = np.flatnonzero(blocked)
    if b.size:
        k = room[:, b].argmin(axis=0)
        i = np.flatnonzero(free)[k]
        V[i, b] = np.where(p[k, b] > 0.0, hi[i, 0], lo[i, 0])
        bound[i, b] = True
    np.clip(V, lo, hi, out=V)
    f = np.flatnonzero(~blocked)
    Vf, Gf = V[:, f], GX[:, f]
    Vf[free] -= inv @ (HF @ Vf + Gf[free])
    np.clip(Vf, lo, hi, out=Vf)
    z = Vf - tdmpc.pgm._pgm_steps(qp, qp.step, Gf, Vf, 1)
    V[:, f] = Vf
    residual = np.full(V.shape[1], np.inf)
    residual[f] = np.linalg.norm(z, axis=0) / (1.0 + np.linalg.norm(Vf, axis=0))
    changed = blocked
    moved = np.where(bound[:, f], np.abs(z), 0.0)
    worst = moved.argmax(axis=0)
    release = (residual[f] > cfg.tol_benchmark) & (moved[worst, np.arange(f.size)] > 0.0)
    bound[worst[release], f[release]] = False
    changed[f[release]] = True
    return changed, residual


def _dict_active_set(qp, cfg, GX, V, seen, kinds=None):
    """The active-set solve grouping columns by free-mask bytes in a dict.

    Every group is gathered, so its arrays are column-major, and every
    pass is the frozen _gather_pass.  Appends (passes, most groups in one
    pass) of the call to seen, and counts in kinds the passes with every
    component free, the blocked columns and the released ones.
    """
    bound = (V <= qp.nu_box.lower[:, None]) | (V >= qp.nu_box.upper[:, None])
    changes = np.zeros(V.shape[1], dtype=int)
    ok = np.zeros(V.shape[1], dtype=bool)
    todo = np.arange(V.shape[1])
    passes = most = 0
    while todo.size:
        groups = {}
        for j, mask in enumerate(np.ascontiguousarray(~bound[:, todo].T)):
            groups.setdefault(mask.tobytes(), []).append(j)
        passes, most = passes + 1, max(most, len(groups))
        keep = np.zeros(todo.size, dtype=bool)
        for key, at in groups.items():
            cols = todo[at]
            Vg, Bg = V[:, cols], bound[:, cols]
            free = np.frombuffer(key, dtype=bool)
            before = Bg.copy()
            changed, residual = _gather_pass(qp, cfg, free, GX[:, cols], Vg, Bg)
            if kinds is not None:
                kinds["all free"] += bool(free.all())
                kinds["blocked"] += int((Bg & ~before).any(axis=0).sum())
                kinds["released"] += int((before & ~Bg).any(axis=0).sum())
            V[:, cols], bound[:, cols] = Vg, Bg
            changes[cols] += changed
            ok[cols] = ~changed & (residual <= cfg.tol_benchmark)
            keep[at] = changed & (changes[cols] < cfg.iter_cap)
        todo = todo[keep]
    seen.append((passes, most))
    return V, ok


def _both_active_sets(qp, cfg, X, V0, seen, kinds):
    """_active_set and _dict_active_set from the same start; asserts equal bits, returns (V, ok)."""
    GX = qp.G @ X
    got = tdmpc.pgm._active_set(qp, cfg, GX, V0.copy())
    want = _dict_active_set(qp, cfg, GX, V0.copy(), seen, kinds)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    return got


def test_grouped_active_set_is_bit_identical_to_dict_grouping(pend, random_instance):
    # solve_benchmark starts the active set near the answer; zeros and
    # random points of the box are poor starts, so blocked and released
    # columns and several working sets per pass occur
    rng = np.random.default_rng(34)
    seen, kinds = [], collections.Counter()
    problems = list(_problems(pend, random_instance, rng, 40))
    widths = np.linspace(1, 300, len(problems)).astype(int)
    for i, ((model, qp, cfg), width) in enumerate(zip(problems, widths)):
        # scales from the interior to far outside, where every bound saturates
        X = rng.standard_normal((model.n, width)) * 10.0 ** rng.uniform(-2.0, 4.0, width)
        V0 = qp.nu_box.sample(rng, width) if i % 2 else np.zeros((qp.H.shape[0], width))
        _both_active_sets(qp, cfg, X, V0, seen, kinds)
    assert max(passes for passes, _ in seen) > 3  # several working-set changes
    assert max(groups for _, groups in seen) > 3  # several working sets per pass
    assert min(kinds[k] for k in ("all free", "blocked", "released")) > 0

    # an active-set cap reached before convergence: the same iterates, the same flags
    capped = T.PgmConfig(pend.cfg.step, pend.cfg.tol_benchmark, 2)
    X = np.outer(pend.x0, np.linspace(-6.0, 6.0, 13))
    _, ok = _both_active_sets(pend.qp, capped, X, np.zeros((pend.qp.H.shape[0], 13)),
                              seen, kinds)
    assert not ok.all()


def test_one_working_set_is_bit_identical_to_dict_grouping_at_gemm_tails(no_fallback):
    # dim(H) = 20: at these widths OpenBLAS rounds gemm's tail columns
    # differently with operand layout, so every pass has to hand BLAS the
    # column-major layout that the dict grouping's gathers give
    rng = np.random.default_rng(36)
    A = rng.standard_normal((3, 3))
    model = T.LtiModel(0.9 * A / max(abs(np.linalg.eigvals(A))), rng.standard_normal((3, 2)))
    Q, R = np.eye(3), np.eye(2)
    P, _ = T.solve_dare(model.A, model.B, Q, R)
    box = T.BoxSet([-1.0, -0.5], [1.0, 0.5])
    qp = T.build_condensed(model, Q, R, P, 10, box)
    cfg = T.pgm_config(qp)
    assert qp.H.shape == (20, 20)
    seen, kinds = [], collections.Counter()
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    direction = rng.standard_normal(3)
    for width in (217, 262, 292):
        zeros = np.zeros((20, width))
        # all free: tiny states from zeros, one pass with no bound
        MU, ok = _both_active_sets(qp, cfg, rng.standard_normal((3, width)) * 1e-6, zeros,
                                   seen, kinds)
        assert ok.all() and not np.any((MU == lo) | (MU == hi))
        # all saturated: huge states along one direction, every bound taken
        # one at a time from zeros, then again from the solution
        X = np.outer(direction, 10.0 ** rng.uniform(4.0, 6.0, width))
        MU, ok = _both_active_sets(qp, cfg, X, zeros, seen, kinds)
        assert ok.all() and np.all((MU == lo) | (MU == hi))
        _both_active_sets(qp, cfg, X, MU, seen, kinds)
        # the solve itself: C-ordered, inputs unwritten, the same solution
        X_in = X.copy()
        got = T.solve_benchmark(qp, cfg, X)
        assert got.flags.c_contiguous and np.array_equal(X, X_in)
        assert np.array_equal(got, MU)
    assert all(groups == 1 for _, groups in seen)  # one working set in every pass
    assert max(passes for passes, _ in seen) > 3
    assert min(kinds[k] for k in ("all free", "blocked", "released")) > 0


def test_non_finite_benchmark_solve_raises_without_fallback(pend, monkeypatch):
    # G x overflows: projected gradient from a NaN iterate would run to iter_cap
    calls = []
    monkeypatch.setattr(tdmpc.pgm, "_pgm_converge", lambda *args: calls.append(args))
    with pytest.warns(RuntimeWarning) as warned:
        with pytest.raises(T.NumericsError, match="non-finite"):
            T.solve_benchmark(pend.qp, pend.cfg, [1e308, 1e308])
    assert any("overflow" in str(w.message) for w in warned)
    assert calls == []


# --- the chain's first stage: the unconstrained minimizer, certified ---


@pytest.fixture
def pass_widths(monkeypatch):
    """The batch width of every _active_set_pass call, in call order."""
    widths = []
    active_set_pass = tdmpc.pgm._active_set_pass

    def counted(qp, cfg, free, GX, V, bound):
        widths.append(V.shape[1])
        return active_set_pass(qp, cfg, free, GX, V, bound)

    monkeypatch.setattr(tdmpc.pgm, "_active_set_pass", counted)
    return widths


def test_inside_columns_are_the_unconstrained_minimizer(pend, random_instance, pass_widths):
    rng = np.random.default_rng(44)
    inside = outside = 0
    for model, qp, cfg in _problems(pend, random_instance, rng, 30):
        lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
        inv = qp.H_inv
        # tiny states: -H^{-1} G x lies strictly inside the box, and is returned
        # as it is, without an active-set pass
        X = rng.standard_normal((model.n, 5)) * 1e-3
        U = -(inv @ (qp.G @ X))
        assert np.all((lo < U) & (U < hi))
        pass_widths.clear()
        assert np.array_equal(T.solve_benchmark(qp, cfg, X), U)
        x = X[:, 0]
        assert np.array_equal(T.solve_benchmark(qp, cfg, x), -(inv @ (qp.G @ x)))
        assert pass_widths == []
        # mixed batches, from the interior to far outside: every column
        # within the certificate's resolution tol / (1 - eta) of mu*, and so
        # within twice that of the projected gradient oracle
        X = rng.standard_normal((model.n, 8)) * np.logspace(-2.0, 4.0, 8)
        MU = T.solve_benchmark(qp, cfg, X)
        oracle = T.solve_benchmark_pgm(qp, cfg, X)
        res = cfg.tol_benchmark / (1.0 - cfg.eta)
        assert np.all(np.linalg.norm(MU - oracle, axis=0)
                      <= 2.0 * res * (1.0 + np.linalg.norm(MU, axis=0)))
        assert np.all(_certificate(qp, cfg, X, MU) <= cfg.tol_benchmark)
        free = np.all((lo < MU) & (MU < hi), axis=0)
        inside, outside = inside + int(free.sum()), outside + int((~free).sum())
    assert inside > 0 and outside > 0


def test_uncertified_inside_columns_are_refined_before_the_active_set(pend, monkeypatch):
    # at N = 20 (eta = 1 - 1.4e-7) the unrefined -H^{-1} G x of a small
    # state lies inside the box but misses the certificate; one refinement
    # with the same inverse certifies it, so no column reaches the active set
    long = T.build_condensed(pend.model, pend.Q, pend.R, pend.P, 20, pend.box)
    cfg = T.pgm_config(long)
    X = np.outer(pend.x0, np.logspace(-3.0, -1.0, 20))
    lo, hi = long.nu_box.lower[:, None], long.nu_box.upper[:, None]
    inv = long.H_inv
    U = -(inv @ (long.G @ X))
    assert np.all((lo < U) & (U < hi))
    assert np.any(_certificate(long, cfg, X, U) > cfg.tol_benchmark)
    active = []
    active_set = tdmpc.pgm._active_set

    def counted(qp, cfg, GX, V):
        active.append(GX.shape[1])
        return active_set(qp, cfg, GX, V)

    monkeypatch.setattr(tdmpc.pgm, "_active_set", counted)
    MU = T.solve_benchmark(long, cfg, X)
    assert active == []
    assert np.all((lo < MU) & (MU < hi))
    assert np.all(_certificate(long, cfg, X, MU) <= cfg.tol_benchmark)


def test_active_set_from_the_clip_takes_few_passes(pend, pass_widths):
    # the preset's ell = 1 run at N = 5: its post-loop solve took 28
    # active-set passes when warm-started from the run's own iterates
    run = T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 1, pend.T, repeats=0)
    assert run.T == pend.T
    assert 0 < len(pass_widths) <= 3


def test_huge_finite_state_solves_without_warnings(pend):
    # G x is near 1e160: squaring the unclipped -H^{-1} G x in a norm would
    # overflow, so the first stage certifies its clipped copy
    x = np.array([1e160, 0.0])
    mu = T.solve_benchmark(pend.qp, pend.cfg, x)
    residual = _certificate(pend.qp, pend.cfg, x[:, None], mu[:, None])
    assert residual[0] <= pend.cfg.tol_benchmark
    assert np.all(np.abs(mu) == 1.0)


def test_probe_sends_few_columns_to_the_active_set(tmp_path, monkeypatch):
    # at N = 5 almost every state that probe solves has its minimizer
    # strictly inside the box; count the columns of every solve_benchmark
    # call, under each module's binding, and of every active-set solve
    solved, active = [], []
    solve, active_set = tdmpc.pgm.solve_benchmark, tdmpc.pgm._active_set

    def counted_solve(qp, cfg, x):
        solved.append(np.size(x) // qp.W.shape[0])
        return solve(qp, cfg, x)

    def counted_active_set(qp, cfg, GX, V):
        active.append(GX.shape[1])
        return active_set(qp, cfg, GX, V)

    for module in (tdmpc.certificates, tdmpc.cli, tdmpc.closed_loop, tdmpc.probe):
        monkeypatch.setattr(module, "solve_benchmark", counted_solve)
    monkeypatch.setattr(tdmpc.pgm, "_active_set", counted_active_set)
    conf = tmp_path / "n5.conf"
    conf.write_text("preset = pendulum\nN = 5\n")
    assert tdmpc.cli.main(["--config", str(conf), "--out", str(tmp_path), "--seed", "0",
                           "--repeats", "0", "probe"]) == 0
    assert sum(solved) == 77000
    assert sum(active) <= 0.01 * sum(solved)


# --- lean controller loop: same iterates, bit for bit ---


def _clip_loop(qp, cfg, x, nu, ell):
    """The stacked projected gradient loop written with np.clip, S @ [V; c] and G @ x per step."""
    X = x if x.ndim == 2 else x[:, None]
    V = nu if nu.ndim == 2 else nu[:, None]
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    dim = qp.H.shape[0]
    S = np.hstack([np.eye(dim) - cfg.alpha * 2.0 * qp.H, np.eye(dim)])
    for _ in range(ell):
        V = np.clip(S @ np.vstack([V, (qp.G @ X) * (-2.0 * cfg.alpha)]), lo, hi)
    return V[:, 0] if (x.ndim == 1 and nu.ndim == 1) else V


def _affine_loop(qp, cfg, X, V, ell):
    """The three-call affine loop np.clip(M @ V + c, lo, hi) that the stacked kernel replaced."""
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    M = np.eye(qp.H.shape[0]) - cfg.alpha * 2.0 * qp.H
    for _ in range(ell):
        V = np.clip(M @ V + (qp.G @ X) * (-2.0 * cfg.alpha), lo, hi)
    return V


def _problems(pend, random_instance, rng, count):
    yield pend.model, pend.qp, pend.cfg
    for _ in range(count):
        model, qp, cfg, _ = random_instance(rng)
        yield model, qp, cfg


def test_iterate_is_bit_identical_to_clip_loop(pend, random_instance):
    rng = np.random.default_rng(29)
    saturated = 0
    for model, qp, cfg in _problems(pend, random_instance, rng, 24):
        box = qp.nu_box
        # scales from the interior to far outside, where every bound saturates
        scales = np.logspace(-2.0, 4.0, 8)
        X = rng.standard_normal((model.n, scales.size)) * scales
        NU = box.sample(rng, scales.size)
        ell = int(rng.integers(1, 40))
        out = T.pgm_iterate(qp, cfg, X, NU, ell)
        assert np.array_equal(out, _clip_loop(qp, cfg, X, NU, ell))
        # neither solver's bits depend on the memory layout of its inputs
        mu = T.solve_benchmark(qp, cfg, X)
        for layout in (np.asfortranarray, lambda A: np.repeat(A, 2, axis=1)[:, ::2]):
            Xl, NUl = layout(X), layout(NU)
            assert T.pgm_iterate(qp, cfg, Xl, NUl, ell).tobytes() == out.tobytes()
            assert T.solve_benchmark(qp, cfg, Xl).tobytes() == mu.tobytes()
        at_bound = (out == box.lower[:, None]) | (out == box.upper[:, None])
        saturated += int(np.sum(np.all(at_bound, axis=0)))
        for j in range(scales.size):
            single = T.pgm_iterate(qp, cfg, X[:, j], NU[:, j], ell)
            assert single.shape == (qp.H.shape[0],)
            assert np.array_equal(single, _clip_loop(qp, cfg, X[:, j], NU[:, j], ell))
    assert saturated > 0


def _gradient_loop(qp, cfg, X, V, ell):
    """The projected gradient loop in its gradient form V - 2 alpha (H V + G X)."""
    lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
    for _ in range(ell):
        V = np.clip(V - cfg.alpha * 2.0 * (qp.H @ V + qp.G @ X), lo, hi)
    return V


def test_iterate_agrees_with_gradient_form_to_rounding(pend, random_instance):
    # both forms are the same eta-contraction up to a per-step rounding of
    # a few dim * eps (1 + |v|), so their iterates stay within
    # 4 dim eps (1 + |v|) / (1 - eta) of each other; the worst seen is about 1.1 dim
    rng = np.random.default_rng(44)
    eps = np.finfo(float).eps
    differ = 0
    for i, (model, qp, cfg) in enumerate(_problems(pend, random_instance, rng, 40)):
        dim = qp.H.shape[0]
        # scales from the interior to far outside, where every bound saturates
        X = rng.standard_normal((model.n, 8)) * np.logspace(-2.0, 4.0, 8)
        NU = qp.nu_box.sample(rng, 8)
        for ell in (1, 7, int(rng.integers(1, 400)), 2000 if i == 0 else 50):
            out = T.pgm_iterate(qp, cfg, X, NU, ell)
            ref = _gradient_loop(qp, cfg, X, NU, ell)
            tol = 4.0 * dim * eps * (1.0 + np.linalg.norm(out, axis=0)) / (1.0 - cfg.eta)
            assert np.all(np.linalg.norm(out - ref, axis=0) <= tol), (i, ell)
            differ += not np.array_equal(out, ref)
    assert differ > 0  # the forms do round differently


def test_iterate_agrees_with_affine_loop_to_rounding(pend, random_instance):
    # the stacked kernel adds c inside the product, the affine loop after
    # it: the same map, rounded differently, so within the bound of
    # test_iterate_agrees_with_gradient_form_to_rounding of each other.
    # Batches (gemm) and single columns (gemv) are checked apart, since
    # BLAS sums the two differently
    rng = np.random.default_rng(45)
    eps = np.finfo(float).eps
    differ = 0
    for i, (model, qp, cfg) in enumerate(_problems(pend, random_instance, rng, 40)):
        dim = qp.H.shape[0]
        X = rng.standard_normal((model.n, 8)) * np.logspace(-2.0, 4.0, 8)
        NU = qp.nu_box.sample(rng, 8)
        for ell in (1, 7, int(rng.integers(1, 400)), 2000 if i == 0 else 50):
            for cols in [slice(None)] + [slice(j, j + 1) for j in range(8)]:
                out = T.pgm_iterate(qp, cfg, X[:, cols], NU[:, cols], ell)
                ref = _affine_loop(qp, cfg, X[:, cols], NU[:, cols], ell)
                tol = 4.0 * dim * eps * (1.0 + np.linalg.norm(out, axis=0)) / (1.0 - cfg.eta)
                assert np.all(np.linalg.norm(out - ref, axis=0) <= tol), (i, ell)
                differ += not np.array_equal(out, ref)
    assert differ > 0  # the two kernels do round differently


def _step(qp, alpha):
    """Another projected gradient step on qp's H: alpha and its rate ||I - 2 alpha H||_2."""
    M = np.eye(qp.H.shape[0]) - 2.0 * alpha * qp.H
    return tdmpc.condensed._Step(qp.H, alpha, T.spectral_norm(M))


def test_step_matrix_is_cached_per_problem_and_step_size(pend):
    qp = T.build_condensed(pend.model, pend.Q, pend.R, pend.P, pend.N, pend.box)
    cfg = T.pgm_config(qp)
    x, nu = pend.x0, np.zeros(qp.H.shape[0])
    dim = qp.H.shape[0]
    stacked = lambda alpha: np.hstack([np.eye(dim) - 2.0 * alpha * qp.H, np.eye(dim)])
    # the problem forms its step once, and its configs run that one object
    assert cfg.step is qp.step and T.pgm_config(qp).step is qp.step
    S = qp.step.S
    assert S.shape == (dim, 2 * dim) and S.flags.c_contiguous
    assert np.array_equal(S, stacked(cfg.alpha))
    out = T.pgm_iterate(qp, cfg, x, nu, 5)
    T.pgm_iterate(qp, cfg, x, nu, 5)
    assert qp.step.S is S  # built once, reused
    # another step size on the same problem is its own step, with its own matrix and iterates
    half = T.PgmConfig(_step(qp, cfg.alpha / 2.0), cfg.tol_benchmark, cfg.iter_cap)
    assert half.step.S.flags.c_contiguous and np.array_equal(half.step.S, stacked(half.alpha))
    slow = T.pgm_iterate(qp, half, x, nu, 5)
    assert qp.step.S is S
    assert np.array_equal(slow, _clip_loop(qp, half, x, nu, 5))
    assert not np.allclose(slow, out)
    # another problem has its own step, and a config of this one never runs on it
    other = T.build_condensed(pend.model, pend.Q, 4.0 * pend.R, pend.P, pend.N, pend.box)
    assert other.step is not qp.step and not np.array_equal(other.step.S, S)
    for run in (lambda: T.pgm_iterate(other, cfg, x, nu, 5),
                lambda: T.audit_contraction(other, cfg, lambda rng, k: rng.standard_normal((2, k)),
                                            np.random.default_rng(72))):
        with pytest.raises(T.NumericsError, match="^the configuration's step was formed for "
                                                  "another problem$"):
            run()


@pytest.mark.parametrize("N", [5, 10])
def test_reference_solver_runs_the_problems_own_step(pend, N):
    # mu*(x) depends on the problem alone: configs whose controller runs
    # another step leave every reference solve's bits, and its cap, as they are
    setup = pend if N == pend.N else PendulumSetup(N)
    qp, cfg = setup.qp, setup.cfg
    rng = np.random.default_rng(71)
    X = np.hstack([np.outer(setup.x0, np.linspace(-6.0, 6.0, 13)),
                   rng.standard_normal((2, 12)) * np.logspace(-2.0, 1.0, 12)])
    mu = T.solve_benchmark(qp, cfg, X)
    oracle = T.solve_benchmark_pgm(qp, cfg, X, mu)  # mu passes: no step (see the next test)
    for alpha in (cfg.alpha / 2.0, 0.9 / T.sym_eig(qp.H).max):
        other = T.PgmConfig(_step(qp, alpha), cfg.tol_benchmark, cfg.iter_cap)
        assert other.step is not qp.step and other.alpha == alpha
        assert T.solve_benchmark(qp, other, X).tobytes() == mu.tobytes()
        assert T.solve_benchmark_pgm(qp, other, X, mu).tobytes() == oracle.tobytes()
        with pytest.raises(T.BenchmarkSolveError) as exc:
            T.solve_benchmark(qp, T.PgmConfig(other.step, 1e-300, 50), setup.x0)
        assert exc.value.iterations == 50


@pytest.mark.parametrize("N", [5, 10])
def test_reference_oracle_steps_the_problems_own_map(pend, N, monkeypatch):
    # from a start that misses the certificate the oracle has to step, and
    # every step's last bits, and the number of steps, are qp.step's alone;
    # the start is mu* moved by 1e-10, so that N = 10 (eta = 0.9997) stays quick
    setup = pend if N == pend.N else PendulumSetup(N)
    qp, cfg = setup.qp, setup.cfg
    rng = np.random.default_rng(74)
    X = rng.standard_normal((2, 12)) * np.logspace(-2.0, 1.0, 12)
    start = qp.nu_box.project(T.solve_benchmark(qp, cfg, X)
                              + 1e-10 * rng.standard_normal((qp.H.shape[0], 12)))
    assert np.any(_certificate(qp, cfg, X, start) > cfg.tol_benchmark)
    calls, certificate = [0], tdmpc.pgm._certificate

    def counted(*args):
        calls[0] += 1
        return certificate(*args)

    monkeypatch.setattr(tdmpc.pgm, "_certificate", counted)
    oracle = T.solve_benchmark_pgm(qp, cfg, X, start)
    steps = calls[0] - 1  # the last certificate passes and steps no more
    assert steps >= 1 and oracle.tobytes() != start.tobytes()
    assert np.all(_certificate(qp, cfg, X, oracle) <= cfg.tol_benchmark)
    for alpha in (cfg.alpha / 2.0, 0.9 / T.sym_eig(qp.H).max):
        other = T.PgmConfig(_step(qp, alpha), cfg.tol_benchmark, cfg.iter_cap)
        calls[0] = 0
        assert T.solve_benchmark_pgm(qp, other, X, start).tobytes() == oracle.tobytes()
        assert calls[0] - 1 == steps


def test_timed_preset_run_steps_clip_free(pend, kernel_steps):
    # control-n5's run: the preset at N = 5, timed, 5,000 iterations a step
    # over T = 30; every call passes the ball certificate at entry, so all
    # its steps run clip-free, and one more projected step certifies the
    # post-loop reference solve
    T.run_tdmpc(pend.model, pend.qp, pend.cfg, pend.x0, 5000, pend.T, repeats=1)
    assert kernel_steps == [150001, 150000]


def test_iterate_leaves_nu_unchanged(pend):
    rng = np.random.default_rng(30)
    X = rng.standard_normal((2, 4))
    NU = pend.qp.nu_box.sample(rng, 4)
    for x, nu in ((X, NU), (X[:, 0], NU[:, 0])):
        before = nu.copy()
        for ell in (0, 1, 7):
            out = T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell)
            assert out is not nu
            out += 1.0
            assert np.array_equal(nu, before)


def test_kernel_copies_the_callers_array(pend):
    # never writes the caller's V, and every call returns a new array, so
    # the untimed windows can keep the previous window's output
    rng = np.random.default_rng(32)
    X = rng.standard_normal((2, 3))
    GX = pend.qp.G @ X
    NU = pend.qp.nu_box.sample(rng, 3)
    for V in (np.ascontiguousarray(NU), np.asfortranarray(NU), NU[:, :1]):
        assert V.dtype == np.float64
        before = V.copy()
        for ell in (0, 1, 7):
            a, b = (tdmpc.pgm._pgm_steps(pend.qp, pend.cfg.step, GX[:, :V.shape[1]], V, ell)
                    for _ in range(2))
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes()
            assert not (np.shares_memory(a, V) or np.shares_memory(a, b))
            assert np.array_equal(V, before)


def test_iterate_keeps_zero_signs_of_clip_loop(pend):
    # a zero bound and -0.0 entries in nu: the iterates must match bit for
    # bit, so compare bytes (np.array_equal treats 0.0 and -0.0 as equal)
    rng = np.random.default_rng(34)
    nNu, cfg = pend.qp.H.shape[0], pend.cfg
    signed = 0
    for lower, upper in ((0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-1.0, 1.0)):
        # BoxSet keeps 0 interior; the kernel reads only the two bound vectors
        qp = copy.copy(pend.qp)
        qp.nu_box = SimpleNamespace(lower=np.full(nNu, lower), upper=np.full(nNu, upper))
        X = np.column_stack([np.zeros(2), rng.standard_normal((2, 5)) * np.logspace(-3, 1, 5)])
        NU = np.where(rng.random((nNu, 6)) < 0.5, -0.0, rng.uniform(lower, upper, (nNu, 6)))
        # at x = 0, c is -0.0 and M @ nu turns -0.0 entries into +0.0, so only
        # an upper bound of -0.0 gives the iterates a signed zero
        NU[:, 0] = -0.0
        for ell in (0, 1, 2, 9):
            out = T.pgm_iterate(qp, cfg, X, NU, ell)
            assert out.tobytes() == _clip_loop(qp, cfg, X, NU, ell).tobytes(), (lower, ell)
            for j in range(X.shape[1]):
                single = T.pgm_iterate(qp, cfg, X[:, j], NU[:, j], ell)
                assert single.tobytes() == _clip_loop(qp, cfg, X[:, j], NU[:, j], ell).tobytes()
            if ell:
                signed += int(np.sum((out == 0.0) & np.signbit(out)))
    assert signed > 0


def test_clip_ufunc_is_max_then_min():
    clip = tdmpc.pgm._clip
    assert isinstance(clip, np.ufunc) and (clip.nin, clip.nout) == (3, 1)
    vals = np.array([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])
    x, lo, hi = (a.ravel() for a in np.meshgrid(vals, vals, vals, indexing="ij"))
    expected = np.minimum(np.maximum(x, lo), hi)
    assert clip(x, lo, hi).tobytes() == expected.tobytes()
    assert np.clip(x, lo, hi).tobytes() == expected.tobytes()
    # broadcast bounds and a positional out, as the kernel calls it
    X = np.tile(vals, (vals.size, 1)).T.copy()
    out = np.empty_like(X)
    for b in (vals[:, None], np.zeros((vals.size, 1)), -np.zeros((vals.size, 1))):
        clip(X, b, np.abs(b), out)
        assert out.tobytes() == np.minimum(np.maximum(X, b), np.abs(b)).tobytes()


def test_step_equals_one_iteration(pend, random_instance):
    rng = np.random.default_rng(31)
    for model, qp, cfg in _problems(pend, random_instance, rng, 20):
        X = rng.standard_normal((model.n, 5)) * np.logspace(-2.0, 4.0, 5)
        NU = qp.nu_box.sample(rng, 5)
        assert np.array_equal(T.pgm_step(qp, cfg, X, NU), T.pgm_iterate(qp, cfg, X, NU, 1))
        assert np.array_equal(T.pgm_step(qp, cfg, X[:, 0], NU[:, 0]),
                              T.pgm_iterate(qp, cfg, X[:, 0], NU[:, 0], 1))


def test_pair_checks_share_one_message(pend):
    X = np.zeros((2, 3))
    NU = np.zeros((pend.qp.H.shape[0], 2))
    calls = (
        lambda: T.cost(pend.qp, X, NU),
        lambda: T.pgm_step(pend.qp, pend.cfg, X, NU),
        lambda: T.pgm_iterate(pend.qp, pend.cfg, X, NU, 3),
    )
    for call in calls:
        with pytest.raises(T.NumericsError, match="x and nu have mismatched batch sizes"):
            call()
    with pytest.raises(T.NumericsError, match="nu has leading dimension 4"):
        T.pgm_iterate(pend.qp, pend.cfg, X[:, 0], np.zeros(4), 2)


# --- untimed controller loop: exact repeats of the orbit are skipped ---

W = tdmpc.pgm._CYCLE_WINDOW
ELLS = (1, W - 1, W, W + 1, 2 * W, 2300, 5000)


@pytest.fixture
def kernel_steps(monkeypatch):
    """Counts the projected gradient steps the two kernels actually execute.

    count[0] is the steps of both, count[1] those of the clip-free kernel.
    """
    count = [0, 0]

    def counting(name, clip_free):
        kernel = getattr(tdmpc.pgm, name)

        def counted(qp, cfg, GX, V, ell):
            count[0] += ell
            count[1] += ell if clip_free else 0
            return kernel(qp, cfg, GX, V, ell)

        monkeypatch.setattr(tdmpc.pgm, name, counted)

    counting("_pgm_steps", False)
    counting("_unclipped_steps", True)
    return count


def _untimed(qp, cfg, x, nu, ell, kernel_steps):
    """(_pgm_iterate_untimed's result, kernel steps it executed)."""
    before = kernel_steps[0]
    out = tdmpc.pgm._pgm_iterate_untimed(qp, cfg, x, nu, ell)
    return out, kernel_steps[0] - before


def test_untimed_iterate_equals_pgm_iterate_on_pendulum(pend, kernel_steps):
    for N in (3, 4, 5, 6):
        setup = pend if N == pend.N else PendulumSetup(N)
        qp, cfg = setup.qp, setup.cfg
        nu0 = np.zeros(qp.H.shape[0])
        for ell in ELLS:
            out, _ = _untimed(qp, cfg, setup.x0, nu0, ell, kernel_steps)
            assert out.shape == nu0.shape
            assert np.array_equal(out, T.pgm_iterate(qp, cfg, setup.x0, nu0, ell)), (N, ell)
    # the cold-start orbit at N = 5 cycles after about 2,100 steps
    _, executed = _untimed(pend.qp, pend.cfg, pend.x0, np.zeros(pend.qp.H.shape[0]), 5000,
                           kernel_steps)
    assert executed < 3000


def test_untimed_iterate_fixed_point_from_the_first_step(pend, kernel_steps):
    # x = 0, nu = 0 is the minimizer: period 1, found after the second window
    x, nu = np.zeros(2), np.zeros(pend.qp.H.shape[0])
    for ell in ELLS:
        out, executed = _untimed(pend.qp, pend.cfg, x, nu, ell, kernel_steps)
        assert np.array_equal(out, T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell))
        assert executed == (ell if ell < 2 * W else 2 * W + (ell - 2 * W) % W)


def test_untimed_iterate_batched_columns_cycle_at_different_steps(pend, kernel_steps):
    # scaled copies of x0, which no solver touches: the columns enter their
    # cycles in windows 38, 40 and 41
    X = np.outer(pend.x0, [1.0, 0.5, 0.1, 0.01, 1e-4, 3.0])
    NU = np.zeros((pend.qp.H.shape[0], X.shape[1]))
    batch, executed = _untimed(pend.qp, pend.cfg, X, NU, 5000, kernel_steps)
    assert np.array_equal(batch, T.pgm_iterate(pend.qp, pend.cfg, X, NU, 5000))
    # each column's window, read off the batch's own iterates (a single
    # column runs gemv, the batch gemm, and the two round differently): the
    # first window k >= 2 that ends on the bytes the window before ended on
    windows, prev, k = {}, None, 0
    while len(windows) < X.shape[1]:
        k += 1
        assert k * W < 5000
        now = T.pgm_iterate(pend.qp, pend.cfg, X, NU, k * W)
        if prev is not None:
            for j in range(X.shape[1]):
                if j not in windows and now[:, j].tobytes() == prev[:, j].tobytes():
                    windows[j] = k
        prev = now
    assert len(set(windows.values())) > 1
    # the batch skips once its last column has cycled
    w = max(windows.values())
    assert executed == W * w + (5000 - W * w) % W < 5000


def test_untimed_iterate_strided_caller_input(pend, kernel_steps):
    rng = np.random.default_rng(41)
    X = rng.standard_normal((2, 4))
    NU = pend.qp.nu_box.sample(rng, 4)
    strided = lambda A: np.repeat(A, 2, axis=1)[:, ::2]
    Xs, NUs = strided(X), strided(NU)
    before = NUs.copy()
    for ell in ELLS:
        out, _ = _untimed(pend.qp, pend.cfg, Xs, NUs, ell, kernel_steps)
        assert np.array_equal(out, T.pgm_iterate(pend.qp, pend.cfg, Xs, NUs, ell))
        assert out is not NUs
    assert np.array_equal(NUs, before)


def test_untimed_iterate_equals_pgm_iterate_on_random_instances(random_instance, kernel_steps):
    rng = np.random.default_rng(43)
    skipped = 0
    for _ in range(12):
        model, qp, cfg, _ = random_instance(rng)
        X = rng.standard_normal((model.n, 3)) * np.logspace(-1.0, 2.0, 3)
        NU = qp.nu_box.sample(rng, 3)
        for ell in (1, W - 1, W + 1, 2 * W, int(rng.integers(1, 3000))):
            out, executed = _untimed(qp, cfg, X, NU, ell, kernel_steps)
            assert np.array_equal(out, T.pgm_iterate(qp, cfg, X, NU, ell))
            single, _ = _untimed(qp, cfg, X[:, 0], NU[:, 0], ell, kernel_steps)
            assert np.array_equal(single, T.pgm_iterate(qp, cfg, X[:, 0], NU[:, 0], ell))
            skipped += executed < ell
    assert skipped > 0


def test_untimed_iterate_tells_zero_signs_apart(pend, monkeypatch):
    # a kernel whose windows end on zeros with the sign bits of the window
    # count: all equal under np.array_equal, all different in bits, so no
    # window may count as a repeat of an earlier one
    calls = []

    def signed_zeros(qp, cfg, GX, V, ell):
        calls.append(ell)
        if not ell:
            return V.copy()
        bits = (len(calls) >> np.arange(V.shape[0]))[:, None] & 1
        return np.where(bits, -0.0, 0.0)

    monkeypatch.setattr(tdmpc.pgm, "_pgm_steps", signed_zeros)
    monkeypatch.setattr(tdmpc.pgm, "_unclipped_steps", signed_zeros)
    nu = np.zeros(pend.qp.H.shape[0])
    out = tdmpc.pgm._pgm_iterate_untimed(pend.qp, pend.cfg, pend.x0, nu, 10 * W)
    assert calls == [W] * 10 + [0]
    assert np.array_equal(np.signbit(out), (10 >> np.arange(nu.size)) & 1 == 1)


def test_untimed_iterate_skips_a_period_that_does_not_divide_the_window(pend, monkeypatch):
    # a kernel that counts steps modulo 3 W: its windows cycle through three
    # iterates, so the fourth window repeats the first and the period is 3 W
    period, calls = 3 * W, []

    def count(qp, cfg, GX, V, ell):
        calls.append(ell)
        return (V + ell) % period

    monkeypatch.setattr(tdmpc.pgm, "_pgm_steps", count)
    monkeypatch.setattr(tdmpc.pgm, "_unclipped_steps", count)
    nu = np.zeros(pend.qp.H.shape[0])
    ell = 1001 * W + 7
    out = tdmpc.pgm._pgm_iterate_untimed(pend.qp, pend.cfg, pend.x0, nu, ell)
    assert calls == [W] * 4 + [W + 7]
    assert np.array_equal(out, np.full(nu.shape, float(ell % period)))


# --- the ball certificate: where it passes, no clip acts ---


def _ball_problems(pend, random_instance):
    yield pend.qp, pend.cfg
    setup = PendulumSetup(10)
    yield setup.qp, setup.cfg
    rng = np.random.default_rng(47)
    for _ in range(20):
        _, qp, cfg, _ = random_instance(rng)
        yield qp, cfg


def _ball_starts(qp, rng, k):
    """(GX, V): states from near the origin to the box's scale, warm starts from
    zeros, the unconstrained minimizer z itself and z moved by up to 10% of the box."""
    n, d = qp.G.shape[1], qp.H.shape[0]
    X = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3.0, 0.5, k)
    GX = qp.G @ X
    Z = -(qp.H_inv @ GX)
    width = qp.nu_box.upper - qp.nu_box.lower
    V = Z + rng.standard_normal((d, k)) * width[:, None] * 10.0 ** rng.uniform(-6.0, -1.0, k)
    V[:, 0], V[:, 1] = 0.0, Z[:, 1]
    return GX, V


def _certified(qp, cfg, GX, V):
    """Whether V passes the ball certificate of GX: its per-call part, then one check."""
    check = tdmpc.pgm._ball_certificate(qp, cfg.step, GX)
    return check is not None and check(V) == 0


def test_ball_certificate_means_no_clip_acts(pend, random_instance, monkeypatch):
    # wherever the certificate passes, the projected and the clip-free
    # kernels give the same bits over 5,000 steps, batched and single, and
    # a stand-in clip that records what it is handed sees every value
    # strictly inside the box
    rng = np.random.default_rng(48)
    cert, kernel, free = _certified, tdmpc.pgm._pgm_steps, tdmpc.pgm._unclipped_steps
    seen, clip = [], tdmpc.pgm._clip
    monkeypatch.setattr(tdmpc.pgm, "_clip",
                        lambda T, lo, hi, out: (seen.append(T.copy()), clip(T, lo, hi, out))[1])
    passed = rejected = 0
    for qp, cfg in _ball_problems(pend, random_instance):
        GX, V = _ball_starts(qp, rng, 8)
        ok = np.array([cert(qp, cfg, GX[:, [j]], V[:, [j]]) for j in range(V.shape[1])])
        assert ok.any()
        passed, rejected = passed + ok.sum(), rejected + (~ok).sum()
        GX, V = GX[:, ok], V[:, ok]
        assert cert(qp, cfg, GX, V)
        lo, hi = qp.nu_box.lower[:, None], qp.nu_box.upper[:, None]
        for Gc, Vc in ((GX, V), (GX[:, -1:], V[:, -1:])):
            for ell in (0, 1, 61, 5000):
                seen.clear()
                a, b = kernel(qp, cfg.step, Gc, Vc, ell), free(qp, cfg.step, Gc, Vc, ell)
                assert np.array_equal(a, b) and a.tobytes() == b.tobytes()
                pre = np.array(seen)
                assert len(pre) == ell and ((lo < pre) & (pre < hi)).all()
    assert passed >= 100 and rejected > 0


def test_untimed_iterate_drops_the_clip_once_certified(pend, kernel_steps):
    # near the origin the preset's minimizer lies inside the box: from a cold
    # start a call past the gate of two windows is certified at entry and
    # every step runs clip-free; the oracle runs outside the counted window
    x, nu = 0.01 * pend.x0, np.zeros(pend.qp.H.shape[0])
    for ell in (W - 1, W, 2 * W - 1, 2 * W, 2 * W + 1, 5000):
        before = list(kernel_steps)
        out, executed = _untimed(pend.qp, pend.cfg, x, nu, ell, kernel_steps)
        clip_free = kernel_steps[1] - before[1]
        assert out.tobytes() == T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell).tobytes()
        assert clip_free == (0 if ell < 2 * W else executed)


def _ball_case(pend):
    """(GX, z, V) near the origin, with V = z moved by 1e-3 along the first input."""
    GX = pend.qp.G @ (0.01 * pend.x0)[:, None]
    z = -(pend.qp.H_inv @ GX)
    V = z.copy()
    V[0] += 1e-3
    return GX, z, V


def test_ball_certificate_rejects_a_ball_within_the_allowance_of_a_bound(pend):
    # the ball of radius ||V - z|| lies strictly inside the box, but its
    # upper bound on the first input sits one float above it: the rounding
    # allowance s must push the ball across that bound
    GX, z, V = _ball_case(pend)
    r = np.linalg.norm(V - z)
    lo, hi = pend.qp.nu_box.lower.copy(), pend.qp.nu_box.upper.copy()
    qp = copy.copy(pend.qp)
    for margin in (0.0, 1e-16, 1e-3):
        up = hi.copy()
        up[0] = np.nextafter(z[0, 0] + r, np.inf) + margin
        qp.nu_box = SimpleNamespace(lower=lo, upper=up)
        assert ((lo[:, None] < z - r) & (z + r < up[:, None])).all()
        assert _certified(qp, pend.cfg, GX, V) == (margin == 1e-3), margin


def test_ball_certificate_rejects_a_warm_start_on_a_bound(pend):
    GX, z, _ = _ball_case(pend)
    box = pend.qp.nu_box
    assert _certified(pend.qp, pend.cfg, GX, z)
    for i in (0, 2, len(z) - 1):
        for bound in (box.lower[i], box.upper[i]):
            V = z.copy()
            V[i] = bound
            assert not _certified(pend.qp, pend.cfg, GX, V), (i, bound)
    # non-finite warm starts and states are never certified
    for bad in (np.nan, np.inf):
        V = z.copy()
        V[1] = bad
        assert not _certified(pend.qp, pend.cfg, GX, V)
        assert not _certified(pend.qp, pend.cfg, np.full_like(GX, bad), z)


def test_ball_certificate_per_call_part_says_never(pend):
    # no check can pass when z is not strictly inside the box or the room
    # left between z and the box, or in 1 - eta, is used up by rounding
    GX, z, _ = _ball_case(pend)
    cert, step = tdmpc.pgm._ball_certificate, pend.cfg.step
    assert cert(pend.qp, step, GX) is not None
    far = pend.qp.G @ (100.0 * pend.x0)[:, None]
    assert (np.abs(pend.qp.H_inv @ far) > 1.0).any()
    assert cert(pend.qp, step, far) is None
    assert cert(pend.qp, step, np.hstack([GX, far])) is None
    lo = pend.qp.nu_box.lower
    qp = copy.copy(pend.qp)
    at, ulp = z[0, 0], np.nextafter(z[0, 0], np.inf)
    for up0, never in ((at, True), (ulp, True), (at + 1e-3, False)):
        up = pend.qp.nu_box.upper.copy()
        up[0] = up0
        qp.nu_box = SimpleNamespace(lower=lo, upper=up)
        assert (cert(qp, step, GX) is None) == never, up0
    # eta one ulp below 1: the rounding allowance exceeds 1 - eta
    assert cert(pend.qp, tdmpc.condensed._Step(pend.qp.H, step.alpha, 1.0 - 2.0**-52), GX) is None


def test_timed_iterate_executes_every_step(pend, kernel_steps):
    # a timed call executes all ell steps, checks included; past the gate of
    # two windows a certified call runs them clip-free, below it none
    qp, cfg, d = pend.qp, pend.cfg, pend.qp.H.shape[0]
    x = 0.01 * pend.x0
    cases = [(x, np.zeros(d), ell) for ell in (1, W, 2 * W - 1, 2 * W, 2 * W + 1, 5000)]
    # from a corner of the box the entry check fails and a scheduled one
    # passes; far from the origin z leaves the box and no check is made
    cases += [(x, np.ones(d), 5000), (100.0 * pend.x0, np.zeros(d), 5000)]
    shares = []
    for x, nu, ell in cases:
        before = list(kernel_steps)
        T.pgm_iterate(qp, cfg, x, nu, ell)
        executed, clip_free = kernel_steps[0] - before[0], kernel_steps[1] - before[1]
        assert executed == ell
        shares.append(clip_free)
    assert shares == [0, 0, 0, 2 * W, 2 * W + 1, 5000, shares[6], 0]
    assert 0 < shares[6] < 5000


def test_timed_iterate_is_bit_identical_to_the_projected_loop(pend, random_instance, monkeypatch,
                                                              kernel_steps):
    # the oracle is pgm_iterate with the certificate forced false: the
    # projected kernel over all ell steps, as timed calls ran it before
    def projected(*args):
        with monkeypatch.context() as m:
            m.setattr(tdmpc.pgm, "_ball_certificate", lambda qp, cfg, GX: None)
            return T.pgm_iterate(*args)

    rng = np.random.default_rng(53)
    setups = [pend, PendulumSetup(10)]
    problems = [(s.model, s.qp, s.cfg) for s in setups]
    problems += [random_instance(rng)[:3] for _ in range(20)]
    entry = later = 0
    for model, qp, cfg in problems:
        X = rng.standard_normal((model.n, 4)) * 10.0 ** rng.uniform(-3.0, 0.5, 4)
        NU = qp.nu_box.sample(rng, 4)
        NU[:, 0] = 0.0
        for ell in (2 * W + 1, int(rng.integers(2 * W, 1500))):
            before = kernel_steps[1]
            out = T.pgm_iterate(qp, cfg, X, NU, ell)
            free = kernel_steps[1] - before
            entry, later = entry + (free == ell), later + (0 < free < ell)
            assert out.tobytes() == projected(qp, cfg, X, NU, ell).tobytes()
            for j in range(X.shape[1]):
                before = kernel_steps[1]
                single = T.pgm_iterate(qp, cfg, X[:, j], NU[:, j], ell)
                free = kernel_steps[1] - before
                entry, later = entry + (free == ell), later + (0 < free < ell)
                assert single.tobytes() == projected(qp, cfg, X[:, j], NU[:, j], ell).tobytes()
        assert np.array_equal(T.pgm_iterate(qp, cfg, X, NU, 2 * W + 1),
                              _clip_loop(qp, cfg, X, NU, 2 * W + 1))
    assert entry > 0 and later > 0


def test_preset_checks_fewer_than_once_a_window(monkeypatch, kernel_steps):
    # the N = 10 preset's sweep budgets past the gate: each call forms the
    # certificate once and checks on its schedule, timed or untimed
    setup = PendulumSetup(10)
    certificate, counts = tdmpc.pgm._ball_certificate, collections.Counter()

    def counted(qp, cfg, GX):
        check = certificate(qp, cfg, GX)
        counts["calls"] += 1
        counts["never"] += check is None

        def counted_check(V):
            wait = check(V)
            counts["checks"] += 1
            counts["failed"] += wait != 0
            return wait

        return check and counted_check

    monkeypatch.setattr(tdmpc.pgm, "_ball_certificate", counted)
    budgets = [ell for ell in tdmpc.cli.default_ell_list() if ell >= 2 * W]
    for repeats, ells in ((0, budgets), (1, budgets[::3])):
        counts.clear()
        before = kernel_steps[0]
        for ell in ells:
            T.run_tdmpc(setup.model, setup.qp, setup.cfg, setup.x0, ell, setup.T, repeats=repeats)
        windows = (kernel_steps[0] - before) // W
        checking = counts["calls"] - counts["never"]
        assert counts["calls"] == len(ells) * setup.T * max(repeats, 1) and counts["never"] > 0
        assert 0 < counts["failed"] < counts["checks"] < 2 * checking
        assert 10 * counts["checks"] < windows


def test_iteration_count_must_be_an_integer(pend):
    x, nu = pend.x0, np.zeros(pend.qp.H.shape[0])
    for ell in (2.5, 2.0, np.float64(3.0), "3", None):
        with pytest.raises(T.NumericsError, match="iteration count must be an integer"):
            T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell)
    expected = T.pgm_iterate(pend.qp, pend.cfg, x, nu, 3)
    for ell in (np.int64(3), np.int32(3), np.uint8(3)):
        assert np.array_equal(T.pgm_iterate(pend.qp, pend.cfg, x, nu, ell), expected)
