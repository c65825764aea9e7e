import numpy as np
import pytest

from conftest import (nominal_observations, random_observable_model,
                      record_calls, run_filter, seeded_model)
from oracles import solve_budget_of
from resilientkf.filters import (
    ConfigError,
    FilterConfig,
    FilterError,
    _inflate,
    _Members,
    covariance_schedule,
    mean_pass,
)
from resilientkf.model import GaussianBelief
from resilientkf.numerics import NumericsError, _cholesky, gamma


def _run(model, kind, ys, init, **kw):
    return run_filter(model, FilterConfig(kind=kind, **kw), init, ys)


def test_config_validation():
    FilterConfig(kind="kf")
    FilterConfig(kind="urkf", c=0.1)
    FilterConfig(kind="ursf", theta=0.01)
    with pytest.raises(FilterError):
        FilterConfig(kind="urkf")
    with pytest.raises(FilterError):
        FilterConfig(kind="urkf", theta=0.1)
    with pytest.raises(FilterError):
        FilterConfig(kind="ursf", c=0.1)
    with pytest.raises(FilterError):
        FilterConfig(kind="kf", c=0.1)
    with pytest.raises(FilterError):
        FilterConfig(kind="nope")
    # case / dash normalization
    assert FilterConfig(kind="U-RKF", c=0.1).kind == "urkf"


def test_config_from_dict_roundtrip():
    fc = FilterConfig.from_dict({"kind": "urkf", "c": 0.5})
    assert fc.kind == "urkf" and fc.c == 0.5
    # the budget solve's tolerance is a constant, not a config key
    with pytest.raises(ConfigError, match="solver_tol"):
        FilterConfig.from_dict({"kind": "urkf", "c": 0.5, "solver_tol": 1e-12})


def test_degenerate_budgets_match_kf(model_a):
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = nominal_observations(model_a, init, 40, seed=1)
    ref = _run(model_a, "kf", ys, init)
    # theta = 0 variants coincide with the plain filter exactly
    for kind in ("ursf", "prsf"):
        steps = _run(model_a, kind, ys, init, theta=0.0)
        for s, r in zip(steps, ref):
            assert np.abs(s.mean_filt - r.mean_filt).max() < 1e-12
            assert np.abs(s.cov_filt - r.cov_filt).max() < 1e-12
            assert np.abs(s.gain - r.gain).max() < 1e-12
    # the budget map is quadratic near zero (gamma ~ theta^2 tr(P^2)/4),
    # so c = 1e-14 implies theta ~ 1e-7 and output deviations of that order
    for kind in ("urkf", "prkf"):
        steps = _run(model_a, kind, ys, init, c=1e-14)
        for s, r in zip(steps, ref):
            assert np.abs(s.mean_filt - r.mean_filt).max() < 1e-5
            assert np.abs(s.cov_filt - r.cov_filt).max() < 1e-5
            assert np.abs(s.gain - r.gain).max() < 1e-5


def test_urkf_budget_spent_exactly(model_a):
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = nominal_observations(model_a, init, 30, seed=2)
    c = 0.05
    for s in _run(model_a, "urkf", ys, init, c=c):
        assert gamma(s.cov_filt, s.theta) == pytest.approx(c, abs=1e-10)
        # distorted covariance dominates the filtered one
        assert np.linalg.eigvalsh(s.cov_distorted - s.cov_filt).min() >= -1e-12


def test_ursf_theta_constant(model_a):
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = nominal_observations(model_a, init, 20, seed=3)
    steps = _run(model_a, "ursf", ys, init, theta=0.02)
    assert all(s.theta == 0.02 for s in steps)


def test_prkf_distorts_prediction(model_a):
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = nominal_observations(model_a, init, 20, seed=4)
    ks = _run(model_a, "kf", ys, init)
    ps = _run(model_a, "prkf", ys, init, c=0.05)
    # distinct gains from the first step (prediction covariance inflated)
    assert np.abs(ps[0].gain - ks[0].gain).max() > 1e-6
    for s in ps:
        assert s.theta > 0


def test_infeasible_theta_raises(model_a):
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = nominal_observations(model_a, init, 5, seed=6)
    with pytest.raises(FilterError):
        run_filter(model_a, FilterConfig(kind="ursf", theta=1e3),
                   init, ys)


def test_kf_step_shapes(model_a):
    belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    (s,) = run_filter(model_a, FilterConfig(kind="kf"), belief,
                      np.array([[0.5]]))
    assert s.gain.shape == (2, 1)
    assert s.cov_pred.shape == (2, 2)
    assert s.theta == 0.0
    assert np.allclose(s.cov_filt, s.cov_distorted)


def test_step_dispatch(model_a):
    belief = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    ys = np.array([[0.1]])
    for fc in (FilterConfig(kind="kf"), FilterConfig(kind="urkf", c=0.1),
               FilterConfig(kind="prsf", theta=0.01)):
        (s,) = run_filter(model_a, fc, belief, ys)
        assert np.isfinite(s.mean_pred).all()


def _reference_step(model, kind, value, mean, P, y):
    """One step written out in full: optional inflation of the prediction,
    update, optional inflation of the filtered covariance, prediction."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n = model.n

    def inflate(P):
        theta = (solve_budget_of(P, value).theta if kind in ("urkf", "prkf")
                 else value)
        return theta, np.linalg.solve(np.eye(n) - theta * P, P)

    theta = 0.0
    if kind in ("prkf", "prsf"):
        theta, P = inflate(P)
    L = np.linalg.solve(C @ P @ C.T + R, C @ P).T
    mean_filt = mean + L @ (y - C @ mean)
    P_filt = P - L @ C @ P
    V = P_filt
    if kind in ("urkf", "ursf"):
        theta, V = inflate(P_filt)
    return L, theta, mean_filt, P_filt, V, A @ mean_filt, A @ V @ A.T + Q


def test_run_filter_matches_reference_loop(model_b):
    models = [model_b, random_observable_model(np.random.default_rng(11),
                                               nmax=6, mmax=3)]
    for model in models:
        n = model.n
        init = GaussianBelief(mean=0.1 * np.ones(n), cov=0.3 * np.eye(n))
        ys = nominal_observations(model, init, 25, seed=5)
        for kind, value in (("kf", None), ("urkf", 0.05), ("prkf", 0.05),
                            ("ursf", 0.002), ("prsf", 0.002)):
            kw = {} if value is None else {
                ("c" if kind.endswith("kf") else "theta"): value}
            steps = run_filter(model, FilterConfig(kind=kind, **kw), init, ys)
            assert len(steps) == len(ys)
            mean, P = init.mean, init.cov
            for s, y in zip(steps, ys):
                ref = _reference_step(model, kind, value, mean, P, y)
                got = (s.gain, s.theta, s.mean_filt, s.cov_filt,
                       s.cov_distorted, s.mean_pred, s.cov_pred)
                for g, r in zip(got, ref):
                    assert np.shape(g) == np.shape(r)
                    assert np.abs(g - r).max() <= 1e-12 * (1 + np.abs(r).max())
                mean, P = ref[5], ref[6]


def _inflate_one(P, theta):
    """_inflate of P as the one member of a stack, an ursf at ``theta``."""
    thetas = [None]
    V = _inflate(_Members([FilterConfig(kind="ursf", theta=theta)]), [0],
                 P[None], thetas, _cholesky)
    assert thetas == [theta]
    return V[0]


@pytest.mark.parametrize("cond", [1.0, 1e6])
@pytest.mark.parametrize("x", [1e-9, 0.5, 0.999])
def test_inflate_matches_information_form(cond, x):
    # (P^{-1} - theta I)^{-1}, taken as (I - theta P)^{-1} P: the explicit
    # double inverse is itself 1.4e-9 off a 50-digit evaluation at cond 1e6
    # and x = 0.999, while cond(I - theta P) <= 1e3 keeps this form near eps
    n = 5
    U, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((n, n)))
    lams = np.geomspace(1.0, 1.0 / cond, n) if cond > 1 else np.full(n, 2.0)
    P = (U * lams) @ U.T
    P = 0.5 * (P + P.T)
    theta = x / np.linalg.eigvalsh(P)[-1]
    ref = np.linalg.solve(np.eye(n) - theta * P, P)
    ref = 0.5 * (ref + ref.T)
    V = _inflate_one(P, theta)
    assert np.abs(V - ref).max() <= 1e-10 * np.abs(ref).max()
    if cond == 1.0:
        old = np.linalg.inv(np.linalg.inv(P) - theta * np.eye(n))
        assert np.abs(V - old).max() <= 1e-10 * np.abs(old).max()


def test_inflate_rejects_infeasible_and_indefinite():
    P = np.diag([2.0, 0.5])
    with pytest.raises(FilterError):
        _inflate_one(P, 0.5)      # theta * sigma_max = 1
    with pytest.raises(FilterError):
        _inflate_one(P, 0.75)
    with pytest.raises(NumericsError):
        _inflate_one(np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1)


def test_inflate_distorts_each_listed_member_at_its_own_theta():
    # members 1 (ursf) and 2 (urkf, its theta the budget solve) of a stack
    # are distorted, each with the bytes of its own one-member call; the kf
    # member is left as it is
    P1, P2 = np.diag([2.0, 0.5]), np.array([[1.0, 0.3], [0.3, 0.8]])
    configs = [FilterConfig(kind="kf"), FilterConfig(kind="ursf", theta=0.1),
               FilterConfig(kind="urkf", c=0.05)]
    thetas = [0.0, None, None]
    V = _inflate(_Members(configs), [1, 2], np.stack([P1, P1, P2]), thetas,
                 _cholesky)
    assert thetas == [0.0, 0.1, solve_budget_of(P2, 0.05).theta]
    assert V[0].tobytes() == P1.tobytes()
    for Vi, P, theta in ((V[1], P1, 0.1), (V[2], P2, thetas[2])):
        assert Vi.tobytes() == _inflate_one(P, theta).tobytes()
        ref = np.linalg.solve(np.eye(2) - theta * P, P)
        assert np.abs(Vi - ref).max() <= 1e-12 * np.abs(ref).max()


def test_schedule_budget_matches_solve_budget(model_a, model_b):
    # the schedule solves the budget from its own eigenvalues of the
    # covariance; the public solve must give the same theta bit for bit
    for model in (model_a, model_b, seeded_model(1, 9, 3)):
        P0 = np.eye(model.n)
        for kind, field in (("urkf", "cov_filt"), ("prkf", "cov_pred")):
            sched = covariance_schedule(
                model, FilterConfig(kind=kind, c=0.1), P0, 60)
            covs = getattr(sched, field)
            for t, theta in enumerate(sched.thetas):
                assert theta == solve_budget_of(covs[t], 0.1).theta


@pytest.mark.parametrize("which", ["a", "r"])
@pytest.mark.parametrize("config, per_step", [
    (FilterConfig(kind="urkf", c=0.05), 1), (FilterConfig(kind="prkf", c=0.05), 1),
    (FilterConfig(kind="ursf", theta=0.001), 1), (FilterConfig(kind="kf"), 0)],
    ids=["urkf", "prkf", "ursf", "kf"])
def test_schedule_decomposes_each_covariance_once(which, config, per_step,
                                                  model_a, monkeypatch):
    # a budgeted step's one eigh guards the covariance, feeds the budget
    # solve and the inflation; a computed step is one before the cycle
    model = model_a if which == "a" else seeded_model(0, 9, 3)
    calls = record_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    sched = covariance_schedule(model, config, np.eye(model.n), 40)
    computed = 41 if sched.cycle is None else sum(sched.cycle)
    assert (which == "a") == (computed < 41)
    assert len(calls["eigh"]) == per_step * computed
    assert not calls["eigvalsh"]


def test_mean_pass_stacked_matches_matmul(model_a, model_b):
    # stacked (filters, n, runs) means with single-output gains take the
    # broadcast product L * v: the same floats as the matmul L @ v
    rng = np.random.default_rng(3)
    for model in (model_a, model_b):
        P0 = np.eye(model.n)
        gains = np.stack([covariance_schedule(model, fc, P0, 30).gains
                          for fc in (FilterConfig(kind="kf"),
                                     FilterConfig(kind="urkf", c=0.1))],
                         axis=1)
        x = rng.standard_normal((2, model.n, 4))
        ys = rng.standard_normal((31, 1, 4))
        for (x_f, x_p), L, y in zip(mean_pass(model, gains, x, ys), gains, ys):
            ref = x + L @ (y - model.C @ x)
            x = model.A @ ref
            assert np.array_equal(x_f, ref) and np.array_equal(x_p, x)
