import numpy as np
import pytest

from resilientkf.filters import (
    ConfigError,
    FilterConfig,
    FilterError,
    covariance_schedule,
)
from resilientkf.least_favorable import (
    SynthesisError,
    assemble_lf,
    backward_pass,
    error_cov_recursion,
    injection_covariances,
    one_step_joints,
    simulate_lf,
    steady_state_w,
)
from resilientkf.model import GaussianBelief
from resilientkf.numerics import check_sympd, gaussian_kl, spd_sqrt, sym

from conftest import seeded_model


def test_update_schedule_tiny_budget_is_kf(model_a):
    P0 = np.eye(2)
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=1e-14), P0, 30)
    kf_gains = covariance_schedule(model_a, FilterConfig(kind="kf"), P0, 30)[0]
    assert max(t for t in fwd.thetas) < 1e-6
    for L, Lk in zip(fwd.gains, kf_gains):
        assert np.abs(L - Lk).max() < 1e-6


def test_update_schedule_theta_budget(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="ursf", theta=0.02), np.eye(2), 10)
    assert all(t == 0.02 for t in fwd.thetas)
    with pytest.raises(ConfigError):
        FilterConfig(kind="urkf")
    with pytest.raises(ConfigError):
        FilterConfig(kind="urkf", c=-1.0)


def test_backward_zero_budget_collapse(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="ursf", theta=0.0), np.eye(2), 20)
    bwd = backward_pass(fwd, model_a)
    for t in range(21):
        assert np.abs(bwd.F[t]).max() < 1e-12
        assert np.abs(bwd.O[t] - np.eye(1)).max() < 1e-12
        assert np.abs(bwd.omega_inv[t]).max() < 1e-12
    assert np.abs(bwd.W[20] - 0.0).max() < 1e-12


def test_backward_omega_forms_agree(model_a):
    # SPD-safe Riccati form vs direct feedback composition
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 60)
    bwd = backward_pass(fwd, model_a)
    A, C = model_a.A, model_a.C
    for t in range(60, -1, -1):
        L = fwd.gains[t]
        W = bwd.W[t]
        O = bwd.O[t]
        F = bwd.F[t]
        Abar = (np.eye(2) - L @ C) @ A
        direct = (F @ A).T @ np.linalg.inv(O) @ (F @ A) + Abar.T @ W @ Abar
        assert np.abs(bwd.omega_inv[t] - direct).max() < 1e-10


def test_backward_terminal_condition(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 15)
    bwd = backward_pass(fwd, model_a)
    assert np.abs(bwd.W[15] - fwd.thetas[15] * np.eye(2)).max() < 1e-14


def test_backward_infeasible_budget(model_b):
    # an absurdly large fixed theta breaks the synthesis already in the
    # forward inflation, at the first step after the prior
    with pytest.raises(FilterError, match="t=1"):
        covariance_schedule(
            model_b, FilterConfig(kind="ursf", theta=0.4), np.eye(2), 200)


def test_assemble_lf_structure(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 10)
    bwd = backward_pass(fwd, model_a)
    lf = assemble_lf(fwd, bwd, model_a)
    n, m = 2, 1
    for t in range(11):
        assert lf.Abar[t].shape == (3 * n, 3 * n)
        assert lf.Bbar[t].shape == (3 * n, n + m)
        assert lf.Cbar[t].shape == (m, 3 * n)
        assert lf.Dbar[t].shape == (m, n + m)
        # third block row of the transition is identically zero
        assert np.abs(lf.Abar[t][2 * n:, :]).max() == 0.0
        assert np.abs(lf.Dbar[t][:, :n]).max() == 0.0
    assert np.allclose(lf.Xi[:n, :n], model_a.Q)
    assert np.allclose(lf.Xi[n:, n:], np.eye(m))


def test_zero_budget_lf_matches_nominal_moments(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="ursf", theta=0.0), np.eye(2), 40)
    bwd = backward_pass(fwd, model_a)
    lf = assemble_lf(fwd, bwd, model_a)
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    _, X, Y = simulate_lf(lf, init, seed=4, n_traj=30000)
    # state covariance at t=12 against the nominal propagation
    P = np.eye(2)
    for _ in range(12):
        P = model_a.A @ P @ model_a.A.T + model_a.Q
    emp = np.cov(X[:, 12].T)
    assert np.abs(emp - P).max() / np.abs(P).max() < 0.05
    # measurement noise variance equals R
    V = Y[:, 12] - X[:, 12] @ model_a.C.T
    assert abs(np.var(V) - model_a.R[0, 0]) < 0.05


def test_simulate_lf_deterministic(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 10)
    bwd = backward_pass(fwd, model_a)
    lf = assemble_lf(fwd, bwd, model_a)
    init = GaussianBelief(mean=np.zeros(2), cov=np.eye(2))
    a = simulate_lf(lf, init, seed=5, n_traj=3)
    b = simulate_lf(lf, init, seed=5, n_traj=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_kl_budget_exact_along_pass(model_a):
    c = 5e-2
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=c), 0.01 * np.eye(2), 60)
    z = np.zeros(3)
    for t in range(61):
        K, Kt = one_step_joints(model_a, fwd, t)
        assert gaussian_kl(z, Kt, z, K) == pytest.approx(c, abs=1e-8)


def test_injection_covariances_psd(model_a):
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 30)
    Ds = injection_covariances(fwd)
    assert Ds.shape == (31, 2, 2)
    # the stacked form has the bytes of the per-step sym(V_t - P_t)
    ref = [sym(V - P) for V, P in zip(fwd.cov_distorted, fwd.cov_filt)]
    assert np.array_equal(Ds, ref)
    for D in Ds:
        assert np.linalg.eigvalsh(D).min() >= -1e-12


def test_worst_case_cov_zero_budget_is_kf(model_a):
    P0 = 0.5 * np.eye(2)
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="ursf", theta=0.0), P0, 40)
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, P0=P0)
    filts = covariance_schedule(
        model_a, FilterConfig(kind="kf"), P0, 40).cov_filt
    for t in range(41):
        assert np.abs(Pis[t][:2, :2] - filts[t]).max() < 1e-10


def test_worst_case_matched_filter_cov(model_a):
    # under the saddle-achieving model the robust filter is exactly matched:
    # its error covariance equals its own internal distorted covariance
    P0 = 0.01 * np.eye(2)
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, 120)
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, P0=P0)
    for t in (40, 80, 120):
        assert np.abs(Pis[t][:2, :2] - fwd.cov_filt[t]).max() < 1e-9


def test_worst_case_psd_and_horizon_check(model_a):
    P0 = 0.01 * np.eye(2)
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, 20)
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, P0=P0)
    for Pi in Pis:
        assert np.linalg.eigvalsh(Pi).min() >= -1e-10
    with pytest.raises(SynthesisError):
        error_cov_recursion(model_a, fwd.gains[:-1], fwd, P0=P0)


def test_channel_pi_recursion_psd_and_mismatch(model_a):
    P0 = 0.01 * np.eye(2)
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, 20)
    bwd = backward_pass(fwd, model_a)
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, bwd, P0)
    for Pi in Pis:
        assert np.linalg.eigvalsh(Pi).min() >= -1e-10
    with pytest.raises(SynthesisError):
        error_cov_recursion(model_a, fwd.gains[:-1], fwd, bwd, P0)


def test_channel_mc_agrees_with_pi(model_a):
    # sample covariance of the robust filter error on channel-model
    # trajectories vs the Lyapunov recursion
    P0 = 0.01 * np.eye(2)
    N = 60
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, N)
    bwd = backward_pass(fwd, model_a)
    lf = assemble_lf(fwd, bwd, model_a)
    init = GaussianBelief(mean=np.zeros(2), cov=P0)
    _, X, Y = simulate_lf(lf, init, seed=8, n_traj=20000)
    xh = np.zeros((20000, 2))
    err_t = None
    for t in range(N + 1):
        innov = Y[:, t] - xh @ model_a.C.T
        xf = xh + innov @ fwd.gains[t].T
        if t == 50:
            err_t = X[:, t] - xf
        xh = xf @ model_a.A.T
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, bwd, P0)
    emp = np.cov(err_t.T)
    ana = Pis[50][:2, :2]
    assert abs(np.trace(emp) - np.trace(ana)) / np.trace(ana) < 0.05


def test_worst_case_mc_agrees_with_pi(model_a):
    P0 = 0.01 * np.eye(2)
    N = 60
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, N)
    # the saddle law: d_t ~ N(0, V_t - P_filt_t) is injected after the
    # measurement at t; the process and measurement noises are nominal
    rng = np.random.default_rng(9)
    Ds = injection_covariances(fwd)
    Lq, Lr = spd_sqrt(model_a.Q), spd_sqrt(model_a.R)
    Lp = np.linalg.cholesky(P0 + 1e-15 * np.eye(2))
    x = rng.standard_normal((20000, 2)) @ Lp.T
    xh = np.zeros((20000, 2))
    err_t = None
    for t in range(N + 1):
        y = x @ model_a.C.T + rng.standard_normal((20000, 1)) @ Lr.T
        innov = y - xh @ model_a.C.T
        xf = xh + innov @ fwd.gains[t].T
        if t == 50:
            err_t = x - xf
        Ld = np.linalg.cholesky(Ds[t] + 1e-15 * np.eye(2))
        d = rng.standard_normal((20000, 2)) @ Ld.T
        x = (x + d) @ model_a.A.T + rng.standard_normal((20000, 2)) @ Lq.T
        xh = xf @ model_a.A.T
    Pis = error_cov_recursion(model_a, fwd.gains, fwd, P0=P0)
    emp = np.cov(err_t.T)
    ana = Pis[50][:2, :2]
    assert abs(np.trace(emp) - np.trace(ana)) / np.trace(ana) < 0.05


def _steady_state_residual(model, L, theta, W):
    """W's residual in W = Abar^T (W^{-1} - L R L^T)^{-1} Abar + theta I."""
    Abar = (np.eye(model.n) - L @ model.C) @ model.A
    core = np.linalg.inv(np.linalg.inv(W) - L @ model.R @ L.T)
    return Abar.T @ core @ Abar + theta * np.eye(model.n) - W


def test_steady_state_w(model_a):
    P0 = 0.01 * np.eye(2)
    N = 2000
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), P0, N)
    L, theta = fwd.gains[-1], fwd.thetas[-1]
    W, J, rad = steady_state_w(model_a, L, theta)
    res = _steady_state_residual(model_a, L, theta, W)
    assert np.abs(res).max() < 1e-8
    assert rad < 1.0
    # matches the tail of a long-horizon backward pass
    bwd = backward_pass(fwd, model_a)
    assert np.abs(bwd.W[N // 2] - W).max() < 1e-6


def test_steady_state_w_zero_theta(model_a):
    W, J, rad = steady_state_w(model_a, np.zeros((2, 1)), 0.0)
    assert np.abs(W).max() == 0.0
    assert rad < 1.0 or rad >= 0.0


def test_steady_state_w_solves_to_roundoff():
    # the former fixed-point loop stopped at a residual of 6.3e-9 relative
    model = seeded_model(8, 5, 1)
    fwd = covariance_schedule(
        model, FilterConfig(kind="urkf", c=1e-2), np.eye(5), 400)
    L, theta = fwd.gains[-1], fwd.thetas[-1]
    W, _, _ = steady_state_w(model, L, theta)
    res = _steady_state_residual(model, L, theta, W)
    assert np.abs(res).max() <= 1e-12 * np.abs(W).max()


def test_steady_state_w_infeasible_theta():
    model = seeded_model(11, 4, 2)
    fwd = covariance_schedule(
        model, FilterConfig(kind="urkf", c=0.05), np.eye(4), 400)
    with pytest.raises(SynthesisError):
        steady_state_w(model, fwd.gains[-1], 20 * fwd.thetas[-1])


# The two recursions error_cov_recursion replaced, kept as references.


def _ref_worst_case_error_cov(model, eval_gains, fwd, P0=None):
    n = model.n
    N = fwd.horizon
    if len(eval_gains) != N + 1:
        raise SynthesisError("gain schedule length does not match the horizon")
    P0 = check_sympd(P0 if P0 is not None else fwd.cov_pred[0])
    Ds = injection_covariances(fwd)
    A, C, Q, R = model.A, model.C, model.Q, model.R
    I = np.eye(n)

    def filtered_block(Lp, L, Ppred_joint):
        """Joint filtered covariance of (e'_t, e_t) given the joint
        prediction-error covariance and the shared measurement noise."""
        Ep = I - Lp @ C
        E = I - L @ C
        T = np.block([[Ep, np.zeros((n, n))], [np.zeros((n, n)), E]])
        noise = np.block([[Lp @ R @ Lp.T, Lp @ R @ L.T],
                          [L @ R @ Lp.T, L @ R @ L.T]])
        return sym(T @ Ppred_joint @ T.T + noise)

    out = []
    # both estimators start from the same prior, so the joint prediction
    # error at t=0 is perfectly correlated
    J = np.block([[P0, P0], [P0, P0]])
    for t in range(N + 1):
        F = filtered_block(eval_gains[t], fwd.gains[t], J)
        xi_cov = sym(Q + A @ Ds[t] @ A.T)
        Pi = np.zeros((3 * n, 3 * n))
        Pi[:2 * n, :2 * n] = F
        Pi[2 * n:, 2 * n:] = xi_cov
        out.append(sym(Pi))
        # propagate: e*_{t+1}^pred = A e*_t + xi_t (shared xi)
        Ablk = np.block([[A, np.zeros((n, n))], [np.zeros((n, n)), A]])
        ones = np.vstack([I, I])
        J = sym(Ablk @ F @ Ablk.T + ones @ xi_cov @ ones.T)
    return out


def _ref_channel_error_cov(model, eval_gains, fwd, lf, P0=None):
    n = model.n
    N = fwd.horizon
    if len(eval_gains) != N + 1:
        raise SynthesisError("gain schedule length does not match the horizon")
    P0 = check_sympd(P0 if P0 is not None else fwd.cov_pred[0])
    A, C = model.A, model.C
    I = np.eye(n)
    Pi = np.zeros((3 * n, 3 * n))
    Pi[2 * n:, 2 * n:] = P0
    out = []
    for t in range(N + 1):
        Lp = eval_gains[t]
        F, Ups = lf.Cbar[t][:, 2 * n:], lf.Dbar[t][:, n:]
        Gam = lf.Abar[t].copy()
        Gam[:n, :n] = A - Lp @ C @ A
        Gam[:n, n:2 * n] = -Lp @ F @ A
        Gam[:n, 2 * n:] = I - Lp @ F - Lp @ C
        X = lf.Bbar[t].copy()
        X[:n, :n] = 0.0
        X[:n, n:] = -Lp @ Ups
        Pi = sym(Gam @ Pi @ Gam.T + X @ lf.Xi @ X.T)
        out.append(Pi)
    return out


@pytest.mark.parametrize("which", ["a", "b", "seeded_1_3_2"])
@pytest.mark.parametrize("channel", [False, True])
@pytest.mark.parametrize("gains", ["kf", "robust"])
def test_error_cov_recursion_matches_references(which, channel, gains,
                                                model_a, model_b):
    model = {"a": model_a, "b": model_b,
             "seeded_1_3_2": seeded_model(1, 3, 2)}[which]
    N = 200
    P0 = 0.5 * np.eye(model.n)
    fwd = covariance_schedule(model, FilterConfig(kind="urkf", c=1e-2), P0, N)
    schedule = (fwd.gains if gains == "robust" else covariance_schedule(
        model, FilterConfig(kind="kf"), P0, N).gains)
    if channel:
        bwd = backward_pass(fwd, model)
        ref = _ref_channel_error_cov(model, schedule, fwd,
                                     assemble_lf(fwd, bwd, model), P0)
    else:
        bwd = None
        ref = _ref_worst_case_error_cov(model, schedule, fwd, P0)
    new = error_cov_recursion(model, schedule, fwd, bwd, P0)
    assert len(new) == len(ref) == N + 1
    for Pi, Pr in zip(new, ref):
        assert np.abs(Pi - Pr).max() <= 1e-12 * np.abs(Pr).max()
