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
    simulate_lf,
    steady_state_w,
)
from resilientkf.model import GaussianBelief
from resilientkf.numerics import check_sympd, spd_sqrt, sym

from conftest import record_calls, seeded_model
from oracles import gaussian_kl, one_step_joints


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
    # the direct feedback form the pass computes vs the Riccati form
    # Abar^T (W^{-1} - Lw Lw^T)^{-1} Abar it equals by Woodbury
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), 0.01 * np.eye(2), 60)
    bwd = backward_pass(fwd, model_a)
    A, C = model_a.A, model_a.C
    for t in range(60, -1, -1):
        L = fwd.gains[t]
        W = bwd.W[t]
        Lw = L @ bwd.r_half
        Abar = (np.eye(2) - L @ C) @ A
        core = np.linalg.inv(W) - Lw @ Lw.T
        riccati = Abar.T @ np.linalg.inv(core) @ Abar
        assert np.abs(bwd.omega_inv[t] - riccati).max() < 1e-10


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


def _channel_reference(fwd, model):
    """The channel recursion of ``backward_pass`` with the former formulas:
    eigvalsh of Oinv decides feasibility, then O = inv(Oinv) and Ups =
    cholesky(O).  Returns O, Ups, F and omega_inv stacked over the steps,
    or raises SynthesisError naming the first infeasible step."""
    n, m, N = model.n, model.m, fwd.horizon
    Rh = spd_sqrt(model.R)
    out = {k: np.empty((N + 1,) + shape) for k, shape in (
        ("O", (m, m)), ("Ups", (m, m)), ("F", (m, n)), ("omega_inv", (n, n)))}
    omega_inv = np.zeros((n, n))
    for t in range(N, -1, -1):
        L = fwd.gains[t]
        Lw = L @ Rh
        W = sym(fwd.thetas[t] * np.eye(n) + omega_inv)
        Oinv = sym(np.eye(m) - Lw.T @ W @ Lw)
        if np.linalg.eigvalsh(Oinv)[0] <= 0:
            raise SynthesisError(f"channel synthesis infeasible at t={t}")
        O = sym(np.linalg.inv(Oinv))
        ILC = np.eye(n) - L @ model.C
        F = -O @ Lw.T @ W @ ILC
        FA, Abar = F @ model.A, ILC @ model.A
        omega_inv = sym(Abar.T @ W @ Abar + FA.T @ Oinv @ FA)
        out["O"][t], out["Ups"][t] = O, np.linalg.cholesky(O)
        out["F"][t], out["omega_inv"][t] = F, omega_inv
    return out


def _failing_step(pass_, fwd, model):
    """The step at which ``pass_`` raises SynthesisError, else None."""
    try:
        pass_(fwd, model)
    except SynthesisError as e:
        return int(str(e).split("at t=")[1].split(":")[0])
    return None


def test_backward_pass_matches_the_inverse_then_cholesky_reference():
    # one Cholesky factor of J Oinv J gives O and Ups by one triangular
    # inverse; over the seeded grid they and what follows from them match
    # the former inv-then-cholesky formulas to roundoff, Ups is exactly
    # lower triangular and O exactly symmetric
    for s in range(15):
        for n in range(1, 7):
            for m in range(1, 4):
                model = seeded_model(s, n, m)
                fwd = covariance_schedule(
                    model, FilterConfig(kind="urkf", c=0.05), np.eye(n), 40)
                bwd = backward_pass(fwd, model)
                ref = _channel_reference(fwd, model)
                for name, want in ref.items():
                    got = getattr(bwd, name)[:41]
                    scale = np.abs(want).reshape(41, -1).max(axis=1)
                    err = np.abs(got - want).reshape(41, -1).max(axis=1)
                    assert (err <= 1e-13 * scale).all(), ((s, n, m), name)
                assert np.array_equal(bwd.Ups, np.tril(bwd.Ups))
                assert np.array_equal(bwd.O, bwd.O.transpose(0, 2, 1))


@pytest.mark.parametrize("which", ["a", (1, 3, 2), (0, 6, 3), (4, 4, 2),
                                   (2, 5, 3)])
def test_backward_pass_fails_where_the_reference_does(which, model_a):
    # scale a feasible urkf schedule's thetas up to where the reference
    # synthesis first fails, to 1e-10 relative: on both sides of that limit
    # the pass decides as the reference does, and fails at the same step
    model = model_a if which == "a" else seeded_model(*which)
    fwd = covariance_schedule(
        model, FilterConfig(kind="urkf", c=5e-2), np.eye(model.n), 20)
    scaled = lambda k: fwd._replace(thetas=k * fwd.thetas)
    lo, hi = 1.0, 1e4
    assert _failing_step(_channel_reference, scaled(lo), model) is None
    assert _failing_step(_channel_reference, scaled(hi), model) is not None
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if _failing_step(_channel_reference, scaled(mid), model) is None:
            lo = mid
        else:
            hi = mid
    assert _failing_step(backward_pass, scaled(lo), model) is None
    step = _failing_step(backward_pass, scaled(hi), model)
    assert step is not None
    assert step == _failing_step(_channel_reference, scaled(hi), model)


def test_backward_pass_factors_once_per_step(monkeypatch):
    # one Cholesky per computed step (after the one of R^{1/2}) decides
    # feasibility; the one inverse per step is of its triangular factor,
    # not of Oinv, and no eigenvalues are taken
    model = seeded_model(0, 9, 3)
    fwd = covariance_schedule(
        model, FilterConfig(kind="urkf", c=0.05), np.eye(9), 40)
    calls = record_calls(monkeypatch, np.linalg, "cholesky", "inv", "eigh",
                         "eigvalsh")
    backward_pass(fwd, model)
    assert len(calls["cholesky"]) == 1 + 41
    assert len(calls["inv"]) == 41
    assert all(np.array_equal(X, np.triu(X)) for X in calls["inv"])
    assert not calls["eigh"] and not calls["eigvalsh"]


@pytest.mark.parametrize("scale, step", [(2, None), (5, None), (10, 19),
                                         (50, 20)])
def test_backward_pass_rejects_an_infeasible_channel(model_a, scale, step):
    # a feasible urkf schedule with its thetas scaled: at 10x and 50x the
    # channel step I - Lw^T W Lw loses definiteness; at 2x and 5x it holds
    fwd = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=5e-2), np.eye(2), 20)
    scaled = fwd._replace(thetas=scale * fwd.thetas)
    if step is None:
        bwd = backward_pass(scaled, model_a)
        assert np.isfinite(bwd.omega_inv).all()
        return
    msg = f"at t={step}: I - L\\^T W L is not positive definite"
    with pytest.raises(SynthesisError, match=msg):
        backward_pass(scaled, model_a)


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


@pytest.mark.parametrize("which", ["a", "seeded_5_4_2"])
def test_assemble_lf_matches_per_step_loop(which, model_a):
    # the stacked assembly does each step's arithmetic unchanged: bit for bit
    model = model_a if which == "a" else seeded_model(5, 4, 2)
    n, m = model.n, model.m
    A, C, I = model.A, model.C, np.eye(n)
    fwd = covariance_schedule(
        model, FilterConfig(kind="urkf", c=5e-3), np.eye(n), 30)
    bwd = backward_pass(fwd, model)
    lf = assemble_lf(fwd, bwd, model)
    for t in range(31):
        L = fwd.gains[t]
        F = bwd.r_half @ bwd.F[t]
        Ups = bwd.r_half @ bwd.Ups[t]
        Abar = np.zeros((3 * n, 3 * n))
        Abar[:n, :n] = A
        Abar[n:2 * n, n:2 * n] = A - L @ C @ A - L @ F @ A
        Abar[n:2 * n, 2 * n:] = I - L @ F - L @ C
        Bbar = np.zeros((3 * n, n + m))
        Bbar[:n, :n] = I
        Bbar[n:2 * n, n:] = -L @ Ups
        Bbar[2 * n:, :n] = I
        assert np.array_equal(lf.Abar[t], Abar)
        assert np.array_equal(lf.Bbar[t], Bbar)
        assert np.array_equal(lf.Cbar[t], np.hstack([C, F @ A, F]))
        assert np.array_equal(lf.Dbar[t], np.hstack([np.zeros((m, n)), Ups]))


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
    # with L = 0, Abar = A and the feedback J is zero
    assert np.abs(J).max() == 0.0
    assert rad == max(abs(np.linalg.eigvals(model_a.A)))


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
