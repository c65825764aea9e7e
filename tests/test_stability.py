import numpy as np
import pytest

from resilientkf import LinearGaussianModel
from resilientkf.filters import FilterConfig, covariance_schedule
from resilientkf.model import is_observable
from resilientkf.numerics import chol_solve, gamma, sym
from resilientkf.stability import (
    SIGMA_COND_MAX,
    StabilityError,
    ThetaSearchConfig,
    build_gramian_parts,
    c_max,
    pbar_filtered,
    phi_max,
    prop6_guard,
    rk_matrix,
    sigma_beta,
    theta_max,
)


def test_gramian_shapes(model_a):
    k = 10
    parts = build_gramian_parts(model_a, k)
    n, m = 2, 1
    assert parts.obs.shape == (k * m, n)
    assert parts.obs_r.shape == (k * n, n)
    assert parts.Hk.shape == (k * m, k * n)
    assert parts.Lk.shape == (k * n, k * n)
    assert parts.Qk.shape == (k * n, k * n)
    assert parts.Rk_noise.shape == (k * m, k * m)
    # stack ordering: top block is C A^{k-1}, bottom is C
    assert np.allclose(parts.obs[-m:], model_a.C)
    assert np.allclose(parts.obs[:m],
                       model_a.C @ np.linalg.matrix_power(model_a.A, k - 1))
    # strict upper-triangular Toeplitz: zero diagonal blocks
    for i in range(k):
        assert np.abs(parts.Hk[i * m:(i + 1) * m, i * n:(i + 1) * n]).max() == 0.0


def test_gramian_identity_model():
    model = LinearGaussianModel(A=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    parts = build_gramian_parts(model, 2)
    # H_1 = C Q^{1/2} = I in the single off-diagonal block
    assert np.allclose(parts.Hk[:2, 2:], np.eye(2))
    assert np.allclose(parts.obs, np.vstack([np.eye(2), np.eye(2)]))


def test_gramian_rejects_small_window(model_a):
    with pytest.raises(StabilityError):
        build_gramian_parts(model_a, 1)


def test_rk_symmetry_and_small_phi_limit(model_a):
    parts = build_gramian_parts(model_a, 10)
    Rk = rk_matrix(parts, 1e-8)
    assert np.abs(Rk - Rk.T).max() < 1e-12
    # phi -> 0+: the S-term vanishes, leaving the PD observability part
    assert np.linalg.eigvalsh(Rk).min() > 0
    limit = parts.T1
    assert np.abs(Rk - limit).max() < 1e-4
    with pytest.raises(StabilityError):
        rk_matrix(parts, parts.phi_sup * 2)


def test_phi_max_bracketing(model_a):
    parts = build_gramian_parts(model_a, 10)
    tol = 1e-6
    phik = phi_max(model_a, 10, tol=tol)
    assert 0.090 <= phik <= 0.100
    lo = np.linalg.eigvalsh(rk_matrix(parts, phik * (1 - 10 * tol))).min()
    hi = np.linalg.eigvalsh(rk_matrix(parts, phik * (1 + 10 * tol))).min()
    assert lo > 0 > hi


def test_phi_max_second_model(model_b):
    phik = phi_max(model_b, 10)
    assert abs(phik - 0.0052) <= 2e-4


def test_pbar_filtered_first_step(model_a):
    P00 = pbar_filtered(model_a, 0)
    CRC = model_a.C.T @ np.linalg.inv(model_a.R) @ model_a.C
    expected = np.linalg.inv(np.linalg.inv(model_a.Q) + CRC)
    assert np.allclose(P00, expected)


def test_pbar_filtered_reference_value(model_a):
    P = pbar_filtered(model_a, 20)
    ref = np.array([[1.8078, 1.2824], [1.2824, 0.9868]])
    assert np.abs(P - ref).max() < 1e-3


def test_pbar_floor_under_distortion(model_a):
    # the distorted filtered covariances sit above the undistorted floor
    q = 20
    floor = pbar_filtered(model_a, q)
    rep = c_max(model_a, k=10, q=q)
    _, _, filts, _, _ = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=rep.c_max), np.eye(2), 60)
    for t in range(q + 1, 61):
        assert np.linalg.eigvalsh(filts[t] - floor).min() >= -1e-8


def test_c_max_composition(model_a):
    rep = c_max(model_a, k=10, q=20)
    assert rep.c_max == pytest.approx(gamma(rep.pbar_qq, rep.phi_k), abs=1e-12)
    assert rep.c_max > 0


def test_c_max_scalar_closed_form():
    # A=0: P_bar_1 = Q, so the filtered floor is constant (Q^{-1}+R^{-1})^{-1}
    model = LinearGaussianModel(A=[[0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])
    rep = c_max(model, k=1, q=5)
    pbar = 1.0 / (1.0 + 1.0)
    assert rep.pbar_qq[0, 0] == pytest.approx(pbar, abs=1e-12)
    assert rep.c_max == pytest.approx(gamma(np.array([[pbar]]), rep.phi_k), abs=1e-12)


def test_c_max_gain_convergence(model_a):
    rep = c_max(model_a, k=10, q=20)
    gains, _, _, _, _ = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=rep.c_max), np.eye(2), 600)
    assert np.abs(gains[-1] - gains[-2]).max() < 1e-10


def test_sigma_beta_residual(model_b):
    G = np.array([[0.5], [0.4]])
    alpha, rho = 0.8, 1.02
    Sigma, beta = sigma_beta(model_b, G, alpha, rho)
    F = rho * (model_b.A - alpha * G @ model_b.C)
    V = G @ model_b.R @ G.T + model_b.Q
    res = np.abs(Sigma - (F @ Sigma @ F.T + V)).max()
    assert res <= 1e-9 * max(1.0, np.abs(Sigma).max())
    assert np.linalg.eigvalsh(Sigma).min() > 0


def test_sigma_beta_alpha_one_rho_near_one(model_b):
    # alpha = 1 and rho -> 1+ sends both beta summands to zero
    G = np.array([[0.5], [0.4]])
    _, beta = sigma_beta(model_b, G, 1.0, 1.0 + 1e-9)
    assert abs(beta) < 1e-6


def test_sigma_beta_validation(model_b):
    G = np.array([[0.5], [0.4]])
    with pytest.raises(StabilityError):
        sigma_beta(model_b, G, 0.8, 0.99)
    with pytest.raises(StabilityError):
        sigma_beta(model_b, G, 1.5, 1.02)
    with pytest.raises(StabilityError):
        sigma_beta(model_b, G, 0.8, 50.0)  # rho * radius >= 1


def test_theta_max_report_invariant(model_b):
    cfg = ThetaSearchConfig(alpha_points=20, gain_points=9, rho_points=15,
                            refine_rounds=1)
    rep = theta_max(model_b, k=10, config=cfg)
    Sigma, beta = sigma_beta(model_b, rep.G, rep.alpha, rep.rho)
    assert min(beta, rep.phi_k) == pytest.approx(rep.theta_max, abs=1e-12)
    # free-alpha bound dominates the alpha = 1 restriction
    assert rep.theta_max >= rep.search["alpha1"]["theta_max"] - 1e-12


def test_prop6_guard_certifies(model_b):
    rep = theta_max(model_b, k=10,
                    config=ThetaSearchConfig(alpha_points=20, gain_points=9,
                                             rho_points=15, refine_rounds=1))
    Sigma, beta = sigma_beta(model_b, rep.G, rep.alpha, rep.rho)
    ok, cert = prop6_guard(model_b, beta, Sigma, rep.G, rep.alpha, rep.rho)
    assert ok, cert
    assert cert["min_eig_sigma_minus_pred"] >= -1e-8


def test_prop6_guard_rejections(model_b):
    G = np.array([[0.5], [0.4]])
    Sigma, beta = sigma_beta(model_b, G, 0.8, 1.02)
    ok, cert = prop6_guard(model_b, 0.0, Sigma, G, 0.8, 1.02)
    assert ok  # theta = 0 is trivially safe
    ok, cert = prop6_guard(model_b, beta, 2.0 * Sigma, G, 0.8, 1.02)
    assert not ok and "ordering" in cert["reason"]
    ok, cert = prop6_guard(model_b, 10 * beta + 1.0, Sigma, G, 0.8, 1.02)
    assert not ok


def test_prop6_guard_singular_lyapunov(model_b):
    # rho * radius = 1 - 1e-8 makes the Kronecker Lyapunov system singular
    # in floating point; the guard reports it instead of raising
    G = np.array([[7.806], [6.681]])
    alpha = 0.48905
    r = max(abs(np.linalg.eigvals(model_b.A - alpha * G @ model_b.C)))
    rho = (1.0 - 1e-8) / r
    ok, cert = prop6_guard(model_b, 1e-3, 0.01 * np.eye(2), G, alpha, rho)
    assert not ok
    assert "inadmissible" in cert["reason"]


def test_theta_max_records_verification(model_b):
    cfg = ThetaSearchConfig(alpha_points=20, gain_points=9, rho_points=15,
                            refine_rounds=1)
    rep = theta_max(model_b, k=10, config=cfg)
    for ver in (rep.search["verification"],
                rep.search["alpha1"]["verification"]):
        assert ver["ok"] and ver["reason"] == "certified"
        assert 1.0 <= ver["sigma_cond"] <= SIGMA_COND_MAX
    w = np.linalg.eigvalsh(rep.sigma)
    assert rep.search["verification"]["sigma_cond"] == pytest.approx(
        w[-1] / w[0], rel=1e-9)


def test_theta_max_raises_on_failed_verification(model_b, monkeypatch):
    import resilientkf.stability as stab

    monkeypatch.setattr(stab, "prop6_guard",
                        lambda *a, **k: (False, {"reason": "rejected"}))
    cfg = ThetaSearchConfig(alpha_points=5, gain_points=5, rho_points=5,
                            refine_rounds=0)
    with pytest.raises(StabilityError, match="fails verification"):
        theta_max(model_b, k=10, config=cfg)


# ---------------------------------------------------------------------------
# The bound-and-prune theta_max sweep against the full-grid sweep


def _dense_batch_beta(model, alphas, gain_axes, nrho):
    """Every stable grid cell at every rho point: the sweep _batch_beta
    prunes, kept as its oracle."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    mesh = np.meshgrid(alphas, *gain_axes, indexing="ij")
    al = mesh[0].ravel()
    Gflat = np.stack([g.ravel() for g in mesh[1:]], axis=1)  # (N, n*m)
    G = Gflat.reshape(-1, n, m)
    F = A[None] - al[:, None, None] * (G @ C[None])
    r = np.abs(np.linalg.eigvals(F)).max(axis=1)
    ok = r < 1.0 - 1e-12
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        return -np.inf, None
    F, G, al, r = F[idx], G[idx], al[idx], r[idx]
    V = G @ R[None] @ G.transpose(0, 2, 1) + Q[None]
    CRC = sym(C.T @ chol_solve(R, C))
    Inn = np.eye(n * n)
    best_val, best_args = -np.inf, None
    # rho = r^{-s}: log-spaced sweep of (1, 1/r) per cell
    for s in np.linspace(1e-6, 1.0 - 1e-9, nrho):
        rho = np.exp(-s * np.log(np.maximum(r, 1e-12)))
        Fr = rho[:, None, None] * F
        K = Inn[None] - np.einsum("nij,nkl->nikjl", Fr, Fr).reshape(-1, n * n, n * n)
        dets = np.abs(np.linalg.det(K))
        sing = dets < 1e-12
        K[sing] = Inn
        Sig = np.linalg.solve(K, V.reshape(-1, n * n, 1)).reshape(-1, n, n)
        Sig[sing] = -np.eye(n)
        Sig = 0.5 * (Sig + Sig.transpose(0, 2, 1))
        w_all = np.linalg.eigvalsh(Sig)
        good = ((w_all[:, 0] > 0)
                & (w_all[:, -1] <= SIGMA_COND_MAX * w_all[:, 0]))
        if not good.any():
            continue
        Sinv = np.linalg.inv(Sig[good])
        rr, aa = rho[good], al[good]
        M = (((rr ** 2 - 1.0) / rr ** 2)[:, None, None] * Sinv
             + (1.0 - aa ** 2)[:, None, None] * CRC[None])
        w = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]
        j = int(np.argmax(w))
        if w[j] > best_val:
            gi = np.nonzero(good)[0][j]
            best_val = float(w[j])
            best_args = (float(al[gi]), G[gi].copy(), float(rho[gi]))
    return best_val, best_args


def _seeded_model(seed, n, m):
    """A stable, observable n-state, m-output model with PD noises."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        C = rng.standard_normal((m, n))
        B = rng.standard_normal((n, n))
        D = rng.standard_normal((m, m))
        model = LinearGaussianModel(A=A, C=C, Q=B @ B.T + 0.1 * np.eye(n),
                                    R=D @ D.T + 0.1 * np.eye(m))
        if is_observable(model.A, model.C):
            return model


SWEEP_CASES = {
    # model -> (search grid, gain range); n*m = 2 except random_3x2 (6)
    "model_a": (dict(alpha_points=20, gain_points=11, rho_points=50,
                     refine_rounds=2), (-10.0, 10.0)),
    "model_b": (dict(alpha_points=20, gain_points=11, rho_points=50,
                     refine_rounds=2), (-10.0, 10.0)),
    "random_2x1": (dict(alpha_points=12, gain_points=9, rho_points=30,
                        refine_rounds=1), (-3.0, 3.0)),
    "random_3x2": (dict(alpha_points=3, gain_points=3, rho_points=22,
                        refine_rounds=1), (-0.5, 0.5)),
}


def _sweep_model(name, request):
    if name.startswith("model_"):
        return request.getfixturevalue(name)
    return _seeded_model(5, 2, 1) if name == "random_2x1" else _seeded_model(6, 3, 2)


def _same_winner(got, want):
    (v1, a1), (v2, a2) = got, want
    if a1 is None or a2 is None:
        return a1 is None and a2 is None and v1 == v2 == -np.inf
    return (v1 == v2 and a1[0] == a2[0] and a1[2] == a2[2]
            and a1[1].shape == a2[1].shape and np.array_equal(a1[1], a2[1]))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("fix_alpha", [None, 1.0])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_batch_beta_matches_full_grid(name, fix_alpha, chunk, request,
                                      monkeypatch):
    import resilientkf.stability as stab

    grid, gain_range = SWEEP_CASES[name]
    if chunk is not None:
        monkeypatch.setattr(stab, "BETA_CHUNK", chunk)
        # small grids keep a 7-cell chunk sweep short
        grid = dict(grid, alpha_points=min(grid["alpha_points"], 6),
                    gain_points=min(grid["gain_points"], 7))
    model = _sweep_model(name, request)
    pruned = stab._batch_beta
    calls = []

    def checked(model, alphas, gain_axes, nrho):
        got = pruned(model, alphas, gain_axes, nrho)
        calls.append((got, _dense_batch_beta(model, alphas, gain_axes, nrho)))
        return got

    monkeypatch.setattr(stab, "_batch_beta", checked)
    cfg = ThetaSearchConfig(gain_range=gain_range, **grid)
    val, args = stab._beta_search(model, cfg, fix_alpha=fix_alpha)
    assert args is not None and np.isfinite(val)
    # the coarse grid and every refinement round, bit for bit
    assert len(calls) == 1 + cfg.refine_rounds
    for got, want in calls:
        assert _same_winner(got, want), (got, want)


def test_batch_beta_prunes_and_handles_empty_grids(model_b):
    import resilientkf.stability as stab

    evaluated = []
    cells = stab._beta_cells

    def counted(s, F, *rest):
        evaluated.append(F.shape[0])
        return cells(s, F, *rest)

    alphas = np.linspace(0.05, 1.0, 20)
    axes = [np.linspace(-10.0, 10.0, 11)] * 2
    try:
        stab._beta_cells = counted
        val, args = stab._batch_beta(model_b, alphas, axes, 50)
    finally:
        stab._beta_cells = cells
    # evaluations at the first rho point cover every stable cell once
    stable = evaluated[0]
    assert 0 < sum(evaluated) < 0.5 * 50 * stable
    assert _same_winner((val, args),
                        _dense_batch_beta(model_b, alphas, axes, 50))
    # a grid with no stable cell, or no rho point, has no certificate
    assert stab._batch_beta(model_b, alphas,
                           [np.array([50.0]), np.array([-50.0])], 50) \
        == (-np.inf, None)
    assert stab._batch_beta(model_b, alphas, axes, 0) == (-np.inf, None)


def test_beta_gap_bound(model_b):
    # beta(rho) <= lambda_min(a(rho_hi) Sigma(rho_lo)^{-1}
    #                         + (1 - alpha^2) C^T R^{-1} C) on [rho_lo, rho_hi]
    rng = np.random.default_rng(11)
    CRC = model_b.C.T @ np.linalg.inv(model_b.R) @ model_b.C
    checked = 0
    while checked < 40:
        alpha = rng.uniform(0.05, 1.0)
        G = rng.uniform(-10.0, 10.0, (2, 1))
        F = model_b.A - alpha * G @ model_b.C
        r = np.abs(np.linalg.eigvals(F)).max()
        if r >= 0.99:
            continue
        lo, mid, hi = np.sort(r ** -rng.uniform(0.0, 0.99, 3))
        Sigma_lo, _ = sigma_beta(model_b, G, alpha, lo)
        if np.linalg.cond(Sigma_lo) > SIGMA_COND_MAX:
            continue
        _, beta = sigma_beta(model_b, G, alpha, mid)
        M = (1.0 - hi ** -2) * np.linalg.inv(Sigma_lo) + (1.0 - alpha ** 2) * CRC
        bound = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
        assert beta <= bound + 1e-9 * abs(bound)
        checked += 1


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_batch_beta_ties_go_to_first_cell(alpha, chunk, monkeypatch):
    import resilientkf.stability as stab

    if chunk is not None:
        monkeypatch.setattr(stab, "BETA_CHUNK", chunk)
    # decoupled coordinates: the slow one sets both the spectral radius and
    # beta, so every fast gain g11 on the axis gives the same beta exactly
    model = LinearGaussianModel(A=np.diag([0.5, 0.9]), C=np.eye(2),
                                Q=np.eye(2), R=np.eye(2))
    zero, g22 = np.array([0.0]), np.linspace(0.0, 0.4, 5)
    for g11 in (np.linspace(0.3, 0.7, 5), np.linspace(0.7, 0.3, 5)):
        axes = [g11, zero, zero, g22]
        got = stab._batch_beta(model, np.array([alpha]), axes, 50)
        val, (_, G, rho) = got
        ties = [sigma_beta(model, np.diag([g, G[1, 1]]), alpha, rho)[1]
                for g in g11]
        assert ties == [val] * len(g11)
        assert G[0, 0] == g11[0]
        assert _same_winner(got, _dense_batch_beta(
            model, np.array([alpha]), axes, 50))
