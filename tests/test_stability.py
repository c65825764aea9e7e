import numpy as np
import pytest

from conftest import seeded_model
from resilientkf import LinearGaussianModel
from resilientkf.filters import FilterConfig, covariance_schedule
from resilientkf.numerics import chol_solve, gamma, solve_filter_dare, sym
from resilientkf.stability import (
    PHI_RTOL,
    SIGMA_COND_MAX,
    StabilityError,
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
    n = 2
    assert parts.T1.shape == (n, n)
    assert parts.Minner.shape == (k * n, k * n)
    assert parts.Jk.shape == (k * n, n)
    # the bottom block row of obs_r is I and that of Lk is zero, so the
    # stack order shows in Jk's bottom block, exactly
    assert np.array_equal(parts.Jk[-n:], np.eye(n))


def test_gramian_identity_model():
    model = LinearGaussianModel(A=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    parts = build_gramian_parts(model, 2)
    I, Z = np.eye(2), np.zeros((2, 2))
    # with k = 2: obs = obs_r = [I; I], Hk = Lk = [[0, I], [0, 0]], Rk_noise = I
    assert np.allclose(parts.T1, 1.5 * I, rtol=0, atol=1e-14)
    assert np.allclose(parts.Minner, np.block([[I / 2, Z], [Z, Z]]),
                       rtol=0, atol=1e-14)
    assert np.allclose(parts.Jk, np.vstack([I / 2, I]), rtol=0, atol=1e-14)
    assert parts.phi_sup == pytest.approx(0.5, rel=0, abs=1e-14)


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
    tol = PHI_RTOL
    phik = phi_max(parts)
    assert 0.090 <= phik <= 0.100
    lo = np.linalg.eigvalsh(rk_matrix(parts, phik)).min()
    hi = np.linalg.eigvalsh(rk_matrix(parts, phik * (1 + tol))).min()
    assert lo > 0 > hi


def test_phi_max_second_model(model_b):
    phik = phi_max(build_gramian_parts(model_b, 10))
    assert abs(phik - 0.0052) <= 2e-4


@pytest.mark.parametrize("name", ["model_a", "model_b", (17, 2, 1),
                                  (30, 2, 1), (10, 3, 2), (8, 5, 1)])
def test_phi_max_is_certified(name, request):
    # phi_k is on the positive-definite side of the R_k boundary, within
    # tol phi_k of it; on (8, 5, 1) R_k already fails at 1e-6
    # sigma_max(Minner), so the scan starts at the provable lower bound
    model = (request.getfixturevalue(name) if isinstance(name, str)
             else seeded_model(*name))
    tol = PHI_RTOL
    parts = build_gramian_parts(model, 10)
    phik = phi_max(parts)
    assert np.linalg.eigvalsh(rk_matrix(parts, phik)).min() > 0
    assert np.linalg.eigvalsh(rk_matrix(parts, phik * (1 + tol))).min() <= 0
    if name == (8, 5, 1):
        assert c_max(model).c_max > 0


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
    filts = covariance_schedule(model_a, FilterConfig(kind="urkf", c=rep.c_max),
                                np.eye(2), 60).cov_filt
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
    gains = covariance_schedule(
        model_a, FilterConfig(kind="urkf", c=rep.c_max), np.eye(2), 600).gains
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
    rep = theta_max(model_b, k=10)
    Sigma, beta = sigma_beta(model_b, rep.G, rep.alpha, rep.rho)
    assert min(beta, rep.phi_k) == pytest.approx(rep.theta_max, abs=1e-12)
    # free-alpha bound dominates the alpha = 1 restriction
    assert rep.theta_max >= rep.search["alpha1"]["theta_max"] - 1e-12


def test_prop6_guard_certifies(model_b):
    rep = theta_max(model_b, k=10)
    Sigma, beta = sigma_beta(model_b, rep.G, rep.alpha, rep.rho)
    ok, cert = prop6_guard(model_b, beta, Sigma, rep.G, rep.alpha, rep.rho)
    assert ok, cert
    assert cert["min_eig_sigma_minus_pred"] >= -1e-8


@pytest.mark.parametrize("name", ["model_a", "model_b"])
def test_prop6_guard_checks_distinct_entries(name, request):
    # the guard reads the schedule only up to start + period of its cycle;
    # its minima equal those over all GUARD_HORIZON + 1 entries bit for bit
    import resilientkf.stability as stab

    model = request.getfixturevalue(name)
    rep = theta_max(model, k=10)
    ok, cert = prop6_guard(model, rep.theta_max, rep.sigma, rep.G, rep.alpha,
                           rep.rho)
    assert ok and cert["reason"] == "certified"
    sched = covariance_schedule(
        model, FilterConfig(kind="ursf", theta=rep.theta_max), rep.sigma,
        stab.GUARD_HORIZON)
    assert sum(sched.cycle) < stab.GUARD_HORIZON
    Sigma, _ = sigma_beta(model, rep.G, rep.alpha, rep.rho)
    assert cert["min_eig_distorted"] == float(
        np.linalg.eigvalsh(np.array(sched.cov_distorted))[:, 0].min())
    assert cert["min_eig_sigma_minus_pred"] == float(np.linalg.eigvalsh(
        Sigma[None] - np.array(sched.cov_pred))[:, 0].min())


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
    rep = theta_max(model_b, k=10)
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
    with pytest.raises(StabilityError, match="fails verification"):
        theta_max(model_b, k=10)


def test_theta_max_raises_on_empty_sweep(model_b, monkeypatch):
    import resilientkf.stability as stab

    # cond Sigma >= 1 always, so no (alpha, rho) pair passes this cap
    monkeypatch.setattr(stab, "SIGMA_COND_MAX", 0.5)
    with pytest.raises(StabilityError, match="empty admissible"):
        theta_max(model_b, k=10)


@pytest.mark.parametrize("seed, bound", [(8, 5.5571e-6), (10, 2.8770e-6)])
def test_theta_max_with_overflowing_pairs(seed, bound):
    # the Newton step's Lyapunov doubling overflows for some (alpha, rho)
    # pairs of these 5-state models; they count as beta* = -inf and the rest
    # of the sweep still yields a verified certificate.  ``bound`` is the
    # R_k boundary (bisected to one ulp: 5.557103106e-6 and 2.876974665e-6)
    model = seeded_model(seed, 5, 1)
    parts = build_gramian_parts(model, 10)
    assert np.linalg.eigvalsh(rk_matrix(parts, bound * (1 - 1e-4)))[0] > 0
    assert np.linalg.eigvalsh(rk_matrix(parts, bound * (1 + 1e-4)))[0] <= 0
    rep = theta_max(model, k=10)
    assert rep.search["overflowed_pairs"] > 0
    assert rep.search["verification"]["ok"]
    assert rep.theta_max == rep.phi_k == pytest.approx(bound, rel=1e-4)


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


# ---------------------------------------------------------------------------
# The exact beta*(alpha, rho) sweep against the gain grid it replaced


def _dense_batch_beta(model, alphas, gain_axes, nrho):
    """beta at every stable cell of the grid alphas x gain_axes (one axis
    per entry of G) x a log-spaced sweep rho = r^{-s}, s in (0, 1), of
    (1, 1/r) per cell, r the spectral radius of A - alpha G C: the gain
    grid theta_max searched before beta* had a closed form, kept as the
    oracle beta* must dominate.  Returns the arrays (alpha, rho, beta) of
    the (cell, rho) pairs whose Sigma passes theta_max's filters."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    mesh = np.meshgrid(alphas, *gain_axes, indexing="ij")
    al = mesh[0].ravel()
    G = np.stack([g.ravel() for g in mesh[1:]], axis=1).reshape(-1, n, m)
    F = A[None] - al[:, None, None] * (G @ C[None])
    r = np.abs(np.linalg.eigvals(F)).max(axis=1)
    idx = np.nonzero(r < 1.0 - 1e-12)[0]
    F, G, al, r = F[idx], G[idx], al[idx], r[idx]
    V = G @ R[None] @ G.transpose(0, 2, 1) + Q[None]
    CRC = sym(C.T @ chol_solve(R, C))
    Inn = np.eye(n * n)
    out = []
    for s in np.linspace(1e-6, 1.0 - 1e-9, nrho):
        rho = np.exp(-s * np.log(np.maximum(r, 1e-12)))
        Fr = rho[:, None, None] * F
        K = Inn[None] - np.einsum("nij,nkl->nikjl", Fr, Fr).reshape(-1, n * n, n * n)
        sing = np.abs(np.linalg.det(K)) < 1e-12
        K[sing] = Inn
        Sig = np.linalg.solve(K, V.reshape(-1, n * n, 1)).reshape(-1, n, n)
        Sig[sing] = -np.eye(n)
        Sig = 0.5 * (Sig + Sig.transpose(0, 2, 1))
        w_all = np.linalg.eigvalsh(Sig)
        good = ((w_all[:, 0] > 0)
                & (w_all[:, -1] <= SIGMA_COND_MAX * w_all[:, 0]))
        rr, aa = rho[good], al[good]
        M = (((rr ** 2 - 1.0) / rr ** 2)[:, None, None] * np.linalg.inv(Sig[good])
             + (1.0 - aa ** 2)[:, None, None] * CRC[None])
        w = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]
        out.append((aa, rr, w))
    return tuple(np.concatenate(col) for col in zip(*out))


DOMINANCE_GRIDS = {
    # model -> (alpha stride in ALPHAS, gain points, gain range, rho points)
    "model_a": (10, 11, 10.0, 30),
    "model_b": (10, 11, 10.0, 30),
    "random_2x1": (12, 9, 3.0, 30),
    "random_3x2": (40, 3, 0.5, 12),
}
# beta of the search theta_max ran before: 100 alphas x 21^(n m) gains in
# [-10, 10] x 50 rho points in (1, 1 / radius(A - alpha G C)) and three
# refinement rounds (free alpha, and alpha = 1).  Its rho was not capped:
# its random_2x1 winner has rho = 55.9, beyond RHO_HI
GRID_SEARCH_BETA = {"model_a": (0.16039924202415956, 0.1076908121104212),
                    "model_b": (0.005496690651177971, 0.0034306489324539557),
                    "random_2x1": (0.3761510736777019, 0.05732672557181353)}


def _named_model(name, request):
    if name.startswith("model_"):
        return request.getfixturevalue(name)
    return seeded_model(5, 2, 1) if name == "random_2x1" else seeded_model(6, 3, 2)


def _full_grid(model):
    """beta* and Sigma* over ALPHAS x RHOS in one batch, as (alpha, rho)
    grids."""
    import resilientkf.stability as stab

    na, nr = len(stab.ALPHAS), len(stab.RHOS)
    beta, Sig = stab._beta_star(model, np.repeat(stab.ALPHAS, nr),
                                np.tile(stab.RHOS, na))
    return beta.reshape(na, nr), Sig.reshape(na, nr, model.n, model.n)


def _assert_sweep_exact(model, monkeypatch):
    """The pruned sweep against one batch over ALPHAS x RHOS: every pair it
    solves is the full grid's bit for bit, every pair it skips lies strictly
    below the incumbent it was pruned against, and the global winner and
    the alpha = 1 row's best agree."""
    import resilientkf.stability as stab

    full, _ = _full_grid(model)
    solved = np.zeros(full.shape, dtype=bool)
    beta_star = stab._beta_star

    def recording(model, alphas, rhos):
        beta, Sig = beta_star(model, alphas, rhos)
        i = np.searchsorted(stab.ALPHAS, alphas)
        j = np.searchsorted(stab.RHOS, rhos)
        assert np.array_equal(stab.ALPHAS[i], alphas)
        assert np.array_equal(stab.RHOS[j], rhos)
        assert np.array_equal(beta, full[i, j])
        assert not solved[i, j].any()
        solved[i, j] = True
        return beta, Sig

    monkeypatch.setattr(stab, "_beta_star", recording)
    best, where, _, solves = stab._sweep(model)
    monkeypatch.setattr(stab, "_beta_star", beta_star)
    assert solves == solved.sum() < full.size
    ia = stab._corners(len(stab.ALPHAS))
    jr = stab._corners(len(stab.RHOS))
    incumbent = full[np.ix_(ia, jr)].max()
    assert np.all(full[:-1][~solved[:-1]] < incumbent)
    assert np.all(full[-1][~solved[-1]] < full[-1, jr].max())
    i = int(np.argmax(best))
    assert (i, where[i]) == np.unravel_index(np.argmax(full), full.shape)
    assert best[i] == full.max()
    assert (best[-1], where[-1]) == (full[-1].max(), np.argmax(full[-1]))


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("fix_alpha", [None, 1.0])
@pytest.mark.parametrize("name", sorted(DOMINANCE_GRIDS))
def test_batch_beta_matches_full_grid(name, fix_alpha, chunk, request,
                                      monkeypatch):
    import resilientkf.stability as stab

    if chunk is not None:
        # 7 alpha rows per batch, so the last batch is a partial one
        monkeypatch.setattr(stab, "SWEEP_ROWS", chunk)
    model = _named_model(name, request)
    stride, npts, span, nrho = DOMINANCE_GRIDS[name]
    alphas = (np.array([fix_alpha]) if fix_alpha
              else stab.ALPHAS[stride - 1::stride])
    axes = [np.linspace(-span, span, npts)] * (model.n * model.m)
    al, rho, beta = _dense_batch_beta(model, alphas, axes, nrho)
    assert beta.size > 0
    # beta*(alpha, rho) >= beta of every gain at the same (alpha, rho)
    Sig = solve_filter_dare(rho[:, None, None] * model.A,
                            (rho * al)[:, None, None] * model.C,
                            model.Q, model.R)
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))
    M = (((rho ** 2 - 1.0) / rho ** 2)[:, None, None] * np.linalg.inv(Sig)
         + (1.0 - al ** 2)[:, None, None] * CRC[None])
    star = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]
    assert np.all(star >= beta - 1e-9 * np.abs(beta))
    if fix_alpha is None:
        _assert_sweep_exact(model, monkeypatch)
    best, where, _, _ = stab._sweep(model)
    # the sweep's certificate beats the grid's winner, and on models A, B
    # and random_2x1 the winner of the former 21^(n m) gain grid search
    i = len(best) - 1 if fix_alpha else int(np.argmax(best))
    phik = phi_max(build_gramian_parts(model, 10))
    _, _, _, final, _, _ = stab._certificate(model, stab.ALPHAS[i], where[i],
                                             phik)
    assert final >= beta.max()
    if name in GRID_SEARCH_BETA:
        assert final >= GRID_SEARCH_BETA[name][fix_alpha is not None]


@pytest.mark.parametrize("name, at_edge", [("model_a", False),
                                           ("model_b", False),
                                           ("random_2x1", True)])
def test_theta_max_rho_range(name, at_edge, request):
    import resilientkf.stability as stab

    model = _named_model(name, request)
    rep = theta_max(model, k=10)
    assert rep.search["riccati_solves"] < 20000
    assert rep.search["rho_hi_limits_beta"] == at_edge
    assert "overflowed_pairs" not in rep.search
    if at_edge:
        # beta* still rises at RHO_HI (it saturates on this model), and
        # beta < phi_k, so the report says the range capped the bound
        assert rep.rho == stab.RHO_HI and rep.beta < rep.phi_k
        return
    # beta*(alpha, .) peaks strictly inside (1, RHO_HI]
    beta, _ = stab._beta_star(model, np.full(len(stab.RHOS), rep.alpha),
                              stab.RHOS)
    j = int(np.argmax(beta))
    assert 0 < j < len(stab.RHOS) - 1 and beta[-1] < beta[j]
    assert stab.RHOS[j - 1] <= rep.rho <= stab.RHOS[j + 1]


BOUND_MODELS = (["model_a", "model_b"] + [(s, 2, 1) for s in range(1, 11)]
                + [(s, 4, 2) for s in range(1, 4)])


@pytest.mark.parametrize("name", BOUND_MODELS, ids=str)
def test_box_bound_is_sound(name, request):
    # on [a_lo, a_hi] x [r_lo, r_hi], beta* <= lambda_min((1 - r_hi^-2)
    # Sigma*(a_hi, r_lo)^{-1} + (1 - a_lo^2) C^T R^{-1} C), also on the
    # alpha = 1 segments, where a_lo = a_hi = 1
    import resilientkf.stability as stab

    model = (request.getfixturevalue(name) if isinstance(name, str)
             else seeded_model(*name))
    full, Sig = _full_grid(model)
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))
    ia = stab._corners(len(stab.ALPHAS))
    jr = stab._corners(len(stab.RHOS))
    boxes = [(a0, a1, r0, r1) for a0, a1 in zip(ia[:-1], ia[1:])
             for r0, r1 in zip(jr[:-1], jr[1:])]
    boxes += [(ia[-1], ia[-1], r0, r1) for r0, r1 in zip(jr[:-1], jr[1:])]
    checked = 0
    for a0, a1, r0, r1 in boxes:
        S = Sig[a1, r0]
        if not np.isfinite(S).all() or np.linalg.eigvalsh(S)[0] <= 0:
            continue
        M = ((1.0 - stab.RHOS[r1] ** -2.0) * np.linalg.inv(S)
             + (1.0 - stab.ALPHAS[a0] ** 2) * CRC)
        bound = np.linalg.eigvalsh(0.5 * (M + M.T))[0]
        assert full[a0:a1 + 1, r0:r1 + 1].max() <= bound
        checked += 1
    assert checked > len(boxes) // 2


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name", ["model_a", "model_b"])
def test_sweep_chunk_invariance(name, rows, request, monkeypatch):
    import resilientkf.stability as stab

    model = request.getfixturevalue(name)
    best, where, overflowed, solves = stab._sweep(model)
    monkeypatch.setattr(stab, "SWEEP_ROWS", rows)
    other = stab._sweep(model)
    assert np.array_equal(best, other[0]) and np.array_equal(where, other[1])
    assert (overflowed, solves) == other[2:]


# bounds --mode thetamax winners (alpha, rho, beta, alpha = 1 row's rho); the
# pruned sweep finds the full grid's
THETAMAX_WINNERS = {
    "model_a": (0.33, 1.9133882253359162, 0.16040046141070508,
                1.6332161350033885),
    "model_b": (0.01, 3.1607538298069073, 0.005647153499208968, None),
}


@pytest.mark.parametrize("name", sorted(THETAMAX_WINNERS))
def test_thetamax_winners(name, request, tmp_path):
    import json

    from resilientkf.cli import main
    from resilientkf.model import save_model

    path, out = str(tmp_path / "model.json"), str(tmp_path / "theta.json")
    save_model(request.getfixturevalue(name), path)
    assert main(["bounds", "--model", path, "--mode", "thetamax",
                 "--out", out]) == 0
    rep = json.loads(open(out).read())
    alpha, rho, beta, rho1 = THETAMAX_WINNERS[name]
    assert rep["alpha"] == alpha
    assert rep["rho"] == pytest.approx(rho, rel=1e-12)
    assert rep["beta"] == pytest.approx(beta, rel=1e-12)
    if rho1 is not None:
        assert rep["search"]["alpha1"]["rho"] == pytest.approx(rho1, rel=1e-12)
