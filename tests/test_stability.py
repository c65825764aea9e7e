import numpy as np
import pytest

from conftest import seeded_model
from oracles import save_model
from resilientkf import LinearGaussianModel
from resilientkf.filters import FilterConfig, FilterError, covariance_schedule
from resilientkf.numerics import (
    NumericsError,
    chol_solve,
    gamma,
    solve_filter_dare,
    sym,
)
from resilientkf.stability import (
    SIGMA_COND_MAX,
    StabilityError,
    c_max,
    pbar_filtered,
    phi_max,
    prop6_guard,
    sigma_beta,
    theta_max,
)


def test_gramian_identity_model():
    model = LinearGaussianModel(A=np.eye(2), C=np.eye(2), Q=np.eye(2), R=np.eye(2))
    # with k = 2: obs = obs_r = [I; I], Hk = Lk = [[0, I], [0, 0]], Rk = I,
    # so T1 = 1.5 I, Minner = [[I/2, 0], [0, 0]] and Jk = [I/2; I];
    # Minner + Jk T1^{-1} Jk^T = [[2/3 I, I/3], [I/3, 2/3 I]] has eigenvalues
    # 1 and 1/3
    assert phi_max(model, 2) == pytest.approx(1.0, rel=0, abs=1e-14)


def test_gramian_rejects_small_window(model_a):
    with pytest.raises(StabilityError):
        phi_max(model_a, 1)


def _window_precision(model, k):
    """Lambda_k, the precision of the window states x_0..x_{k-1} given
    y_0..y_{k-1} under a flat prior on x_0, assembled block by block: the
    diagonal blocks are C^T R^{-1} C, plus Q^{-1} for t > 0, plus
    A^T Q^{-1} A for t < k - 1; the off-diagonal blocks are -A^T Q^{-1}
    and its transpose."""
    n, A = model.n, model.A
    Qi = np.linalg.inv(model.Q)
    CRC = model.C.T @ np.linalg.inv(model.R) @ model.C
    Lam = np.zeros((k * n, k * n))
    for t in range(k):
        b = slice(t * n, (t + 1) * n)
        Lam[b, b] = (CRC + (Qi if t > 0 else 0.0)
                     + (A.T @ Qi @ A if t < k - 1 else 0.0))
        if t < k - 1:
            c = slice((t + 1) * n, (t + 2) * n)
            Lam[b, c] = -A.T @ Qi
            Lam[c, b] = -Qi @ A
    return Lam


def _assert_phi_is_window_precision(model, phik, k=10):
    # phi_k = lambda_min(Lambda_k): Minner + Jk T1^{-1} Jk^T is the window's
    # conditional covariance, and Lambda_k its inverse
    w = np.linalg.eigvalsh(_window_precision(model, k))
    assert abs(phik - w[0]) <= 1e-14 * w[-1]


def test_phi_max_bracketing(model_a):
    phik = phi_max(model_a, 10)
    assert 0.090 <= phik <= 0.100
    _assert_phi_is_window_precision(model_a, phik)


def test_phi_max_second_model(model_b):
    phik = phi_max(model_b, 10)
    assert abs(phik - 0.0052) <= 2e-4


def test_phi_max_long_window(model_b):
    # phi_k sits just below the pole 1/sigma_max(Minner) of S_k, past which
    # R_k is positive definite again (at 0.0082, say) but certifies nothing
    phik = phi_max(model_b, 40)
    assert phik == pytest.approx(0.00564583383734, rel=1e-9)
    _assert_phi_is_window_precision(model_b, phik, k=40)


@pytest.mark.parametrize("name", ["model_a", "model_b", (17, 2, 1),
                                  (30, 2, 1), (10, 3, 2), (8, 5, 1)])
def test_phi_max_is_certified(name, request):
    # on (8, 5, 1) phi_k = 5.6e-6, far below the pole of S_k
    model = (request.getfixturevalue(name) if isinstance(name, str)
             else seeded_model(*name))
    phik = phi_max(model, 10)
    _assert_phi_is_window_precision(model, phik)
    if name == (8, 5, 1):
        assert c_max(model).c_max > 0


def test_phi_max_with_a_huge_output_gain():
    # C = [[1e150, 1]] puts 1e300 on the diagonal of W next to 1; a
    # 400-digit lambda_min(Lambda_10) gives 0.0099999710031387060
    model = LinearGaussianModel(A=np.array([[0.5, 0.1], [0.0, 0.5]]),
                                C=np.array([[1e150, 1.0]]), Q=np.eye(2),
                                R=np.eye(1))
    assert phi_max(model, 10) == pytest.approx(0.0099999710031387060,
                                               rel=1e-12)


def test_phi_max_on_the_seeded_grid():
    # every model of the seeded grid: c_max is valid and its phi_k is the
    # window precision's at k = 10, and so is phi_k at the shortest window
    for s in range(15):
        for n in range(1, 7):
            for m in range(1, 4):
                model = seeded_model(s, n, m)
                rep = c_max(model)
                assert np.isfinite(rep.c_max) and rep.c_max > 0
                _assert_phi_is_window_precision(model, rep.phi_k)
                _assert_phi_is_window_precision(model, phi_max(model, n), k=n)


# The seeded models with s < 15, n <= 6 and m <= 3 on which R_k fails only
# in a narrow window below the pole 1/sigma_max(Minner) of S_k at k = 10,
# so that a phi_k past the pole is easy to report and certifies nothing
PAST_POLE_MODELS = [
    (0, 6, 3), (1, 1, 2), (2, 2, 1), (3, 2, 1), (3, 3, 3), (4, 2, 1),
    (4, 2, 2), (4, 2, 3), (4, 3, 2), (4, 4, 2), (5, 2, 1), (5, 3, 1),
    (5, 4, 3), (6, 2, 3), (7, 3, 3), (7, 4, 2), (7, 4, 3), (9, 2, 3),
    (9, 3, 2), (10, 3, 3), (11, 3, 3), (11, 6, 2), (11, 6, 3), (12, 4, 2),
    (12, 4, 3), (13, 3, 2), (13, 4, 2), (13, 4, 3), (14, 4, 2), (14, 4, 3)]


# The seeded models on which urkf at c = c_max from 0.01 I or from I
# exceeds phi_k at t = q exactly: a run's prediction dominates Q, the
# floor's first one, only from t = 1 on, so its filtered covariance
# dominates P_bar_{q|q} only from t = q + 1 on, unless P0 dominates Q
T_EQUALS_Q_MODELS = [(2, 4, 1), (8, 5, 1), (5, 6, 1)]


@pytest.mark.parametrize("seed, n, m", PAST_POLE_MODELS + T_EQUALS_Q_MODELS)
def test_bounds_certify_their_recursions(seed, n, m):
    # each bound is checked against the recursion it certifies: ursf just
    # below phi_k stays feasible, urkf at c_max keeps theta_t <= phi_k from
    # t = q + 1 on, and from t = q on when P0 = Q, and theta_max does not
    # exceed phi_k
    model, q = seeded_model(seed, n, m), 20
    rep = c_max(model, k=10, q=q)
    _assert_phi_is_window_precision(model, rep.phi_k)
    P0 = 0.01 * np.eye(n)
    try:
        covariance_schedule(model, FilterConfig(
            kind="ursf", theta=(1.0 - 1e-6) * rep.phi_k), P0, 1500)
    except FilterError as e:
        pytest.fail(f"ursf at (1 - 1e-6) phi_k failed: {e}")
    for P, start in ((P0, q + 1), (np.eye(n), q + 1), (model.Q, q)):
        thetas = covariance_schedule(
            model, FilterConfig(kind="urkf", c=rep.c_max), P, 300).thetas
        assert thetas[start:].max() <= rep.phi_k
    assert theta_max(model, k=10).theta_max <= rep.phi_k


@pytest.mark.parametrize("seed, n, m", T_EQUALS_Q_MODELS)
def test_c_max_claim_starts_after_q(seed, n, m):
    # from 0.01 I, whose prediction does not dominate Q, theta_q exceeds
    # phi_k on these models: the claim cannot start at t = q
    model, q = seeded_model(seed, n, m), 20
    rep = c_max(model, k=10, q=q)
    thetas = covariance_schedule(model, FilterConfig(kind="urkf", c=rep.c_max),
                                 0.01 * np.eye(n), q).thetas
    assert thetas[q] > rep.phi_k


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
def test_prop6_guard_reads_one_step_from_sigma(name, request):
    # the guard's minimum eigenvalues are those of one fixed-theta step from
    # Sigma bit for bit, whichever P0 <= Sigma it is given
    model = request.getfixturevalue(name)
    rep = theta_max(model, k=10)
    Sigma, _ = sigma_beta(model, rep.G, rep.alpha, rep.rho)
    step = covariance_schedule(
        model, FilterConfig(kind="ursf", theta=rep.theta_max), Sigma, 0)
    for P0 in (Sigma, 0.5 * Sigma):
        ok, cert = prop6_guard(model, rep.theta_max, P0, rep.G, rep.alpha,
                               rep.rho)
        assert ok and cert["reason"] == "certified"
        assert cert["min_eig_distorted"] == float(
            np.linalg.eigvalsh(step.cov_distorted[0])[0])
        assert cert["min_eig_sigma_minus_pred"] == float(
            np.linalg.eigvalsh(Sigma - step.cov_pred[1])[0])


def _guard_oracle(model, theta, Sigma):
    """The verdict of the fixed-theta recursion run for 1000 steps from
    Sigma: every step feasible, every distorted covariance positive definite
    and every predicted covariance below Sigma to -1e-8."""
    try:
        sched = covariance_schedule(
            model, FilterConfig(kind="ursf", theta=theta), Sigma, 1000)
    except (FilterError, NumericsError):
        return False
    return bool(
        np.linalg.eigvalsh(sched.cov_distorted)[:, 0].min() > 0
        and np.linalg.eigvalsh(Sigma[None] - sched.cov_pred)[:, 0].min()
        >= -1e-8)


def test_prop6_guard_matches_long_run_on_the_seeded_grid():
    # on every model of the seeded grid, the one-step verdict from Sigma
    # equals that of a 1000-step run, at theta_max and at theta = beta (the
    # same theta where theta_max = beta)
    for s in range(15):
        for n in range(1, 7):
            for m in range(1, 4):
                model = seeded_model(s, n, m)
                rep = theta_max(model, k=10)
                Sigma, beta = sigma_beta(model, rep.G, rep.alpha, rep.rho)
                for theta in {rep.theta_max, beta}:
                    ok, cert = prop6_guard(model, theta, Sigma, rep.G,
                                           rep.alpha, rep.rho)
                    assert ok == _guard_oracle(model, theta, Sigma), (
                        (s, n, m), theta, cert)


@pytest.mark.parametrize("name", ["model_a", "model_b", (0, 2, 1),
                                  (1, 3, 2), (2, 4, 1), (3, 6, 3)], ids=str)
def test_prop6_guard_rejects_past_beta_through_the_step(name, request,
                                                        monkeypatch):
    # a beta reported 2 % high lets theta = 1.01 beta past the theta <= beta
    # check, so the step from Sigma itself must reject the certificate
    import resilientkf.stability as stab

    model = (request.getfixturevalue(name) if isinstance(name, str)
             else seeded_model(*name))
    rep = theta_max(model, k=10)
    Sigma, beta = sigma_beta(model, rep.G, rep.alpha, rep.rho)
    monkeypatch.setattr(stab, "sigma_beta", lambda *a: (Sigma, 1.02 * beta))
    ok, cert = prop6_guard(model, 1.01 * beta, Sigma, rep.G, rep.alpha,
                           rep.rho)
    assert not ok
    assert (cert["reason"] == "predicted covariance escaped Sigma"
            or cert["reason"].startswith("covariance recursion failed")), cert


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
    # the best alpha's certificate is verified first, and its failure raises
    import resilientkf.stability as stab

    verified = []

    def rejecting(model, theta, P0, G, alpha, rho):
        verified.append(alpha)
        return False, {"reason": "rejected"}

    monkeypatch.setattr(stab, "prop6_guard", rejecting)
    with pytest.raises(StabilityError,
                       match=r"alpha=0\.01, .* fails verification"):
        theta_max(model_b, k=10)
    assert verified == [0.01]


def test_theta_max_raises_on_empty_sweep(model_b, monkeypatch):
    import resilientkf.stability as stab

    # cond Sigma >= 1 always, so no (alpha, rho) pair passes this cap
    monkeypatch.setattr(stab, "SIGMA_COND_MAX", 0.5)
    with pytest.raises(StabilityError, match="empty admissible"):
        theta_max(model_b, k=10)


def _record_beta_star(monkeypatch):
    """Patch ``_beta_star`` to record the size of each batch it solves."""
    import resilientkf.stability as stab

    sizes = []
    beta_star = stab._beta_star

    def recording(model, alphas, rhos):
        sizes.append(len(alphas))
        return beta_star(model, alphas, rhos)

    monkeypatch.setattr(stab, "_beta_star", recording)
    return sizes


@pytest.mark.parametrize("name", ["model_a", "model_b", "weak_sensor_b"])
def test_theta_max_refines_both_rows_in_one_batch(name, request,
                                                  monkeypatch):
    # one Riccati batch per sweep stage and one for both refinements; each
    # certificate is the one its refinement gives alone.  Behind a weak
    # sensor model B's best row is alpha = 1, and both refinements are of it
    import resilientkf.stability as stab

    if name == "weak_sensor_b":
        b = request.getfixturevalue("model_b")
        model = LinearGaussianModel(A=b.A, C=b.C, Q=b.Q, R=[[1e3]])
    else:
        model = request.getfixturevalue(name)
    sizes = _record_beta_star(monkeypatch)
    rep = theta_max(model, k=10)
    search = rep.search
    assert len(sizes) == len(search["sweep_levels"]) + 1
    assert sizes[-1] == 2 * stab.RHO_REFINE_POINTS
    assert (rep.alpha == 1.0) == (name == "weak_sensor_b")
    best, where, _, _ = stab._sweep(model)
    i = int(np.argmax(best))
    [(rho, G, Sigma, beta, tmax, verification)] = stab._certificates(
        model, [(float(stab.ALPHAS[i]), where[i])], rep.phi_k)
    [(rho1, G1, _, beta1, tmax1, verification1)] = stab._certificates(
        model, [(1.0, where[-1])], rep.phi_k)
    assert (rep.rho, rep.beta, rep.theta_max) == (rho, beta, tmax)
    assert np.array_equal(rep.G, G) and np.array_equal(rep.sigma, Sigma)
    assert search["verification"] == verification
    assert search["alpha1"] == {"beta": beta1, "theta_max": tmax1,
                                "alpha": 1.0, "G": G1.tolist(), "rho": rho1,
                                "verification": verification1}


def test_theta_max_without_an_alpha_one_row(model_b, monkeypatch):
    # when no alpha = 1 pair is admissible only the best row is refined
    import resilientkf.stability as stab

    full = theta_max(model_b, k=10)
    best, where, overflowed, levels = stab._sweep(model_b)
    best[-1] = -np.inf
    monkeypatch.setattr(stab, "_sweep",
                        lambda model: (best, where, overflowed, levels))
    sizes = _record_beta_star(monkeypatch)
    rep = theta_max(model_b, k=10)
    assert sizes == [stab.RHO_REFINE_POINTS]
    assert (rep.rho, rep.beta, rep.theta_max) == (full.rho, full.beta,
                                                  full.theta_max)
    assert rep.search["alpha1"] == {"beta": -np.inf, "theta_max": None,
                                    "alpha": 1.0, "G": None, "rho": None}
    assert rep.search["riccati_solves"] == (sum(n for _, n in levels)
                                            + stab.RHO_REFINE_POINTS)


@pytest.mark.parametrize("seed, bound", [(8, 5.5571e-6), (10, 2.8770e-6)])
def test_theta_max_with_overflowing_pairs(seed, bound):
    # the Newton step's Lyapunov doubling overflows for some (alpha, rho)
    # pairs of these 5-state models; they count as beta* = -inf and the rest
    # of the sweep still yields a verified certificate.  ``bound`` is
    # lambda_min(Lambda_k) to 1e-4 (5.557103105e-6 and 2.876974665e-6)
    model = seeded_model(seed, 5, 1)
    rep = theta_max(model, k=10)
    assert rep.search["overflowed_pairs"] > 0
    assert rep.search["verification"]["ok"]
    assert rep.theta_max == rep.phi_k == pytest.approx(bound, rel=1e-4)
    _assert_phi_is_window_precision(model, rep.phi_k)


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


def _live_pairs(ia, jr, live):
    """Masks over ALPHAS x RHOS of the pairs in the live boxes of the box
    rows 0 .. len(ia) - 2 and in the live alpha = 1 segments (the last box
    row), for the box corners ia x jr of one level of the sweep."""
    boxes = np.zeros((ia[-1] + 1, jr[-1] + 1), dtype=bool)
    segments = np.zeros_like(boxes)
    for p, q in zip(*np.nonzero(live)):
        if p == len(ia) - 1:
            segments[-1, jr[q]:jr[q + 1] + 1] = True
        else:
            boxes[ia[p]:ia[p + 1] + 1, jr[q]:jr[q + 1] + 1] = True
    return boxes, segments


def _assert_sweep_exact(model, monkeypatch):
    """The coarse-to-fine sweep against one batch over ALPHAS x RHOS: every
    pair it solves is solved once and is the full grid's bit for bit, every
    pair it skips lies strictly below the incumbent of the stage that pruned
    it, and the global winner and the alpha = 1 row's best agree.

    The incumbents after each stage (a level, then the last pass) are
    recorded from the solved pairs.  The levels are replayed on the full
    grid with them, which gives the boxes live at each level, checks that
    the level solved exactly the new corners of those boxes, and names the
    stage at which each skipped pair left the live boxes."""
    import resilientkf.stability as stab

    full, Sig = _full_grid(model)
    na, nr = full.shape
    order = []
    beta_star = stab._beta_star

    def recording(model, alphas, rhos):
        beta, S = beta_star(model, alphas, rhos)
        i = np.searchsorted(stab.ALPHAS, alphas)
        j = np.searchsorted(stab.RHOS, rhos)
        assert np.array_equal(stab.ALPHAS[i], alphas)
        assert np.array_equal(stab.RHOS[j], rhos)
        assert np.array_equal(beta, full[i, j])
        order.extend(zip(i, j))
        return beta, S

    monkeypatch.setattr(stab, "_beta_star", recording)
    best, where, _, levels = stab._sweep(model)
    monkeypatch.setattr(stab, "_beta_star", beta_star)
    steps, counts = zip(*levels)
    assert steps == tuple(stab.LEVELS) + (1,)
    assert sum(counts) == len(order) == len(set(order)) < full.size
    # the stage that solved each pair, len(levels) where none did
    stage = np.full(full.shape, len(levels))
    ij = np.array(order)
    stage[ij[:, 0], ij[:, 1]] = np.repeat(np.arange(len(levels)), counts)
    skipped = stage == len(levels)
    ia, jr = np.array([0, na - 1]), np.array([0, nr - 1])
    live = np.ones((2, 1), dtype=bool)
    for t, step in enumerate(stab.LEVELS):
        pa, pr = ia, jr
        ia, jr = stab._level_points(na, step), stab._level_points(nr, step)
        live = live[np.ix_(np.searchsorted(pa, ia, side="right") - 1,
                           np.searchsorted(pr, jr[:-1], side="right") - 1)]
        boxes, segments = _live_pairs(ia, jr, live)
        p, q = np.nonzero(live)
        k = np.minimum(p + 1, len(ia) - 1)
        corners = np.zeros(full.shape, dtype=bool)
        corners[ia[np.r_[p, p, k, k]], jr[np.r_[q, q + 1, q, q + 1]]] = True
        assert np.array_equal(corners & (stage >= t), stage == t)
        incumbent = full[stage <= t].max()
        incumbent1 = full[-1][stage[-1] <= t].max()
        bound = stab._box_bounds(model, Sig[ia[k], jr[q]], stab.ALPHAS[ia[p]],
                                 stab.RHOS[jr[q + 1]])
        live[p, q] = bound * (1.0 + 1e-9) >= np.where(
            ia[p] == na - 1, incumbent1, incumbent)
        after, after1 = _live_pairs(ia, jr, live)
        assert np.all(full[boxes & ~after & skipped] < incumbent)
        assert np.all(full[segments & ~after1 & skipped] < incumbent1)
    # the last pass solves only pairs of live boxes, against the incumbents
    # of the last level
    assert not np.any((stage == len(stab.LEVELS)) & ~(after | after1))
    assert np.all(full[:-1][(after & skipped)[:-1]] < incumbent)
    assert np.all(full[-1][((after | after1) & skipped)[-1]] < incumbent1)
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
    phik = phi_max(model, 10)
    [(_, _, _, final, _, _)] = stab._certificates(
        model, [(stab.ALPHAS[i], where[i])], phik)
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
    # Sigma*(a_hi, r_lo)^{-1} + (1 - a_lo^2) C^T R^{-1} C), on every box of
    # every level, also on the alpha = 1 segments, where a_lo = a_hi = 1;
    # and at each pair off the finest level's points, with the box's
    # Sigma*(a_hi, r_lo) at the pair's own (alpha, rho)
    import resilientkf.stability as stab

    model = (request.getfixturevalue(name) if isinstance(name, str)
             else seeded_model(*name))
    full, Sig = _full_grid(model)
    na, nr = full.shape
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))

    def bounds(S, alphas, rhos):
        ok = np.isfinite(S).all(axis=(-2, -1))
        ok[ok] = np.linalg.eigvalsh(S[ok])[:, 0] > 0
        M = ((1.0 - rhos[ok] ** -2.0)[:, None, None] * np.linalg.inv(S[ok])
             + (1.0 - alphas[ok] ** 2)[:, None, None] * CRC)
        return ok, np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]

    for step in stab.LEVELS:
        ia = stab._level_points(na, step)
        jr = stab._level_points(nr, step)
        lo = np.append(ia[:-1], ia[-1])
        hi = np.append(ia[1:], ia[-1])
        p, q = np.meshgrid(np.arange(len(ia)), np.arange(len(jr) - 1),
                           indexing="ij")
        p, q = p.ravel(), q.ravel()
        ok, bound = bounds(Sig[hi[p], jr[q]], stab.ALPHAS[lo[p]],
                           stab.RHOS[jr[q + 1]])
        assert ok.sum() > len(ok) // 2
        for a0, a1, r0, r1, b in zip(lo[p[ok]], hi[p[ok]], jr[q[ok]],
                                     jr[q[ok] + 1], bound):
            assert full[a0:a1 + 1, r0:r1 + 1].max() <= b
    fa = stab._level_points(na, stab.LEVELS[-1])
    fr = stab._level_points(nr, stab.LEVELS[-1])
    i, j = np.nonzero(~np.isin(np.arange(na), fa)[:, None]
                      | ~np.isin(np.arange(nr), fr)[None, :])
    a_hi = fa[np.searchsorted(fa, i)]
    r_lo = fr[np.searchsorted(fr, j, side="right") - 1]
    ok, bound = bounds(Sig[a_hi, r_lo], stab.ALPHAS[i], stab.RHOS[j])
    assert ok.sum() > len(ok) // 2
    assert np.all(full[i[ok], j[ok]] <= bound)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("name", ["model_a", "model_b"])
def test_sweep_chunk_invariance(name, rows, request, monkeypatch):
    import resilientkf.stability as stab

    model = request.getfixturevalue(name)
    best, where, overflowed, levels = stab._sweep(model)
    monkeypatch.setattr(stab, "SWEEP_ROWS", rows)
    other = stab._sweep(model)
    assert np.array_equal(best, other[0]) and np.array_equal(where, other[1])
    assert (overflowed, levels) == other[2:]


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
    from resilientkf.stability import RHO_REFINE_POINTS

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
    # a ceiling on the pairs solved guards the sweep's pruning without a
    # timing gate (1 397 on model A and 1 432 on model B, refinements
    # included); the sweep's stages and the refinements add up to the count
    search = rep["search"]
    refined = RHO_REFINE_POINTS * (1 + (search["alpha1"]["rho"] is not None))
    assert (sum(n for _, n in search["sweep_levels"]) + refined
            == search["riccati_solves"] <= 1700)
