import math

import numpy as np
import pytest

from resilientkf import numerics
from resilientkf.numerics import (
    NumericsError,
    chol_solve,
    check_sympd,
    gamma,
    gaussian_kl,
    solve_budget,
    solve_discrete_lyapunov,
    solve_filter_dare,
    spd_sqrt,
    spectral_extrema,
    sym,
)
from resilientkf.stability import c_max


def test_gamma_scalar_oracle():
    # scalar P=1, theta=0.5: 0.5*(ln 0.5 + 2 - 1)
    expected = 0.5 * (np.log(0.5) + 1.0)
    assert gamma(np.eye(1), 0.5) == pytest.approx(expected, abs=1e-12)
    assert gamma(np.eye(1), 0.5) == pytest.approx(0.153426, abs=1e-6)


def test_gamma_zero_and_domain():
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gamma(P, 0.0) == 0.0
    _, smax = spectral_extrema(P)
    with pytest.raises(NumericsError):
        gamma(P, 1.0 / smax)
    with pytest.raises(NumericsError):
        gamma(P, -0.1)


def test_gamma_monotone_in_theta():
    P = np.array([[1.5, 0.2], [0.2, 0.7]])
    _, smax = spectral_extrema(P)
    thetas = np.linspace(1e-6, 0.95 / smax, 50)
    vals = [gamma(P, t) for t in thetas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_solve_budget_roundtrip():
    P = np.array([[3.0, -0.4], [-0.4, 0.9]])
    for c in (1e-6, 1e-3, 0.1, 1.0):
        res = solve_budget(P, c)
        assert abs(res.achieved_budget - c) <= 1e-10
        assert gamma(P, res.theta) == pytest.approx(c, abs=1e-10)


def _gamma_series(P, theta, terms=12):
    """1/2 sum_{k>=2} (1 - 1/k) theta^k tr(P^k), i.e. theta^2 tr(P^2) / 4
    + theta^3 tr(P^3) / 3 + ..., from matrix powers alone."""
    return 0.5 * sum((1.0 - 1.0 / k) * theta ** k
                     * np.trace(np.linalg.matrix_power(P, k))
                     for k in range(2, terms + 1))


def test_gamma_small_theta_series():
    # the logdet + trace form cancels its O(theta) terms; gamma must keep
    # its relative accuracy down to theta * sigma_max = 1e-9
    P = np.array([[3.0, -0.4, 0.2], [-0.4, 0.9, 0.1], [0.2, 0.1, 0.05]])
    _, smax = spectral_extrema(P)
    for x in (1e-9, 1e-6, 1e-3):
        theta = x / smax
        ref = _gamma_series(P, theta)
        assert abs(gamma(P, theta) - ref) <= 1e-10 * ref, x


def test_solve_budget_roundtrip_relative():
    P = np.array([[3.0, -0.4], [-0.4, 0.9]])
    for c in (1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 1.0):
        res = solve_budget(P, c)
        assert abs(res.achieved_budget - c) <= 1e-10 * c, c
        assert abs(gamma(P, res.theta) - c) <= 1e-10 * c, c
        if c <= 1e-8:
            # independent of gamma: the theta found really spends c
            assert abs(_gamma_series(P, res.theta) - c) <= 1e-10 * c, c


def _solver_matrices(model_a):
    # model A's P_bar_{20|20} and a seeded 9 x 9 SPD matrix
    B = np.random.default_rng(11).standard_normal((9, 9))
    return {"pbar_a": c_max(model_a).pbar_qq, "random9": B @ B.T / 9 + 0.1 * np.eye(9)}


def _one_ulp_bracket(P, theta, c):
    """gamma(P, .) crosses c within one ulp either side of theta."""
    return (gamma(P, math.nextafter(theta, 0.0)) < c
            < gamma(P, math.nextafter(theta, math.inf)))


@pytest.mark.parametrize("c", [1e-20, 1e-14, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4])
def test_solve_budget_newton_iterations(model_a, c):
    # iteration counts, not wall time, which is too noisy to gate on.  At
    # c = 1e4 one ulp of theta moves gamma by 2e-12 c to 4e-12 c, so 1e-12 c
    # is met only where the float grid allows; otherwise the solve must end
    # on a one-ulp bracket of the root.
    for name, P in _solver_matrices(model_a).items():
        res = solve_budget(P, c)
        assert res.iterations <= 15, (name, res.iterations)
        g = gamma(P, res.theta)
        assert res.achieved_budget == g, name
        if c < 1e4:
            assert abs(g - c) <= 1e-12 * c, name
        else:
            assert abs(g - c) <= 1e-12 * c or _one_ulp_bracket(P, res.theta, c), name


def test_solve_budget_bracket_collapse():
    # near the pole one ulp of theta moves gamma by more than 2 tol c, so
    # the solve returns the better end of a one-ulp bracket around the root
    P, c = np.array([[3.0]]), 1e4
    res = solve_budget(P, c)
    below = gamma(P, math.nextafter(res.theta, 0.0))
    above = gamma(P, math.nextafter(res.theta, math.inf))
    assert above - below > 2 * 1e-12 * c
    assert _one_ulp_bracket(P, res.theta, c)
    assert abs(res.achieved_budget - c) <= min(c - below, above - c)


def test_solve_budget_raises_on_non_convergence(model_a, monkeypatch):
    P = _solver_matrices(model_a)["pbar_a"]
    monkeypatch.setattr(numerics, "BUDGET_MAX_ITER", 1)
    with pytest.raises(NumericsError, match="did not converge.*sigma_max"):
        solve_budget(P, 0.1)


@pytest.mark.parametrize("lams", [(1e-170, 1e-170), (1e300, 1.0),
                                  (1e300, 1e300)])
def test_solve_budget_at_extreme_eigenvalues(lams):
    # tr(P^2) underflows to 0 or overflows to inf, and with it the Newton
    # start and the derivative gamma' at theta = 0; both bisect instead
    P, c = np.diag(lams), 0.1
    res = solve_budget(P, c)
    assert 0 < res.theta * max(lams) < 1
    assert abs(res.achieved_budget - c) <= 1e-12 * c
    assert gamma(P, res.theta) == pytest.approx(c, rel=1e-12)


def test_solve_budget_rejects_bad_budget():
    with pytest.raises(NumericsError):
        solve_budget(np.eye(2), 0.0)
    with pytest.raises(NumericsError):
        solve_budget(np.eye(2), -1.0)


def test_gaussian_kl_identities():
    mean = np.array([0.3, -0.1])
    cov = np.array([[1.2, 0.1], [0.1, 0.8]])
    assert gaussian_kl(mean, cov, mean, cov) == pytest.approx(0.0, abs=1e-12)
    # scalar closed form
    kl = gaussian_kl([0.0], [[2.0]], [1.0], [[1.0]])
    expected = 0.5 * (2.0 + 1.0 - 1.0 - np.log(2.0))
    assert kl == pytest.approx(expected, abs=1e-12)


def test_gaussian_kl_matches_gamma():
    # distorting N(0, P) to N(0, (P^{-1} - theta I)^{-1}) costs gamma(P, theta)
    P = np.array([[1.1, 0.4], [0.4, 0.9]])
    theta = 0.3
    V = np.linalg.inv(np.linalg.inv(P) - theta * np.eye(2))
    z = np.zeros(2)
    assert gaussian_kl(z, V, z, P) == pytest.approx(gamma(P, theta), abs=1e-10)


def test_lyapunov_direct_and_residual():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((4, 4))
    F *= 0.8 / max(abs(np.linalg.eigvals(F)))
    B = rng.standard_normal((4, 4))
    V = B @ B.T
    X = solve_discrete_lyapunov(F, V)
    assert np.abs(X - (F @ X @ F.T + V)).max() <= 1e-9 * max(1.0, np.abs(X).max())


def test_lyapunov_rejects_unstable():
    with pytest.raises(NumericsError):
        solve_discrete_lyapunov(np.eye(2), np.eye(2))


def test_lyapunov_large_fixed_point():
    rng = np.random.default_rng(5)
    n = 25  # above the direct-solve cutoff
    F = rng.standard_normal((n, n))
    F *= 0.5 / max(abs(np.linalg.eigvals(F)))
    V = np.eye(n)
    X = solve_discrete_lyapunov(F, V)
    assert np.abs(X - (F @ X @ F.T + V)).max() <= 1e-6


# (alpha, rho) pairs with rho A unstable, the last one model B's theta_max
# winner, where cond Sigma* is about 1e6
DARE_PAIRS = [(0.5, 10.0), (1.0, 20.0), (0.01, 20.0), (0.33, 1.911),
              (0.01, 3.1607538)]


@pytest.mark.parametrize("name", ["model_a", "model_b"])
def test_solve_filter_dare_matches_scipy(name, request):
    from scipy.linalg import solve_discrete_are

    model = request.getfixturevalue(name)
    alphas, rhos = np.array(DARE_PAIRS).T
    Ab = rhos[:, None, None] * model.A
    Cb = (rhos * alphas)[:, None, None] * model.C
    X = solve_filter_dare(Ab, Cb, model.Q, model.R)
    assert max(np.abs(np.linalg.eigvals(a)).max() for a in Ab) > 1.0
    for A, C, Xi in zip(Ab, Cb, X):
        # the residual of X = A (X^{-1} + C^T R^{-1} C)^{-1} A^T + Q, a form
        # without the cancellation of A X A^T - K S K^T, relative to the
        # size of the equation's terms (A X A^T alone is 400 X at rho = 20)
        G = C.T @ np.linalg.solve(model.R, C)
        rhs = A @ np.linalg.solve(np.eye(model.n) + Xi @ G, Xi) @ A.T + model.Q
        terms = np.abs(A @ Xi @ A.T).max() + np.abs(model.Q).max()
        assert np.abs(Xi - rhs).max() <= 1e-10 * terms
        ref = solve_discrete_are(A.T, C.T, model.Q, model.R)
        assert np.abs(Xi - ref).max() <= 1e-9 * np.abs(ref).max()
        # the stabilising solution: the closed loop A - K C is stable
        K = A @ Xi @ C.T @ np.linalg.inv(C @ Xi @ C.T + model.R)
        assert np.abs(np.linalg.eigvals(A - K @ C)).max() < 1.0


def test_solve_filter_dare_raises_on_non_convergence(model_b, monkeypatch):
    import resilientkf.numerics as num

    monkeypatch.setattr(num, "MAX_DOUBLINGS", 2)
    with pytest.raises(NumericsError, match="did not converge"):
        solve_filter_dare(3.0 * model_b.A[None], model_b.C[None], model_b.Q,
                          model_b.R)


def test_doubling_overflow_is_nan_per_equation():
    import resilientkf.numerics as num

    # Smith doubling of X = F^T X F + I diverges for the unstable second F;
    # it comes back as NaN and the stable first equation is still solved
    F = np.stack([np.array([[0.5, 0.2], [0.0, 0.3]]), 3.0 * np.eye(2)])
    X = num._doubling(F, None, np.eye(2))
    assert np.isnan(X[1]).all()
    ref = solve_discrete_lyapunov(F[0].T, np.eye(2))
    assert np.abs(X[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lyapunov_doubling_overflow_raises():
    # stable (spectral radius 0.5), but F^(2^j) overflows before converging
    F = 0.5 * np.eye(21)
    F[0, 1] = 1e200
    with pytest.raises(NumericsError, match="overflowed"):
        solve_discrete_lyapunov(F, np.eye(21))


def test_spd_helpers():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    L = spd_sqrt(P)
    assert np.allclose(L @ L.T, P)
    assert np.allclose(chol_solve(P, np.eye(2)) @ P, np.eye(2))
    with pytest.raises(NumericsError):
        check_sympd(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NumericsError):
        check_sympd(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric
    assert np.allclose(sym([[1.0, 2.0], [0.0, 1.0]]),
                       [[1.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("call", [
    lambda: check_sympd([[math.nan]]),
    lambda: check_sympd([[math.inf]]),
    lambda: gamma([[math.nan]], 0.1),
    lambda: solve_budget([[2.0, math.nan], [math.nan, 1.0]], 0.1),
    lambda: chol_solve([[math.inf]], [[1.0]]),
    lambda: chol_solve([[1.0]], [[math.nan]]),
], ids=["check_sympd_nan", "check_sympd_inf", "gamma_nan", "solve_budget_nan",
        "chol_solve_inf_p", "chol_solve_nan_b"])
def test_kernels_reject_non_finite(call):
    with pytest.raises(NumericsError, match="non-finite"):
        call()


def test_chol_solve_matches_scipy():
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(5)
    for n in (1, 2, 5, 20, 90):
        B = rng.standard_normal((n, n))
        P = B @ B.T + 0.1 * np.eye(n)
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            want = cho_solve(cho_factor(P, lower=True), rhs)
            got = chol_solve(P, rhs)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.linalg.cond(P) * (
                np.abs(want).max())


def test_check_symmetric_without_overflow():
    # S - S.T and S + S.T would overflow: the matrix is compared and
    # averaged in halves, so no RuntimeWarning escapes
    P = check_sympd([[1e308, 1.0], [1.0000001, 1.0]])
    assert P.tolist() == [[1e308, 0.5 + 0.50000005], [0.5 + 0.50000005, 1.0]]
    with pytest.raises(NumericsError, match="not symmetric"):
        check_sympd([[1.0, -1e308], [1e308, 1.0]])


def test_check_sympd_keeps_entries_beyond_half_the_largest_float():
    # sym would overflow them; an exactly symmetric matrix needs no sym
    assert check_sympd([[1e308, 0.0], [0.0, 1.0]]).tolist() == [[1e308, 0.0],
                                                               [0.0, 1.0]]
