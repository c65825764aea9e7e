"""Convergence and tolerance bounds for the resilient filters.

Two certified bounds:

- ``c_max``: the largest per-step distortion budget for which the
  update-resilient filter's gain provably converges.  Built from phi_k (the
  supremum of the phi at which S_k = Minner - phi^{-1} I is negative
  definite and R_k = T1 + Jk^T S_k^{-1} Jk positive definite) composed with
  the undistorted Riccati floor P_bar through the budget function gamma.
- ``theta_max``: the largest fixed distortion strength for which the
  risk-sensitive variant's covariance recursion stays bounded, obtained as
  min(beta, phi_k) where beta comes from a Lyapunov-certified contraction
  argument maximized over an observer gain G, a mixing weight alpha, and a
  contraction margin rho.  The maximum over G is exact: for fixed
  (alpha, rho) it is attained at the gain of a filter Riccati equation
  (DARE), solved by batched structured doubling, so the cost does not grow
  with the size of G.  The (alpha, rho) grid is searched coarse to fine
  under a monotone upper bound that skips the pairs provably below the
  best one found, so the grid's maximiser is found exactly from a fraction
  of its Riccati solves.  Certificates with an ill-conditioned Sigma are
  excluded, and the winner is re-verified with ``prop6_guard`` before it
  is reported.
"""

import numpy as np
from dataclasses import dataclass, field

from .model import validate, is_observable
from .numerics import (
    NumericsError,
    check_sympd,
    chol_solve,
    gamma,
    solve_discrete_lyapunov,
    solve_filter_dare,
    spd_sqrt,
    spectral_extrema,
    sym,
)
from .filters import FilterConfig, covariance_schedule, FilterError


class StabilityError(RuntimeError):
    """Raised when a bound computation is infeasible."""


# ---------------------------------------------------------------------------
# phi_k


@np.errstate(over="raise", invalid="raise")
def phi_max(model, k):
    """phi_k, the supremum of the phi at which S_k = Minner - phi^{-1} I is
    negative definite and R_k = T1 + Jk^T S_k^{-1} Jk positive definite,
    over the window of length k.

    The window stacks are obs = [C A^{k-1}; ...; CA; C], obs_r =
    [A^{k-1}; ...; A; I], Rk = I_k kron R, and Hk / Lk, the strictly upper
    block-triangular Toeplitz matrices with first block rows (0, H_1, ...,
    H_{k-1}) and (0, L_1, ..., L_{k-1}), H_j = C A^{j-1} Q^{1/2} and
    L_j = A^{j-1} Q^{1/2}.  With W = Rk + Hk Hk^T and K = Lk Hk^T W^{-1},
    one solve of W against [obs, Hk Lk^T] gives T1 = obs^T W^{-1} obs,
    Jk = obs_r - K obs and, in Joseph form, Minner = (Lk - K Hk)
    (Lk - K Hk)^T + K Rk K^T, which by Woodbury is Lk (I + Hk^T Rk^{-1}
    Hk)^{-1} Lk^T and is positive semidefinite by construction.

    S_k and R_k are the two Schur complements of [[T1, Jk^T], [Jk, -S_k]],
    so they hold together exactly when T1 is positive definite and phi^{-1}
    exceeds lambda_max(Minner + Jk T1^{-1} Jk^T), the covariance of the
    window states given the window outputs under a flat prior on x_0:
    phi_k is one over that eigenvalue.  Stacks that overflow or turn NaN
    raise StabilityError; NumericsError when T1 is not positive definite.
    """
    validate(model)
    n, m = model.n, model.m
    if k < n:
        raise StabilityError(f"window k={k} must be at least the state dimension {n}")
    if not is_observable(model.A, model.C):
        raise StabilityError("(A, C) must be observable")
    # the two Toeplitz stacks first, so a window too large to hold fails
    # before the k matrix powers are built
    Hk = np.zeros((k, m, k, n))
    Lk = np.zeros((k, n, k, n))
    try:
        A, C, R = model.A, model.C, model.R
        Qh = spd_sqrt(model.Q)
        powers = np.stack([np.linalg.matrix_power(A, j) for j in range(k)])
        obs = (C @ powers[::-1]).reshape(k * m, n)
        obs_r = powers[::-1].reshape(k * n, n)
        i, j = np.triu_indices(k, 1)
        Hk[i, :, j, :] = (C @ powers[:-1] @ Qh)[j - i - 1]
        Lk[i, :, j, :] = (powers[:-1] @ Qh)[j - i - 1]
        Hk, Lk = Hk.reshape(k * m, k * n), Lk.reshape(k * n, k * n)
        W = Hk @ Hk.T
        d = np.arange(k)
        W.reshape(k, m, k, m)[d, :, d, :] += R  # W = Rk + Hk Hk^T
        Z = chol_solve(W, np.hstack([obs, Hk @ Lk.T]))
        T1 = sym(obs.T @ Z[:, :n])
        K = Z[:, n:].T
        Jk = obs_r - K @ obs
        E = Lk - K @ Hk
        KR = (K.reshape(k * n, k, m) @ R).reshape(k * n, k * m)
        X = E @ E.T + KR @ K.T + Jk @ chol_solve(T1, Jk.T)
    except FloatingPointError as e:
        raise StabilityError(f"window-{k} stacks are not finite: {e}") from e
    return float(1.0 / np.linalg.eigvalsh(sym(X))[-1])


# ---------------------------------------------------------------------------
# Riccati floor and c_max


def pbar_filtered(model, q):
    """Filtered covariance floor P_bar_{q|q}: the Kalman filter's filtered
    covariance at step q from the prediction P_bar_{0|-1} = Q."""
    validate(model)
    if q < 0:
        raise StabilityError("q must be nonnegative")
    return covariance_schedule(model, FilterConfig(kind="kf"), model.Q, q).cov_filt[q]


@dataclass
class BoundReport:
    """Result of a tolerance-bound computation with its reproducing inputs."""

    phi_k: float
    c_max: float = None
    theta_max: float = None
    pbar_qq: np.ndarray = None
    beta: float = None
    sigma: np.ndarray = None
    rho: float = None
    alpha: float = None
    G: np.ndarray = None
    search: dict = field(default_factory=dict)

    def to_dict(self):
        d = {"phi_k": self.phi_k}
        if self.c_max is not None:
            d["c_max"] = self.c_max
            d["pbar_qq"] = self.pbar_qq.tolist()
        if self.theta_max is not None:
            d["theta_max"] = self.theta_max
            d["beta"] = self.beta
            d["sigma"] = self.sigma.tolist()
            d["rho"] = self.rho
            d["alpha"] = self.alpha
            d["G"] = self.G.tolist()
        if self.search:
            d["search"] = self.search
        return d


def c_max(model, k=10, q=20):
    """Budget bound c_max = gamma(P_bar_{q|q}, phi_k) certifying gain
    convergence of the update-resilient filter for any c in (0, c_max]:
    below phi_k (``phi_max``) S_k is negative definite and R_k positive
    definite, and theta_t <= phi_k for t >= q + 1, from any P0.

    The floor starts from P_bar_{0|-1} = Q, and a run's prediction dominates
    Q only from P_{1|0} = A V_0 A^T + Q on, so its filtered covariance
    dominates P_bar_{t-1|t-1}, and P_bar_{q|q}, from t = q + 1 on; from
    t = q on only when P0 dominates Q."""
    phik = phi_max(model, k)
    Pq = pbar_filtered(model, q)
    val = gamma(Pq, phik)
    return BoundReport(phi_k=phik, c_max=float(val), pbar_qq=Pq,
                       search={"k": k, "q": q})


# ---------------------------------------------------------------------------
# Lyapunov contraction certificate and theta_max


def sigma_beta(model, G, alpha, rho):
    """Lyapunov certificate (Sigma, beta) for gain G, weight alpha, margin rho.

    Sigma solves Sigma = rho^2 (A - alpha G C) Sigma (A - alpha G C)^T
    + G R G^T + Q, requiring rho times the spectral radius of A - alpha G C
    below one; beta is the minimum eigenvalue of
    (rho^2 - 1)/rho^2 Sigma^{-1} + (1 - alpha^2) C^T R^{-1} C.
    """
    validate(model)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if not 0.0 < alpha <= 1.0:
        raise StabilityError("alpha must be in (0, 1]")
    if rho <= 1.0:
        raise StabilityError("rho must exceed 1")
    F = model.A - alpha * G @ model.C
    r = max(abs(np.linalg.eigvals(F)))
    if rho * r >= 1.0:
        raise StabilityError(
            f"rho * spectral_radius(A - alpha G C) = {rho * r:.6g} >= 1"
        )
    V = sym(G @ model.R @ G.T + model.Q)
    Sigma = check_sympd(solve_discrete_lyapunov(rho * F, V))
    beta = _betas(model, Sigma[None], np.array([alpha]), np.array([rho]))[0]
    return Sigma, float(beta)


def _betas(model, Sig, alphas, rhos):
    """lambda_min((rho^2 - 1)/rho^2 Sigma^{-1} + (1 - alpha^2) C^T R^{-1} C)
    for each Sigma of the stack ``Sig`` and its entries of ``alphas`` and
    ``rhos``: the beta of ``sigma_beta``."""
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))
    M = (((rhos ** 2 - 1.0) / rhos ** 2)[:, None, None] * np.linalg.inv(Sig)
         + (1.0 - alphas ** 2)[:, None, None] * CRC)
    return np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]


# Largest condition number of a theta_max certificate's Sigma.  On model B
# every cap from 1e4 to 1e10 selects the same certificate; without one the
# search picks cells with rho * radius -> 1 whose Sigma is numerically
# singular.
SIGMA_COND_MAX = 1e8


# theta_max sweeps beta*(alpha, rho) over ALPHAS x RHOS, coarse to fine
# over nested grids of the steps LEVELS (``_sweep``), solving at most
# SWEEP_ROWS * len(RHOS) pairs per batched Riccati solve (a lower peak
# memory than one 20 000-pair batch), then refines rho at the best alpha on
# RHO_REFINE_POINTS points between the neighbours of the best grid rho.
# The last alpha is 1, so the same sweep gives the alpha = 1 diagnostic.
ALPHAS = np.linspace(0.01, 1.0, 100)
# On models A and B beta* peaks at rho = 1.9 and 3.2 and falls beyond.  On
# other models it can keep rising towards a limit as rho grows (some seeded
# random 2- and 3-state models do), so the winner sits at RHO_HI;
# ``search["rho_hi_limits_beta"]`` flags when that leaves beta < phi_k.
# Past RHO_HI Sigma grows like rho^2 and its certificate may not verify:
# on seeded (3, 2, 1) at alpha = 0.25 beta* gains 0.2 % from rho = 20 to
# 400, and prop6_guard at theta = beta accepts at rho = 20, 50 and 400
# (cond Sigma 6.2e5) but rejects at 100 (cond Sigma 3.9e4) and 200, where
# Sigma - f(Sigma) reads -1.3e-8 and -8.5e-8 of roundoff.
RHO_HI = 20.0
_RHO_EXPONENTS = np.arange(1, 201) / 200.0
RHOS = RHO_HI ** _RHO_EXPONENTS  # log-spaced in (1, RHO_HI]
SWEEP_ROWS = 10
LEVELS = (16, 8, 4, 2)
RHO_REFINE_POINTS = 201


def _beta_star(model, alphas, rhos):
    """beta*(alpha, rho), the largest beta over all gains G, for the pairs
    (alphas[i], rhos[i]), and the DARE solutions Sigma* attaining it.

    beta* is the ``_betas`` value of Sigma*, the stabilising solution of
    the filter DARE of (rho A, rho alpha C, Q, R); it is -inf where Sigma*
    is not positive definite, cond Sigma* exceeds SIGMA_COND_MAX or the
    Riccati solve overflowed (Sigma* is NaN there).
    """
    Sig = solve_filter_dare(rhos[:, None, None] * model.A,
                            (rhos * alphas)[:, None, None] * model.C,
                            model.Q, model.R)
    w = np.full(Sig.shape[:2], np.nan)
    solved = ~np.isnan(Sig[:, 0, 0])
    w[solved] = np.linalg.eigvalsh(Sig[solved])
    good = (w[:, 0] > 0) & (w[:, -1] <= SIGMA_COND_MAX * w[:, 0])
    beta = np.full(rhos.shape, -np.inf)
    beta[good] = _betas(model, Sig[good], alphas[good], rhos[good])
    return beta, Sig


def _level_points(size, step):
    """Indices 0, step, 2 step, ... and size - 1 of a grid axis: the box
    corners of one level of the sweep."""
    return np.union1d(np.arange(0, size, step), [size - 1])


def _box_bounds(model, S, alphas, rhos):
    """The ``_betas`` values of the stack ``S`` of Sigma* at ``alphas`` and
    ``rhos``, the upper bounds of ``_sweep``; +inf where a Sigma* is not
    finite and positive definite."""
    bound = np.full(len(S), np.inf)
    ok = np.isfinite(S).all(axis=(-2, -1))
    ok[ok] = np.linalg.eigvalsh(S[ok])[:, 0] > 0
    bound[ok] = _betas(model, S[ok], alphas[ok], rhos[ok])
    return bound


def _sweep(model):
    """The best beta* in every alpha row of ALPHAS x RHOS, its rho index,
    the number of solved pairs whose Riccati solve overflowed, and
    [step, pairs solved] for each level of LEVELS and for the last pass
    (step 1).

    A coarse-to-fine search, exact on the rows theta_max reads.  On a box
    [a_lo, a_hi] x [r_lo, r_hi] every beta* is at most the ``_betas``
    value of Sigma*(a_hi, r_lo) at (a_lo, r_hi): Sigma* decreases in
    alpha and increases in rho (the Riccati map is
    X -> A (rho^-2 X^{-1} + alpha^2 C^T R^{-1} C)^{-1} A^T + Q), and the
    SIGMA_COND_MAX cap and overflow only lower beta* to -inf.  The level of
    step s splits the grid into boxes between its points 0, s, 2 s, ... and
    the last index; the alpha = 1 row also forms segments of its own.  Each
    level solves the corners of the boxes whose enclosing box of the
    previous level is still alive, in one batch, and drops every box whose
    bound falls below the best beta* solved so far (the incumbent); an
    alpha = 1 segment is held against the best alpha = 1 beta* instead.
    The last pass bounds each unsolved point of a live box by its box's
    Sigma*(a_hi, r_lo) at the point's own (alpha, rho) and solves the
    points whose bound reaches the incumbent (the alpha = 1 incumbent on
    the alpha = 1 row).  A skipped pair lies below an incumbent, which is
    at most the grid maximum, so every pair attaining the maximum is
    solved, and so is every maximiser in the alpha = 1 row: ``best`` and
    ``where`` equal the full grid's in the winning row and the alpha = 1
    row; other rows may read lower.  Each pair's beta* is the full grid's
    bit for bit, because a converged equation leaves the doubling batch.
    Sigma* is kept at the points of the finest level only.
    """
    na, nr = len(ALPHAS), len(RHOS)
    beta = np.full((na, nr), -np.inf)
    solved = np.zeros((na, nr), dtype=bool)
    fa, fr = _level_points(na, LEVELS[-1]), _level_points(nr, LEVELS[-1])
    Sig = np.full((fa.size, fr.size, model.n, model.n), np.nan)
    overflowed, levels = 0, []

    def solve(step, rows, cols):
        nonlocal overflowed
        for s in range(0, len(rows), SWEEP_ROWS * nr):
            r, c = rows[s:s + SWEEP_ROWS * nr], cols[s:s + SWEEP_ROWS * nr]
            beta[r, c], S = _beta_star(model, ALPHAS[r], RHOS[c])
            overflowed += int(np.isnan(S[:, 0, 0]).sum())
            if step > 1:
                Sig[np.searchsorted(fa, r), np.searchsorted(fr, c)] = S
        solved[rows, cols] = True
        levels.append([step, len(rows)])

    def alive(bound, rows):
        # the 1e-9 slack only keeps bounds that tie the incumbent
        incumbent = np.where(rows == na - 1, beta[-1].max(), beta.max())
        return bound * (1.0 + 1e-9) >= incumbent

    # box row p spans ALPHAS[ia[p]] to ALPHAS[ia[p + 1]]; the last box row
    # is the alpha = 1 row alone.  The search starts from the whole grid as
    # one box and the alpha = 1 row as one segment.
    ia, jr = np.array([0, na - 1]), np.array([0, nr - 1])
    live = np.ones((2, 1), dtype=bool)
    for step in LEVELS:
        pa, pr = ia, jr
        ia, jr = _level_points(na, step), _level_points(nr, step)
        # each box inherits the verdict on the box it lies in
        live = live[np.ix_(np.searchsorted(pa, ia, side="right") - 1,
                           np.searchsorted(pr, jr[:-1], side="right") - 1)]
        p, q = np.nonzero(live)
        k = np.minimum(p + 1, ia.size - 1)
        need = np.zeros((na, nr), dtype=bool)
        need[ia[np.r_[p, p, k, k]], jr[np.r_[q, q + 1, q, q + 1]]] = True
        solve(step, *np.nonzero(need & ~solved))
        S = Sig[np.searchsorted(fa, ia[k]), np.searchsorted(fr, jr[q])]
        live[p, q] = alive(_box_bounds(model, S, ALPHAS[ia[p]],
                                       RHOS[jr[q + 1]]), ia[p])
    # the last pass: every pair of every live box
    p, q = np.nonzero(live)
    k = np.minimum(p + 1, ia.size - 1)
    off = np.arange(LEVELS[-1] + 1)
    need = np.zeros((na, nr), dtype=bool)
    need[np.minimum(ia[p, None] + off, ia[k, None])[:, :, None],
         np.minimum(jr[q, None] + off, jr[q + 1, None])[:, None, :]] = True
    rows, cols = np.nonzero(need & ~solved)
    S = Sig[np.searchsorted(fa, rows),
            np.searchsorted(fr, cols, side="right") - 1]
    keep = alive(_box_bounds(model, S, ALPHAS[rows], RHOS[cols]), rows)
    solve(1, rows[keep], cols[keep])
    where = np.argmax(beta, axis=1)
    return beta[np.arange(na), where], where, overflowed, levels


def _certificates(model, rows, phik):
    """The verified certificate at each (alpha, j) of ``rows``: a list of
    (rho, G*, Sigma, beta, theta_max, verification).

    rho maximises beta* over RHOS[j] and RHO_REFINE_POINTS log-spaced
    points up to its grid neighbours, G* is the DARE gain there, Sigma and
    beta are ``sigma_beta``'s at (alpha, G*, rho), and theta_max =
    min(beta, phik).  The refinements of all rows are one batch of Riccati
    solves; a pair's beta* does not depend on its batch, because a
    converged equation leaves the doubling batch.  prop6_guard checks each
    certificate at its theta_max with one fixed-theta step from Sigma, a
    verdict for every 0 < P0 <= Sigma and every horizon, in the order of
    ``rows``.  The record holds the verdict, its reason and cond(Sigma); the
    first rejected certificate raises StabilityError.
    """
    rhos = []
    for _, j in rows:
        lo = _RHO_EXPONENTS[j - 1] if j else 0.0
        hi = _RHO_EXPONENTS[min(j + 1, len(RHOS) - 1)]
        rhos.append(np.append(
            RHO_HI ** np.linspace(lo, hi, RHO_REFINE_POINTS)[1:], RHOS[j]))
    alphas = np.repeat([alpha for alpha, _ in rows], RHO_REFINE_POINTS)
    betas, Sigs = _beta_star(model, alphas, np.concatenate(rhos))
    certificates = []
    for (alpha, _), refined, beta, Sig in zip(
            rows, rhos, np.split(betas, len(rows)), np.split(Sigs, len(rows))):
        b = int(np.argmax(beta))
        rho, S, C = float(refined[b]), Sig[b], model.C
        # G* = rho^2 alpha A Sigma* C^T (rho^2 alpha^2 C Sigma* C^T + R)^{-1}
        W = sym(rho ** 2 * alpha ** 2 * C @ S @ C.T + model.R)
        G = rho ** 2 * alpha * chol_solve(W, C @ S @ model.A.T).T
        Sigma, beta = sigma_beta(model, G, alpha, rho)
        theta = float(min(beta, phik))
        ok, cert = prop6_guard(model, theta, Sigma, G, alpha, rho)
        if not ok:
            raise StabilityError(
                f"theta_max certificate (alpha={alpha:.6g}, rho={rho:.6g}) "
                f"fails verification at theta={theta:.6g}: {cert['reason']}")
        w = np.linalg.eigvalsh(Sigma)
        certificates.append((rho, G, Sigma, beta, theta, {
            "ok": ok, "reason": cert["reason"],
            "sigma_cond": float(w[-1] / w[0])}))
    return certificates


def theta_max(model, k=10):
    """Risk-sensitivity bound theta_max = min(beta*, phi_k), where below
    phi_k (``phi_max``) S_k is negative definite and R_k positive definite.

    beta* is the largest beta of ``sigma_beta`` over (alpha, G, rho).  For
    fixed (alpha, rho) the maximum over G has a closed form: completing the
    square shows that every Lyapunov solution Sigma_G with rho times the
    spectral radius of A - alpha G C below one satisfies Sigma_G >= Sigma*,
    the stabilising solution of the filter DARE of (rho A, rho alpha C, Q,
    R), with equality at G* = rho^2 alpha A Sigma* C^T (rho^2 alpha^2 C
    Sigma* C^T + R)^{-1}; lambda_min is monotone, so G* maximises beta.
    No grid over G is needed, and the work does not grow with n * m.

    beta* is swept over ALPHAS x RHOS by batched doubling solves, coarse
    to fine over the nested grids of steps LEVELS, skipping every box and
    then every pair whose monotone upper bound falls below the best beta*
    solved so far (``_sweep``); the winner is the full grid's, bit for bit.
    ``_certificates`` refines rho and verifies the result at the best alpha
    and, for ``search["alpha1"]``, at alpha = 1, the restriction that
    corresponds to robustifying the prediction instead of the update; both
    refinements are one batch of Riccati solves, also when the best alpha
    is 1, and the best alpha's certificate is verified first.  Their
    records are ``search["verification"]`` and
    ``search["alpha1"]["verification"]``.
    ``search["rho_hi_limits_beta"]`` is true when the winner sits at
    RHO_HI with beta < phi_k, where a wider rho range might raise the bound.
    ``search["riccati_solves"]`` counts the (alpha, rho) pairs solved, by
    the sweep and the refinements; ``search["sweep_levels"]`` holds
    [step, pairs solved] for each level of the sweep and for its last pass
    (step 1), which with the refinements' RHO_REFINE_POINTS each add up to
    ``riccati_solves``.  ``search["overflowed_pairs"]``, present
    only when nonzero, counts the solved sweep pairs whose Riccati solve
    overflowed or met a singular system; they count as beta* = -inf.
    """
    phik = phi_max(model, k)
    best, where, overflowed, levels = _sweep(model)
    i = int(np.argmax(best))
    if not np.isfinite(best[i]):
        raise StabilityError("empty admissible search set for theta_max")
    alpha = float(ALPHAS[i])
    rows = [(alpha, where[i])]
    if np.isfinite(best[-1]):
        # refined again when it is the best row too, so the report does
        # not depend on which row wins
        rows.append((1.0, where[-1]))
    certificates = _certificates(model, rows, phik)
    rho, G, Sigma, beta, tmax, verification = certificates[0]
    solves = sum(n for _, n in levels) + RHO_REFINE_POINTS * len(rows)
    alpha1 = {"beta": -np.inf, "theta_max": None, "alpha": 1.0, "G": None,
              "rho": None}
    if len(certificates) > 1:
        rho1, G1, _, beta1, tmax1, verification1 = certificates[1]
        alpha1.update(beta=beta1, theta_max=tmax1, G=G1.tolist(), rho=rho1,
                      verification=verification1)
    search = {
        "k": k,
        "alpha_grid": [float(ALPHAS[0]), float(ALPHAS[-1]), len(ALPHAS)],
        "rho_grid": [float(RHOS[0]), RHO_HI, len(RHOS)],
        "rho_refine_points": RHO_REFINE_POINTS,
        "sigma_cond_max": SIGMA_COND_MAX,
        "rho_hi_limits_beta": bool(rho == RHO_HI and beta < phik),
        "verification": verification,
        "alpha1": alpha1,
        "riccati_solves": solves,
        "sweep_levels": levels,
    }
    if overflowed:
        search["overflowed_pairs"] = overflowed
    return BoundReport(phi_k=phik, theta_max=tmax,
                       beta=beta, sigma=Sigma, rho=rho, alpha=alpha, G=G,
                       search=search)


def prop6_guard(model, theta, P0, G, alpha, rho):
    """Certify that the fixed-theta covariance recursion stays feasible
    and below Sigma from every 0 < P0 <= Sigma, for every horizon.

    Checks 0 < P0 <= Sigma and theta <= beta for the given certificate
    arguments, then takes one fixed-theta ursf step from Sigma: its
    distorted covariance must be positive definite and its prediction
    f(Sigma) at most Sigma, to -1e-8 of roundoff.  The map f(P) = A (P^{-1}
    + C^T R^{-1} C - theta I)^{-1} A^T + Q and its feasibility are monotone
    in P, so then f^t(P0) <= f^t(Sigma) <= Sigma with every step feasible,
    for every t.  The record's minimum eigenvalues are that one step's.
    Returns (ok, certificate-dict); never raises on a failed check.
    """
    cert = {"theta": float(theta), "alpha": float(alpha), "rho": float(rho)}
    try:
        P0 = check_sympd(P0)
        Sigma, beta = sigma_beta(model, G, alpha, rho)
    except (NumericsError, StabilityError) as e:
        return False, {**cert, "reason": f"inadmissible certificate arguments: {e}"}
    cert["beta"] = beta
    if theta < 0:
        return False, {**cert, "reason": "theta must be nonnegative"}
    if theta == 0.0:
        return True, {**cert, "reason": "theta = 0 reduces to the standard filter"}
    mn, _ = spectral_extrema(sym(Sigma - P0))
    if mn < -1e-10:
        return False, {**cert,
                       "reason": "P0 exceeds Sigma (ordering violation)"}
    if theta > beta + 1e-12:
        return False, {**cert, "reason": f"theta exceeds beta = {beta:.6g}"}
    try:
        step = covariance_schedule(
            model, FilterConfig(kind="ursf", theta=theta), Sigma, 0)
    except (FilterError, NumericsError) as e:
        return False, {**cert, "reason": f"covariance recursion failed: {e}"}
    pd = np.linalg.eigvalsh(step.cov_distorted[0])[0]
    gap = np.linalg.eigvalsh(Sigma - step.cov_pred[1])[0]
    cert["min_eig_distorted"] = float(pd)
    cert["min_eig_sigma_minus_pred"] = float(gap)
    if pd <= 0:
        return False, {**cert, "reason": "distorted covariance lost definiteness"}
    if gap < -1e-8:
        return False, {**cert, "reason": "predicted covariance escaped Sigma"}
    cert["reason"] = "certified"
    return True, cert
