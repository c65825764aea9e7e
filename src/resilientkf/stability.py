"""Convergence and tolerance bounds for the resilient filters.

Two certified bounds:

- ``c_max``: the largest per-step distortion budget for which the
  update-resilient filter's gain provably converges.  Built from phi_k (the
  largest distortion strength keeping the Gramian-related matrix R_k
  positive definite) composed with the undistorted Riccati floor P_bar
  through the budget function gamma.
- ``theta_max``: the largest fixed distortion strength for which the
  risk-sensitive variant's covariance recursion stays bounded, obtained as
  min(beta, phi_k) where beta comes from a Lyapunov-certified contraction
  argument maximized over an observer gain G, a mixing weight alpha, and a
  contraction margin rho.  The maximum over G is exact: for fixed
  (alpha, rho) it is attained at the gain of a filter Riccati equation
  (DARE), solved for a whole grid of (alpha, rho) pairs at once by
  structured doubling, so the cost does not grow with the size of G.
  Certificates with an ill-conditioned Sigma are excluded, and the winner
  is re-verified with ``prop6_guard`` before it is reported.
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
# Gramian machinery and phi_k


@dataclass
class GramianParts:
    """The compositions of R_k over a window of length k (the stacks are
    those of ``build_gramian_parts``)."""

    T1: np.ndarray       # obs^T (Rk_noise + Hk Hk^T)^{-1} obs
    Minner: np.ndarray   # Lk (I + Hk^T Rk_noise^{-1} Hk)^{-1} Lk^T
    Jk: np.ndarray       # obs_r - Lk Hk^T (Rk_noise + Hk Hk^T)^{-1} obs
    mu: np.ndarray       # eigenvalues of Minner = U diag(mu) U^T, ascending
    K: np.ndarray        # U^T Jk
    phi_sup: float       # sigma_max(Minner) = mu[-1], open upper endpoint for phi


def _block_toeplitz(blocks, k, br, bc):
    """Strictly upper block-triangular Toeplitz from the first block row
    (0, blocks[0], ..., blocks[k-2])."""
    M = np.zeros((k * br, k * bc))
    for i in range(k):
        for j in range(i + 1, k):
            M[i * br:(i + 1) * br, j * bc:(j + 1) * bc] = blocks[j - i - 1]
    return M


@np.errstate(over="raise", invalid="raise")
def build_gramian_parts(model, k):
    """The compositions of R_k from the window-k stacks.

    obs is the observability stack [ (CA^{k-1}); ...; CA; C ], obs_r the
    reachability-style stack [ A^{k-1}; ...; A; I ], Rk_noise = I_k kron R,
    and Hk / Lk the strictly upper block-triangular Toeplitz matrices with
    first block rows (0, H_1, ..., H_{k-1}) and (0, L_1, ..., L_{k-1}),
    H_j = C A^{j-1} Q^{1/2}, L_j = A^{j-1} Q^{1/2}.  Stacks that overflow
    or turn NaN raise StabilityError.
    """
    validate(model)
    n, m = model.n, model.m
    if k < n:
        raise StabilityError(f"window k={k} must be at least the state dimension {n}")
    if not is_observable(model.A, model.C):
        raise StabilityError("(A, C) must be observable")
    try:
        A, C = model.A, model.C
        Qh = spd_sqrt(model.Q)
        powers = [np.linalg.matrix_power(A, j) for j in range(k)]
        obs = np.vstack([C @ powers[j] for j in range(k - 1, -1, -1)])
        obs_r = np.vstack([powers[j] for j in range(k - 1, -1, -1)])
        Hb = [C @ powers[j - 1] @ Qh for j in range(1, k)]
        Lb = [powers[j - 1] @ Qh for j in range(1, k)]
        Hk = _block_toeplitz(Hb, k, m, n)
        Lk = _block_toeplitz(Lb, k, n, n)
        Rk_noise = np.kron(np.eye(k), model.R)
        W = sym(Rk_noise + Hk @ Hk.T)
        T1 = sym(obs.T @ chol_solve(W, obs))
        inner = sym(np.eye(k * n) + Hk.T @ chol_solve(Rk_noise, Hk))
        Minner = sym(Lk @ chol_solve(inner, Lk.T))
        Jk = obs_r - Lk @ Hk.T @ chol_solve(W, obs)
        mu, U = np.linalg.eigh(Minner)
    except FloatingPointError as e:
        raise StabilityError(f"window-{k} stacks are not finite: {e}") from e
    return GramianParts(T1=T1, Minner=Minner, Jk=Jk, mu=mu, K=U.T @ Jk,
                        phi_sup=float(mu[-1]))


def _rk_stack(parts, phis):
    """R_k at each phi of the 1-D array ``phis``, and a mask of the phis at
    which S_k is singular (their R_k drop the singular directions).

    With Minner = U diag(mu) U^T and K = U^T Jk, Jk^T S_k^{-1} Jk =
    K^T diag(1 / (mu - 1/phi)) K, so one eigendecomposition serves every
    phi and the whole stack is one product.
    """
    den = parts.mu - 1.0 / phis[:, None]
    singular = (den == 0.0).any(axis=1)
    d = np.divide(1.0, den, out=np.zeros_like(den), where=den != 0.0)
    R = parts.T1 + (parts.K.T * d[:, None, :]) @ parts.K
    return 0.5 * (R + R.transpose(0, 2, 1)), singular


def rk_matrix(parts, phi):
    """The n x n symmetric matrix R_k(phi) whose positive definiteness
    certifies contraction of the distorted Riccati map at strength phi.

    R_k = obs^T (Rk_noise + Hk Hk^T)^{-1} obs + Jk^T S_k^{-1} Jk with
    S_k = Minner - phi^{-1} I; valid for phi in (0, sigma_max(Minner)).
    """
    phi = float(phi)
    if phi <= 0.0 or (parts.phi_sup > 0.0 and phi >= parts.phi_sup):
        raise StabilityError(
            f"phi={phi:.6g} outside the admissible interval (0, {parts.phi_sup:.6g})"
        )
    R, singular = _rk_stack(parts, np.array([phi]))
    if singular[0]:
        raise StabilityError(f"S_k singular at phi={phi:.6g} (breakpoint)")
    return R[0]


def _first_failure(parts, phis):
    """Index of the first phi of the increasing array ``phis`` at which R_k
    is not positive definite, len(phis) if there is none; StabilityError
    when S_k is singular there instead."""
    R, singular = _rk_stack(parts, phis)
    fail = singular | (np.linalg.eigvalsh(R)[:, 0] <= 0.0)
    i = int(np.argmax(fail)) if fail.any() else len(phis)
    if i < len(phis) and singular[i]:
        raise StabilityError(f"S_k singular at phi={phis[i]:.6g} (breakpoint)")
    return i


# phi_max scans PHI_SCAN geometric points, then bisects the bracket of the
# R_k boundary to a width of PHI_RTOL relative to phi.
PHI_SCAN = 200
PHI_RTOL = 1e-12


def phi_max(parts):
    """Largest phi for which R_k(phi) of the window stacks ``parts`` is
    positive definite.

    R_k(phi) decreases in phi, and its minimum eigenvalue is positive for
    small phi (under observability) and crosses zero before the upper
    endpoint.  The sign change is located by one stacked evaluation of R_k
    at PHI_SCAN geometric points, then bisected until the bracket is at
    most PHI_RTOL phi wide or no float lies inside it; the returned phi_k
    is its positive-definite end.  The scan starts at 1e-6
    sigma_max(Minner), or, if R_k already fails there, at the provably
    positive-definite phi_lo = lambda_min(T1) / (||Jk||^2 + lambda_min(T1)
    sigma_max(Minner)), from lambda_min(R_k(phi)) >= lambda_min(T1) -
    phi ||Jk||^2 / (1 - phi sigma_max(Minner)).

    The computed lambda_min(R_k) can change sign more than once near the
    boundary, so phi_k's digits past about 1e-10 relative depend on the
    scan bracket and are not signal, across windows k or otherwise.
    """
    if parts.phi_sup <= 0.0:
        # degenerate window (Lk = 0): R_k = T1 - phi Jk^T Jk is linear in
        # phi, so the positive-definiteness boundary has a closed form
        X = chol_solve(parts.T1, parts.Jk.T @ parts.Jk)
        lam = max(np.linalg.eigvals(X).real)
        if lam <= 0:
            raise StabilityError("R_k stays positive definite for every phi")
        return float(1.0 / lam)
    ub = parts.phi_sup * (1.0 - 1e-9)
    phis = np.geomspace(1e-6 * parts.phi_sup, ub, PHI_SCAN)
    i = _first_failure(parts, phis)
    if i == 0:
        t1, _ = spectral_extrema(parts.T1)
        if t1 > 0:
            lo = t1 / (np.linalg.norm(parts.Jk, 2) ** 2 + t1 * parts.phi_sup)
            phis = np.geomspace(lo, ub, PHI_SCAN)
            i = _first_failure(parts, phis)
        if i == 0:
            raise StabilityError(
                "R_k is not positive definite even at tiny phi; "
                "check observability of (A, C)"
            )
    if i == len(phis):
        return float(ub)
    lo, hi = float(phis[i - 1]), float(phis[i])
    while hi - lo > PHI_RTOL * lo:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _first_failure(parts, np.array([mid])):  # R_k(mid) is PD
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# Riccati floor and c_max


def pbar_filtered(model, q):
    """Filtered covariance floor after q undistorted Riccati steps from
    P_bar_0 = Q: the Kalman filter's filtered covariance at step q."""
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
    convergence of the update-resilient filter for any c in (0, c_max]."""
    parts = build_gramian_parts(model, k)
    phik = phi_max(parts)
    Pq = pbar_filtered(model, q)
    val = gamma(Pq, phik)
    return BoundReport(phi_k=phik, c_max=float(val), pbar_qq=Pq,
                       search={"k": k, "q": q, "phi_rtol": PHI_RTOL})


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


# theta_max sweeps beta*(alpha, rho) over ALPHAS x RHOS, pruning BOX x
# BOX-cell boxes by a bound (``_sweep``) and solving at most SWEEP_ROWS *
# len(RHOS) pairs per batched Riccati solve (a lower peak memory than one
# 20 000-pair batch), then refines rho at the best alpha on
# RHO_REFINE_POINTS points between the neighbours of the best grid rho.
# The last alpha is 1, so the same sweep gives the alpha = 1 diagnostic.
ALPHAS = np.linspace(0.01, 1.0, 100)
# On models A and B beta* peaks at rho = 1.9 and 3.2 and falls beyond.  On
# other models it can keep rising towards a limit as rho grows (some seeded
# random 2- and 3-state models do), so the winner sits at RHO_HI;
# ``search["rho_hi_limits_beta"]`` flags when that leaves beta < phi_k.
# Past RHO_HI Sigma grows like rho^2 and the certificate at theta = beta
# stops verifying: on one seeded 2-state model beta* gains 0.2 % from
# rho = 20 to 400, but prop6_guard rejects it from rho = 100 (cond Sigma
# 4e4), where the predicted covariance crosses Sigma by 1.3e-8 of roundoff.
RHO_HI = 20.0
_RHO_EXPONENTS = np.arange(1, 201) / 200.0
RHOS = RHO_HI ** _RHO_EXPONENTS  # log-spaced in (1, RHO_HI]
SWEEP_ROWS = 10
BOX = 5
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


def _corners(size):
    """Indices 0, BOX, 2 BOX, ... and size - 1 of a grid axis: the box
    corners of the pruned sweep."""
    return np.union1d(np.arange(0, size, BOX), [size - 1])


def _sweep(model):
    """The best beta* in every alpha row of ALPHAS x RHOS, its rho index,
    the number of solved pairs whose Riccati solve overflowed, and the
    number of pairs solved.

    A two-level search, exact on the rows theta_max reads.  Level 1 solves
    the corners of the BOX x BOX-cell boxes of the grid.  On a box
    [a_lo, a_hi] x [r_lo, r_hi] every beta* is at most the ``_betas``
    value of Sigma*(a_hi, r_lo) at (a_lo, r_hi): Sigma* decreases in
    alpha and increases in rho (the Riccati map is
    X -> A (rho^-2 X^{-1} + alpha^2 C^T R^{-1} C)^{-1} A^T + Q), and the
    SIGMA_COND_MAX cap and overflow only lower beta* to -inf.  Level 2
    solves the rest of every box whose bound reaches the best corner beta*
    (the incumbent), and likewise of every alpha = 1 segment against the
    best alpha = 1 corner.  A pruned pair lies below an incumbent, which is
    at most the grid maximum, so every pair attaining the maximum is
    solved, and so is every maximiser in the alpha = 1 row: ``best`` and
    ``where`` equal the full grid's in the winning row and the alpha = 1
    row; other rows may read lower.  Each pair's beta* is the full grid's
    bit for bit, because a converged equation leaves the doubling batch.
    """
    na, nr = len(ALPHAS), len(RHOS)
    beta = np.full((na, nr), -np.inf)
    ia, jr = _corners(na), _corners(nr)
    I, J = np.meshgrid(ia, jr, indexing="ij")
    corner, Sig = _beta_star(model, ALPHAS[I.ravel()], RHOS[J.ravel()])
    beta[I, J] = corner.reshape(I.shape)
    overflowed = int(np.isnan(Sig[:, 0, 0]).sum())
    # box rows [ALPHAS[lo], ALPHAS[hi]] by corner rows k_lo, k_hi; the last
    # box row is the alpha = 1 row alone, against its own incumbent
    k = np.arange(len(ia))
    k_lo, k_hi = np.append(k[:-1], k[-1]), np.append(k[1:], k[-1])
    lo, hi = ia[k_lo], ia[k_hi]
    incumbent = np.append(np.full(len(ia) - 1, corner.max()),
                          beta[-1, jr].max())
    # each box's bound from Sigma* at its (a_hi, r_lo) corner; it stays +inf
    # where that Sigma* is not finite and positive definite
    S = Sig.reshape(len(ia), len(jr), model.n, model.n)[k_hi, :-1]
    bound = np.full(S.shape[:2], np.inf)
    ok = np.isfinite(S).all(axis=(-2, -1))
    ok[ok] = np.linalg.eigvalsh(S[ok])[:, 0] > 0
    p, q = np.nonzero(ok)
    bound[ok] = _betas(model, S[ok], ALPHAS[lo[p]], RHOS[jr[q + 1]])
    need = np.zeros((na, nr), dtype=bool)
    # the 1e-9 slack only keeps boxes whose bound ties the incumbent
    for p, q in zip(*np.nonzero(bound * (1.0 + 1e-9) >= incumbent[:, None])):
        need[lo[p]:hi[p] + 1, jr[q]:jr[q + 1] + 1] = True
    need[I, J] = False
    rows, cols = np.nonzero(need)
    for s in range(0, len(rows), SWEEP_ROWS * nr):
        r, c = rows[s:s + SWEEP_ROWS * nr], cols[s:s + SWEEP_ROWS * nr]
        beta[r, c], Sig = _beta_star(model, ALPHAS[r], RHOS[c])
        overflowed += int(np.isnan(Sig[:, 0, 0]).sum())
    where = np.argmax(beta, axis=1)
    return (beta[np.arange(na), where], where, overflowed,
            ia.size * jr.size + rows.size)


def _certificate(model, alpha, j, phik):
    """The verified certificate at weight alpha: (rho, G*, Sigma, beta,
    theta_max, verification).

    rho maximises beta* over RHOS[j] and RHO_REFINE_POINTS log-spaced
    points up to its grid neighbours, G* is the DARE gain there, Sigma and
    beta are ``sigma_beta``'s at (alpha, G*, rho), and theta_max =
    min(beta, phik).  prop6_guard checks it at theta_max from P0 = Sigma,
    which covers every 0 < P0 <= Sigma because the fixed-theta covariance
    map is monotone in P0.  The record holds the verdict, its reason and
    cond(Sigma); a rejected certificate raises StabilityError.
    """
    lo = _RHO_EXPONENTS[j - 1] if j else 0.0
    hi = _RHO_EXPONENTS[min(j + 1, len(RHOS) - 1)]
    rhos = np.append(RHO_HI ** np.linspace(lo, hi, RHO_REFINE_POINTS)[1:],
                     RHOS[j])
    beta, Sig = _beta_star(model, np.full(rhos.size, alpha), rhos)
    b = int(np.argmax(beta))
    rho, S, C = float(rhos[b]), Sig[b], model.C
    # G* = rho^2 alpha A Sigma* C^T (rho^2 alpha^2 C Sigma* C^T + R)^{-1}
    W = sym(rho ** 2 * alpha ** 2 * C @ S @ C.T + model.R)
    G = rho ** 2 * alpha * chol_solve(W, C @ S @ model.A.T).T
    Sigma, beta = sigma_beta(model, G, alpha, rho)
    theta = float(min(beta, phik))
    ok, cert = prop6_guard(model, theta, Sigma, G, alpha, rho)
    if not ok:
        raise StabilityError(
            f"theta_max certificate (alpha={alpha:.6g}, rho={rho:.6g}) fails "
            f"verification at theta={theta:.6g}: {cert['reason']}")
    w = np.linalg.eigvalsh(Sigma)
    return rho, G, Sigma, beta, theta, {
        "ok": ok, "reason": cert["reason"], "sigma_cond": float(w[-1] / w[0])}


def theta_max(model, k=10):
    """Risk-sensitivity bound theta_max = min(beta*, phi_k).

    beta* is the largest beta of ``sigma_beta`` over (alpha, G, rho).  For
    fixed (alpha, rho) the maximum over G has a closed form: completing the
    square shows that every Lyapunov solution Sigma_G with rho times the
    spectral radius of A - alpha G C below one satisfies Sigma_G >= Sigma*,
    the stabilising solution of the filter DARE of (rho A, rho alpha C, Q,
    R), with equality at G* = rho^2 alpha A Sigma* C^T (rho^2 alpha^2 C
    Sigma* C^T + R)^{-1}; lambda_min is monotone, so G* maximises beta.
    No grid over G is needed, and the work does not grow with n * m.

    beta* is swept over ALPHAS x RHOS by batched doubling solves that skip
    the boxes of the grid whose monotone upper bound falls below the best
    box corner (``_sweep``); the winner is the full grid's, bit for bit.
    ``_certificate`` refines rho and verifies the result at the best alpha
    and, for ``search["alpha1"]``, at alpha = 1, the restriction that
    corresponds to robustifying the prediction instead of the update; their
    records are ``search["verification"]`` and
    ``search["alpha1"]["verification"]``.
    ``search["rho_hi_limits_beta"]`` is true when the winner sits at
    RHO_HI with beta < phi_k, where a wider rho range might raise the bound.
    ``search["riccati_solves"]`` counts the (alpha, rho) pairs solved, by
    the sweep and the refinements.  ``search["overflowed_pairs"]``, present
    only when nonzero, counts the solved sweep pairs whose Riccati solve
    overflowed or met a singular system; they count as beta* = -inf.
    """
    parts = build_gramian_parts(model, k)
    phik = phi_max(parts)
    best, where, overflowed, solves = _sweep(model)
    i = int(np.argmax(best))
    if not np.isfinite(best[i]):
        raise StabilityError("empty admissible search set for theta_max")
    alpha = float(ALPHAS[i])
    rho, G, Sigma, beta, tmax, verification = _certificate(
        model, alpha, where[i], phik)
    solves += RHO_REFINE_POINTS * (1 + bool(np.isfinite(best[-1])))
    alpha1 = {"beta": -np.inf, "theta_max": None, "alpha": 1.0, "G": None,
              "rho": None}
    if np.isfinite(best[-1]):
        rho1, G1, _, beta1, tmax1, verification1 = _certificate(
            model, 1.0, where[-1], phik)
        alpha1.update(beta=beta1, theta_max=tmax1, G=G1.tolist(), rho=rho1,
                      verification=verification1)
    search = {
        "k": k,
        "phi_rtol": PHI_RTOL,
        "alpha_grid": [float(ALPHAS[0]), float(ALPHAS[-1]), len(ALPHAS)],
        "rho_grid": [float(RHOS[0]), RHO_HI, len(RHOS)],
        "rho_refine_points": RHO_REFINE_POINTS,
        "sigma_cond_max": SIGMA_COND_MAX,
        "rho_hi_limits_beta": bool(rho == RHO_HI and beta < phik),
        "verification": verification,
        "alpha1": alpha1,
        "riccati_solves": solves,
    }
    if overflowed:
        search["overflowed_pairs"] = overflowed
    return BoundReport(phi_k=phik, theta_max=tmax,
                       beta=beta, sigma=Sigma, rho=rho, alpha=alpha, G=G,
                       search=search)


# Steps of the fixed-theta covariance recursion that prop6_guard checks.
GUARD_HORIZON = 1000


def prop6_guard(model, theta, P0, G, alpha, rho):
    """Certify boundedness of the fixed-theta covariance recursion.

    Checks 0 < P0 <= Sigma and theta <= beta for the given certificate
    arguments; when both hold, runs the fixed-theta covariance recursion
    for GUARD_HORIZON steps and verifies every distorted covariance stays
    positive definite and every predicted covariance stays below Sigma
    (once the recursion cycles, only its distinct entries are checked).
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
        sched = covariance_schedule(
            model, FilterConfig(kind="ursf", theta=theta), P0, GUARD_HORIZON)
    except (FilterError, NumericsError) as e:
        return False, {**cert, "reason": f"covariance recursion failed: {e}"}
    # entries from start + period on are copies of earlier ones
    k = sum(sched.cycle) if sched.cycle else None
    worst_pd = np.linalg.eigvalsh(sched.cov_distorted[:k])[:, 0].min()
    worst_gap = np.linalg.eigvalsh(Sigma[None] - sched.cov_pred[:k])[:, 0].min()
    cert["min_eig_distorted"] = float(worst_pd)
    cert["min_eig_sigma_minus_pred"] = float(worst_gap)
    if worst_pd <= 0:
        return False, {**cert, "reason": "distorted covariance lost definiteness"}
    if worst_gap < -1e-8:
        return False, {**cert, "reason": "predicted covariance escaped Sigma"}
    cert["reason"] = "certified"
    return True, cert
