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
    phi_sup: float       # sigma_max(Minner), open upper endpoint for phi


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
        _, phi_sup = spectral_extrema(Minner)
    except FloatingPointError as e:
        raise StabilityError(f"window-{k} stacks are not finite: {e}") from e
    return GramianParts(T1=T1, Minner=Minner, Jk=Jk, phi_sup=float(phi_sup))


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
    S = sym(parts.Minner - (1.0 / phi) * np.eye(parts.Minner.shape[0]))
    try:
        X = np.linalg.solve(S, parts.Jk)
    except np.linalg.LinAlgError:
        raise StabilityError(f"S_k singular at phi={phi:.6g} (breakpoint)")
    return sym(parts.T1 + parts.Jk.T @ X)


def _min_eig_rk(parts, phi):
    mn, _ = spectral_extrema(rk_matrix(parts, phi))
    return mn


# Absolute tolerance in phi to which phi_max locates the R_k boundary.
PHI_TOL = 1e-6


def phi_max(parts):
    """Largest phi for which R_k(phi) of the window stacks ``parts`` is
    positive definite.

    R_k(phi) decreases in phi, and its minimum eigenvalue is positive for
    small phi (under observability) and crosses zero before the upper
    endpoint.  The sign change is located by a coarse geometric scan and
    pinned down by brentq to absolute tolerance PHI_TOL; the returned phi_k
    is on the positive-definite side, within PHI_TOL of the boundary.  The
    scan starts at 1e-6 sigma_max(Minner), or, if R_k already fails there,
    at the provably positive-definite phi_lo = lambda_min(T1) /
    (||Jk||^2 + lambda_min(T1) sigma_max(Minner)), from
    lambda_min(R_k(phi)) >= lambda_min(T1) - phi ||Jk||^2 /
    (1 - phi sigma_max(Minner)).
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
    lo = 1e-6 * parts.phi_sup
    if _min_eig_rk(parts, lo) <= 0:
        t1, _ = spectral_extrema(parts.T1)
        if t1 <= 0:
            raise StabilityError(
                "R_k is not positive definite even at tiny phi; "
                "check observability of (A, C)"
            )
        lo = t1 / (np.linalg.norm(parts.Jk, 2) ** 2 + t1 * parts.phi_sup)
    prev = lo
    for g in np.geomspace(lo, ub, 200)[1:]:
        if _min_eig_rk(parts, g) <= 0:
            from scipy.optimize import brentq

            phi = brentq(lambda p: _min_eig_rk(parts, p), prev, g,
                         xtol=PHI_TOL)
            if _min_eig_rk(parts, phi) <= 0:
                # brentq's root can land up to PHI_TOL past the boundary:
                # bisect back onto the positive-definite side, stopping
                # within PHI_TOL / 1024 of the boundary so phi_k moves little
                lo, hi = max(prev, phi - PHI_TOL), phi
                if _min_eig_rk(parts, lo) <= 0:
                    lo = prev
                while hi - lo > PHI_TOL / 1024:
                    mid = 0.5 * (lo + hi)
                    if _min_eig_rk(parts, mid) > 0:
                        lo = mid
                    else:
                        hi = mid
                phi = lo
            return float(phi)
        prev = g
    return float(ub)


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
                       search={"k": k, "q": q, "phi_tol": PHI_TOL})


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
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))
    M = sym((rho ** 2 - 1.0) / rho ** 2 * np.linalg.inv(Sigma)
            + (1.0 - alpha ** 2) * CRC)
    beta, _ = spectral_extrema(M)
    return Sigma, float(beta)


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

    beta* = lambda_min((1 - rho^-2) Sigma*^{-1} + (1 - alpha^2) C^T R^{-1} C)
    with Sigma* the stabilising solution of the filter DARE of (rho A,
    rho alpha C, Q, R); it is -inf where Sigma* is not positive definite,
    cond Sigma* exceeds SIGMA_COND_MAX or the Riccati solve overflowed
    (Sigma* is NaN there).
    """
    C = model.C
    Sig = solve_filter_dare(rhos[:, None, None] * model.A,
                            (rhos * alphas)[:, None, None] * C,
                            model.Q, model.R)
    w = np.full(Sig.shape[:2], np.nan)
    solved = ~np.isnan(Sig[:, 0, 0])
    w[solved] = np.linalg.eigvalsh(Sig[solved])
    good = (w[:, 0] > 0) & (w[:, -1] <= SIGMA_COND_MAX * w[:, 0])
    CRC = sym(C.T @ chol_solve(model.R, C))
    rg = rhos[good]
    M = (((rg ** 2 - 1.0) / rg ** 2)[:, None, None] * np.linalg.inv(Sig[good])
         + (1.0 - alphas[good] ** 2)[:, None, None] * CRC)
    beta = np.full(rhos.shape, -np.inf)
    beta[good] = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]
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
    [a_lo, a_hi] x [r_lo, r_hi] every beta* is at most
    lambda_min((1 - r_hi^-2) Sigma*(a_hi, r_lo)^{-1} + (1 - a_lo^2) C^T R^{-1} C):
    Sigma* decreases in alpha and increases in rho (the Riccati map is
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
    CRC = sym(model.C.T @ chol_solve(model.R, model.C))
    M = ((1.0 - RHOS[jr[q + 1]] ** -2.0)[:, None, None] * np.linalg.inv(S[ok])
         + (1.0 - ALPHAS[lo[p]] ** 2)[:, None, None] * CRC)
    bound[ok] = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]
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


def _refined_certificate(model, alpha, j):
    """(rho, G*) of the best beta* at alpha over RHOS[j] and
    RHO_REFINE_POINTS log-spaced points up to its grid neighbours."""
    lo = _RHO_EXPONENTS[j - 1] if j else 0.0
    hi = _RHO_EXPONENTS[min(j + 1, len(RHOS) - 1)]
    rhos = np.append(RHO_HI ** np.linspace(lo, hi, RHO_REFINE_POINTS)[1:],
                     RHOS[j])
    beta, Sig = _beta_star(model, np.full(rhos.size, alpha), rhos)
    b = int(np.argmax(beta))
    rho, Sigma, C = rhos[b], Sig[b], model.C
    # G* = rho^2 alpha A Sigma* C^T (rho^2 alpha^2 C Sigma* C^T + R)^{-1}
    S = sym(rho ** 2 * alpha ** 2 * C @ Sigma @ C.T + model.R)
    return float(rho), rho ** 2 * alpha * chol_solve(S, C @ Sigma @ model.A.T).T


def _verify_certificate(model, theta, Sigma, G, alpha, rho):
    """Run prop6_guard on a certificate at theta from P0 = Sigma, the
    certificate's own ``sigma_beta`` solution.

    The fixed-theta covariance map is monotone in P0, so passing from
    P0 = Sigma covers every 0 < P0 <= Sigma.  Returns the verification
    record and raises StabilityError when the guard rejects the
    certificate, so an unverified bound is never reported.
    """
    w = np.linalg.eigvalsh(Sigma)
    ok, cert = prop6_guard(model, theta, Sigma, G, alpha, rho)
    record = {"ok": ok, "reason": cert["reason"],
              "sigma_cond": float(w[-1] / w[0])}
    if not ok:
        raise StabilityError(
            f"theta_max certificate (alpha={alpha:.6g}, rho={rho:.6g}) fails "
            f"verification at theta={theta:.6g}: {cert['reason']}")
    return record


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
    Then rho is refined at the best alpha (and, for ``search["alpha1"]``,
    at alpha = 1, the restriction that corresponds to robustifying the
    prediction instead of the update).  The reported beta
    and Sigma are those of ``sigma_beta`` at (alpha, G*, rho).  Each
    certificate is re-verified with prop6_guard at its theta_max from
    P0 = Sigma; the verdict, its reason and cond(Sigma) are recorded under
    ``search["verification"]`` and ``search["alpha1"]["verification"]``,
    and a failed verification raises StabilityError.
    ``search["rho_hi_limits_beta"]`` is true when the winner sits at
    RHO_HI with beta < phi_k, where a wider rho range might raise the bound.
    ``search["riccati_solves"]`` counts the (alpha, rho) pairs solved, by
    the sweep and the refinements.  ``search["overflowed_pairs"]``, present
    only when nonzero, counts the solved sweep pairs whose Riccati solve
    overflowed; they count as beta* = -inf.
    """
    parts = build_gramian_parts(model, k)
    phik = phi_max(parts)
    best, where, overflowed, solves = _sweep(model)
    i = int(np.argmax(best))
    if not np.isfinite(best[i]):
        raise StabilityError("empty admissible search set for theta_max")
    alpha = float(ALPHAS[i])
    rho, G = _refined_certificate(model, alpha, where[i])
    Sigma, beta = sigma_beta(model, G, alpha, rho)
    tmax = float(min(beta, phik))
    solves += RHO_REFINE_POINTS * (1 + bool(np.isfinite(best[-1])))
    alpha1 = {"beta": -np.inf, "theta_max": None, "alpha": 1.0, "G": None,
              "rho": None}
    if np.isfinite(best[-1]):
        rho1, G1 = _refined_certificate(model, 1.0, where[-1])
        Sigma1, beta1 = sigma_beta(model, G1, 1.0, rho1)
        alpha1.update(beta=beta1, theta_max=min(beta1, phik), G=G1.tolist(),
                      rho=rho1)
        alpha1["verification"] = _verify_certificate(
            model, alpha1["theta_max"], Sigma1, G1, 1.0, rho1)
    search = {
        "k": k,
        "alpha_grid": [float(ALPHAS[0]), float(ALPHAS[-1]), len(ALPHAS)],
        "rho_grid": [float(RHOS[0]), RHO_HI, len(RHOS)],
        "rho_refine_points": RHO_REFINE_POINTS,
        "sigma_cond_max": SIGMA_COND_MAX,
        "rho_hi_limits_beta": bool(rho == RHO_HI and beta < phik),
        "verification": _verify_certificate(model, tmax, Sigma, G, alpha, rho),
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
