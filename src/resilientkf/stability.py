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
  contraction margin rho by deterministic grid search with refinement,
  pruned by a bound that never drops the grid's winner.  Certificates with an ill-conditioned Sigma are excluded, and the winner
  is re-verified with ``prop6_guard`` before it is reported.
"""

import numpy as np
from dataclasses import dataclass, field

from scipy.optimize import brentq

from .model import validate, is_observable
from .numerics import (
    NumericsError,
    check_sympd,
    chol_solve,
    gamma,
    solve_discrete_lyapunov,
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
    """Stacks entering the matrix R_k over a window of length k.

    obs is the observability stack [ (CA^{k-1}); ...; CA; C ], obs_r the
    reachability-style stack [ A^{k-1}; ...; A; I ], Qk = I_k kron Q,
    Rk_noise = I_k kron R, and Hk / Lk the strictly upper block-triangular
    Toeplitz matrices with first block rows (0, H_1, ..., H_{k-1}) and
    (0, L_1, ..., L_{k-1}), H_j = C A^{j-1} Q^{1/2}, L_j = A^{j-1} Q^{1/2}.
    """

    k: int
    obs: np.ndarray      # km x n
    obs_r: np.ndarray    # kn x n
    Qk: np.ndarray       # kn x kn
    Rk_noise: np.ndarray  # km x km
    Hk: np.ndarray       # km x kn
    Lk: np.ndarray       # kn x kn
    # cached compositions used by rk_matrix
    T1: np.ndarray = None       # obs^T (Rk_noise + Hk Hk^T)^{-1} obs
    Minner: np.ndarray = None   # Lk (I + Hk^T Rk_noise^{-1} Hk)^{-1} Lk^T
    Jk: np.ndarray = None       # obs_r - Lk Hk^T (Rk_noise + Hk Hk^T)^{-1} obs
    phi_sup: float = None       # sigma_max(Minner), open upper endpoint for phi


def _block_toeplitz(blocks, k, br, bc):
    """Strictly upper block-triangular Toeplitz from the first block row
    (0, blocks[0], ..., blocks[k-2])."""
    M = np.zeros((k * br, k * bc))
    for i in range(k):
        for j in range(i + 1, k):
            M[i * br:(i + 1) * br, j * bc:(j + 1) * bc] = blocks[j - i - 1]
    return M


def build_gramian_parts(model, k):
    """Materialize the window-k stacks and cache the compositions of R_k."""
    validate(model)
    n, m = model.n, model.m
    if k < n:
        raise StabilityError(f"window k={k} must be at least the state dimension {n}")
    if not is_observable(model.A, model.C):
        raise StabilityError("(A, C) must be observable")
    A, C = model.A, model.C
    Qh = spd_sqrt(model.Q)
    powers = [np.linalg.matrix_power(A, j) for j in range(k)]
    obs = np.vstack([C @ powers[j] for j in range(k - 1, -1, -1)])
    obs_r = np.vstack([powers[j] for j in range(k - 1, -1, -1)])
    Hb = [C @ powers[j - 1] @ Qh for j in range(1, k)]
    Lb = [powers[j - 1] @ Qh for j in range(1, k)]
    Hk = _block_toeplitz(Hb, k, m, n)
    Lk = _block_toeplitz(Lb, k, n, n)
    Qk = np.kron(np.eye(k), model.Q)
    Rk_noise = np.kron(np.eye(k), model.R)
    W = sym(Rk_noise + Hk @ Hk.T)
    T1 = sym(obs.T @ chol_solve(W, obs))
    inner = sym(np.eye(k * n) + Hk.T @ chol_solve(Rk_noise, Hk))
    Minner = sym(Lk @ chol_solve(inner, Lk.T))
    Jk = obs_r - Lk @ Hk.T @ chol_solve(W, obs)
    _, phi_sup = spectral_extrema(Minner)
    return GramianParts(k=k, obs=obs, obs_r=obs_r, Qk=Qk, Rk_noise=Rk_noise,
                        Hk=Hk, Lk=Lk, T1=T1, Minner=Minner, Jk=Jk,
                        phi_sup=float(phi_sup))


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


def phi_max(model, k, tol=1e-6):
    """Largest phi for which R_k(phi) is positive definite.

    The minimum eigenvalue of R_k(phi) is positive for small phi (under
    observability) and crosses zero before the upper endpoint; the first
    sign change is located by a coarse geometric scan and pinned down by
    bisection to absolute tolerance ``tol``.
    """
    parts = model if isinstance(model, GramianParts) else build_gramian_parts(model, k)
    if parts.phi_sup <= 0.0:
        # degenerate window (Lk = 0): R_k = T1 - phi Jk^T Jk is linear in
        # phi, so the positive-definiteness boundary has a closed form
        X = chol_solve(parts.T1, parts.Jk.T @ parts.Jk)
        lam = max(np.linalg.eigvals(X).real)
        if lam <= 0:
            raise StabilityError("R_k stays positive definite for every phi")
        return float(1.0 / lam)
    ub = parts.phi_sup * (1.0 - 1e-9)
    grid = np.geomspace(1e-6 * parts.phi_sup, ub, 200)
    prev = grid[0]
    if _min_eig_rk(parts, prev) <= 0:
        raise StabilityError(
            "R_k is not positive definite even at tiny phi; "
            "check observability of (A, C)"
        )
    for g in grid[1:]:
        if _min_eig_rk(parts, g) <= 0:
            return float(brentq(lambda p: _min_eig_rk(parts, p), prev, g, xtol=tol))
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


def c_max(model, k=10, q=20, tol=1e-6):
    """Budget bound c_max = gamma(P_bar_{q|q}, phi_k) certifying gain
    convergence of the update-resilient filter for any c in (0, c_max]."""
    parts = build_gramian_parts(model, k)
    phik = phi_max(parts, k, tol=tol)
    Pq = pbar_filtered(model, q)
    val = gamma(Pq, phik)
    return BoundReport(phi_k=phik, c_max=float(val), pbar_qq=Pq,
                       search={"k": k, "q": q, "phi_tol": tol})


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


@dataclass
class ThetaSearchConfig:
    """Grid-search resolution for the theta_max optimization."""

    alpha_points: int = 100
    gain_points: int = 21
    gain_range: tuple = (-10.0, 10.0)
    rho_points: int = 50
    refine_rounds: int = 3


# Cells per chunk of the theta_max grid sweep, so the sweep's memory stays
# bounded at any n*m.
BETA_CHUNK = 4096
# Every RHO_STRIDE-th rho point (and the last) is evaluated for every cell;
# the points between two of them only where the gap's bound can still win.
RHO_STRIDE = 7


def _beta_weight(rho):
    """The weight a(rho) = (rho^2 - 1)/rho^2 of Sigma^{-1} in beta."""
    return (rho ** 2 - 1.0) / rho ** 2


def _lambda_min(a, Sinv, alpha, CRC):
    """lambda_min(a Sinv + (1 - alpha^2) CRC), batched over cells."""
    M = (a[:, None, None] * Sinv
         + (1.0 - alpha ** 2)[:, None, None] * CRC[None])
    return np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))[:, 0]


def _beta_cells(s, F, V, alpha, logr, CRC):
    """beta at rho = r^{-s} for a batch of cells with closed-loop matrices F,
    noise terms V, weights alpha and log spectral radii logr.

    Returns (beta, Sinv, good, rho): rho for every cell, and beta and
    Sigma^{-1} for the cells whose Sigma passes the filters (``good``): a
    Kronecker system with |det| >= 1e-12, Sigma positive definite and
    cond Sigma <= SIGMA_COND_MAX."""
    n = F.shape[1]
    Inn = np.eye(n * n)
    rho = np.exp(-s * logr)
    Fr = rho[:, None, None] * F
    K = Inn[None] - np.einsum("nij,nkl->nikjl", Fr, Fr).reshape(-1, n * n, n * n)
    sing = np.abs(np.linalg.det(K)) < 1e-12
    K[sing] = Inn
    Sig = np.linalg.solve(K, V.reshape(-1, n * n, 1)).reshape(-1, n, n)
    Sig[sing] = -np.eye(n)
    Sig = 0.5 * (Sig + Sig.transpose(0, 2, 1))
    w = np.linalg.eigvalsh(Sig)
    good = (w[:, 0] > 0) & (w[:, -1] <= SIGMA_COND_MAX * w[:, 0])
    Sinv = np.linalg.inv(Sig[good])
    beta = _lambda_min(_beta_weight(rho[good]), Sinv, alpha[good], CRC)
    return beta, Sinv, good, rho


def _batch_beta(model, alphas, gain_axes, nrho):
    """Best beta over the product grid alphas x gain_axes (one axis per
    entry of G) x a log-spaced rho sweep rho = r^{-s}, s in (0, 1), of
    (1, 1/r) per cell, r the spectral radius of A - alpha G C.  Returns
    (best_beta, (alpha, G, rho)) or (-inf, None).

    Cells with r >= 1 - 1e-12 have no certificate.  A (cell, rho) pair whose
    Kronecker system is singular (|det| < 1e-12), whose Sigma is not
    positive definite, or whose cond Sigma exceeds SIGMA_COND_MAX is
    dropped: as rho * r -> 1 the Lyapunov system turns singular and the
    beta of such a pair is rounding noise, not a certificate.

    The winner is the maximum of (beta, -rho index, -flat cell index): the
    largest beta, ties going to the smallest rho index, then to the first
    cell in C order of the grid.  Every pair that can win is evaluated, so
    this is the winner of the full grid; most pairs that cannot are not:

    - Cells are swept in chunks of BETA_CHUNK, generated from flat grid
      indices, so memory does not grow with the grid.
    - Each chunk is evaluated at every RHO_STRIDE-th rho point and the last.
    - Sigma(rho) = sum_k rho^{2k} F^k V F^k^T is nondecreasing in rho
      (Loewner order) while a(rho) = 1 - rho^{-2} increases, so on the gap
      between two evaluated points rho_lo < rho < rho_hi every
      beta(rho) <= lambda_min(a(rho_hi) Sigma(rho_lo)^{-1}
      + (1 - alpha^2) C^T R^{-1} C), rho_hi the gap's last interior point.
      A cell's interior points are evaluated only when that bound is at
      least the running best - 1e-9 |best|, or when Sigma(rho_lo) failed a
      filter.
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    n, m = model.n, model.m
    alphas = np.asarray(alphas, dtype=float)
    gain_axes = [np.asarray(g, dtype=float) for g in gain_axes]
    shape = (len(alphas),) + tuple(len(g) for g in gain_axes)
    CRC = sym(C.T @ chol_solve(R, C))
    svals = np.linspace(1e-6, 1.0 - 1e-9, nrho)
    coarse = list(range(0, nrho - 1, RHO_STRIDE)) + [nrho - 1] if nrho else []
    best, best_args = (-np.inf, 0, 0), None

    def offer(beta, ri, cells, al, G, rho):
        # ties within a batch go to its first cell, the smallest flat index
        nonlocal best, best_args
        if beta.size == 0:
            return
        j = int(np.argmax(beta))
        key = (float(beta[j]), -ri, -int(cells[j]))
        if key > best:
            best = key
            best_args = (float(al[j]), G[j].copy(), float(rho[j]))

    total = int(np.prod(shape))
    for start in range(0, total, BETA_CHUNK):
        cells = np.arange(start, min(start + BETA_CHUNK, total))
        idx = np.unravel_index(cells, shape)
        al = alphas[idx[0]]
        G = np.stack([g[i] for g, i in zip(gain_axes, idx[1:])],
                     axis=1).reshape(-1, n, m)
        F = A[None] - al[:, None, None] * (G @ C[None])
        r = np.abs(np.linalg.eigvals(F)).max(axis=1)
        ok = np.nonzero(r < 1.0 - 1e-12)[0]
        if ok.size == 0:
            continue
        cells, al, G, F, r = cells[ok], al[ok], G[ok], F[ok], r[ok]
        V = G @ R[None] @ G.transpose(0, 2, 1) + Q[None]
        logr = np.log(np.maximum(r, 1e-12))
        lower = []  # (good, Sinv) at each coarse point
        for ri in coarse:
            beta, Sinv, good, rho = _beta_cells(svals[ri], F, V, al, logr, CRC)
            offer(beta, ri, cells[good], al[good], G[good], rho[good])
            lower.append((good, Sinv))
        for (lo, hi), (good, Sinv) in zip(zip(coarse, coarse[1:]), lower):
            if hi - lo < 2:
                continue
            bound = np.full(cells.size, np.inf)
            a_hi = _beta_weight(np.exp(-svals[hi - 1] * logr[good]))
            bound[good] = _lambda_min(a_hi, Sinv, al[good], CRC)
            for ri in range(lo + 1, hi):
                live = np.nonzero(bound >= best[0] - 1e-9 * abs(best[0]))[0]
                if live.size == 0:
                    break
                beta, _, g2, rho = _beta_cells(svals[ri], F[live], V[live],
                                               al[live], logr[live], CRC)
                keep = live[g2]
                offer(beta, ri, cells[keep], al[keep], G[keep], rho[g2])
    return best[0], best_args


def _beta_search(model, cfg, fix_alpha=None):
    """Grid search for the best beta, with coordinate-wise refinement."""
    n, m = model.n, model.m
    lo, hi = cfg.gain_range
    if fix_alpha is not None:
        alphas = np.array([fix_alpha])
        da = 0.0
    else:
        alphas = np.linspace(1.0 / cfg.alpha_points, 1.0, cfg.alpha_points)
        da = alphas[1] - alphas[0] if cfg.alpha_points > 1 else 0.0
    axes = [np.linspace(lo, hi, cfg.gain_points) for _ in range(n * m)]
    dg = axes[0][1] - axes[0][0]
    val, args = _batch_beta(model, alphas, axes, cfg.rho_points)
    for _ in range(cfg.refine_rounds):
        if args is None:
            break
        a0, G0, _ = args
        g0 = G0.ravel()
        alphas = (np.array([fix_alpha]) if fix_alpha is not None
                  else np.clip(np.linspace(a0 - da, a0 + da, cfg.gain_points),
                               1e-6, 1.0))
        axes = [np.linspace(g - dg, g + dg, cfg.gain_points) for g in g0]
        v2, a2 = _batch_beta(model, alphas, axes, cfg.rho_points)
        if v2 > val:
            val, args = v2, a2
        da /= 10.0
        dg /= 10.0
    return val, args


def _verify_certificate(model, theta, G, alpha, rho):
    """Run prop6_guard on a certificate at theta from P0 = Sigma.

    The fixed-theta covariance map is monotone in P0, so passing from
    P0 = Sigma covers every 0 < P0 <= Sigma.  Returns the verification
    record and raises StabilityError when the guard rejects the
    certificate, so an unverified bound is never reported.
    """
    Sigma, _ = sigma_beta(model, G, alpha, rho)
    w = np.linalg.eigvalsh(Sigma)
    ok, cert = prop6_guard(model, theta, Sigma, G, alpha, rho)
    record = {"ok": ok, "reason": cert["reason"],
              "sigma_cond": float(w[-1] / w[0])}
    if not ok:
        raise StabilityError(
            f"theta_max certificate (alpha={alpha:.6g}, rho={rho:.6g}) fails "
            f"verification at theta={theta:.6g}: {cert['reason']}")
    return record


def theta_max(model, k=10, config=None, tol=1e-6):
    """Risk-sensitivity bound theta_max = min(beta*, phi_k).

    Maximizes beta over (alpha, G, rho) by grid search with refinement
    (and, in the search diagnostics, the alpha = 1 restriction that
    corresponds to robustifying the prediction instead of the update).
    Each grid is swept by ``_batch_beta``: in chunks of BETA_CHUNK cells,
    skipping the rho points whose Loewner bound on beta cannot reach the
    running best, with ties going to the smallest rho index and then to
    the first cell, so the winner is that of the full grid.  Each winning
    certificate is re-verified with prop6_guard at its
    theta_max from P0 = Sigma; the verdict, its reason and cond(Sigma) are
    recorded under ``search["verification"]`` and
    ``search["alpha1"]["verification"]``, and a failed verification raises
    StabilityError.
    """
    cfg = config or ThetaSearchConfig()
    parts = build_gramian_parts(model, k)
    phik = phi_max(parts, k, tol=tol)
    val, args = _beta_search(model, cfg)
    if args is None:
        raise StabilityError("empty admissible search set for theta_max")
    val1, args1 = _beta_search(model, cfg, fix_alpha=1.0)
    alpha, G, rho = args
    Sigma, beta = sigma_beta(model, G, alpha, rho)
    tmax = float(min(beta, phik))
    alpha1 = {"beta": val1, "theta_max": None, "alpha": 1.0, "G": None,
              "rho": None}
    if args1 is not None:
        _, G1, rho1 = args1
        alpha1.update(theta_max=min(val1, phik), G=G1.tolist(), rho=rho1)
        alpha1["verification"] = _verify_certificate(
            model, alpha1["theta_max"], G1, 1.0, rho1)
    search = {
        "k": k,
        "alpha_points": cfg.alpha_points,
        "gain_points": cfg.gain_points,
        "rho_points": cfg.rho_points,
        "refine_rounds": cfg.refine_rounds,
        "sigma_cond_max": SIGMA_COND_MAX,
        "verification": _verify_certificate(model, tmax, G, alpha, rho),
        "alpha1": alpha1,
    }
    return BoundReport(phi_k=phik, theta_max=tmax,
                       beta=beta, sigma=Sigma, rho=rho, alpha=alpha, G=G,
                       search=search)


def prop6_guard(model, theta, P0, G, alpha, rho, horizon=1000):
    """Certify boundedness of the fixed-theta covariance recursion.

    Checks 0 < P0 <= Sigma and theta <= beta for the given certificate
    arguments; when both hold, runs the fixed-theta covariance recursion
    for ``horizon`` steps and verifies every distorted covariance stays
    positive definite and every predicted covariance stays below Sigma.
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
        _, _, _, dists, preds = covariance_schedule(
            model, FilterConfig(kind="ursf", theta=theta), P0, horizon)
    except (FilterError, NumericsError) as e:
        return False, {**cert, "reason": f"covariance recursion failed: {e}"}
    worst_pd = np.linalg.eigvalsh(np.array(dists))[:, 0].min()
    worst_gap = np.linalg.eigvalsh(Sigma[None] - np.array(preds))[:, 0].min()
    cert["min_eig_distorted"] = float(worst_pd)
    cert["min_eig_sigma_minus_pred"] = float(worst_gap)
    if worst_pd <= 0:
        return False, {**cert, "reason": "distorted covariance lost definiteness"}
    if worst_gap < -1e-8:
        return False, {**cert, "reason": "predicted covariance escaped Sigma"}
    cert["reason"] = "certified"
    return True, cert
