"""Scalar and matrix kernels shared by the estimation recursions.

Contains the covariance-distortion budget function ``gamma`` and its
inversion, symmetric square roots, spectral extrema, a small dense discrete
Lyapunov solver, and a batched doubling solver for filter Riccati equations.
All functions are pure and operate on plain numpy arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-10
_HALF_MAX = 0.5 * float(np.finfo(float).max)

# gamma switches to its power series below this |theta * lambda|; the series
# is cut after x^9, whose first omitted term is below 1e-18 of the leading
# x^2 / 2 there.  Coefficients 1 - 1/k for k = 9..2, in Horner order.
_GAMMA_SERIES_X = 1e-3
_GAMMA_SERIES_COEFS = tuple(1.0 - 1.0 / k for k in range(9, 1, -1))


class NumericsError(ValueError):
    """Raised when a kernel is called outside its mathematical domain."""


def _as_matrix(P):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape[0] != P.shape[1]:
        raise NumericsError(f"expected a square matrix, got shape {P.shape}")
    return P


def sym(X):
    """Re-symmetrize a matrix, or each of a stack (..., n, n), suppressing
    floating-point drift."""
    X = np.asarray(X, dtype=float)
    return 0.5 * (X + X.swapaxes(-1, -2))


def check_symmetric(S):
    S = _as_matrix(S)
    scale = float(np.abs(S).max())
    if not math.isfinite(scale):
        raise NumericsError("matrix has non-finite entries")
    # S - S.T and S + S.T overflow where an entry exceeds half the largest
    # float, so such a matrix is compared and averaged in halves
    h = 1.0 if scale <= _HALF_MAX else 0.5
    H = S if h == 1.0 else h * S
    asym = np.abs(H - H.T).max()
    if asym > h * SYM_TOL * max(1.0, scale):
        raise NumericsError("matrix is not symmetric to tolerance")
    # an exactly symmetric matrix is returned unchanged; averaging it in
    # halves would round its subnormal entries
    if asym == 0.0 and (h == 1.0 or np.array_equal(S, S.T)):
        return S.copy()
    return (0.5 / h) * (H + H.T)


def _cholesky(P):
    """Lower Cholesky factor of an exactly symmetric P; NumericsError when P
    is not positive definite."""
    try:
        return np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise NumericsError("matrix is not positive definite")


def check_sympd(P):
    """Validate a symmetric positive-definite matrix and return it symmetrized."""
    P = check_symmetric(P)
    _cholesky(P)
    return P


def chol_solve(P, B):
    """Solve P X = B for symmetric positive-definite P via Cholesky.

    numpy's Cholesky factor L, then a forward substitution with L and a
    back substitution with L^T, row by row; B is a vector or a matrix.
    Substitution, not np.linalg.solve on the factor, whose pivoted LU
    rounds differently: the theta_max certificates are conditioned at
    about 1e7 on model B and move with the rounding of this solve.
    """
    P, B = sym(P), np.asarray(B, dtype=float)
    if not (np.isfinite(P).all() and np.isfinite(B).all()):
        raise NumericsError("chol_solve of a matrix with non-finite entries")
    L = _cholesky(P)
    n = L.shape[0]
    X = np.empty(B.shape)
    for i in range(n):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    for i in range(n - 1, -1, -1):
        X[i] = (X[i] - L[i + 1:, i] @ X[i + 1:]) / L[i, i]
    return X


def spectral_extrema(S):
    """Extreme eigenvalues (min, max) of a symmetric matrix."""
    S = check_symmetric(S)
    w = np.linalg.eigvalsh(S)
    return float(w[0]), float(w[-1])


def spd_sqrt(P):
    """Lower-triangular L with L L^T = P (Cholesky convention)."""
    return _cholesky(check_symmetric(P))


def _gamma_terms(lams, theta):
    """gamma and its theta-derivative from the eigenvalues ``lams`` (floats).

    1/2 sum_i [x_i/(1 - x_i) + log1p(-x_i)] and 1/2 sum_i lambda_i x_i /
    (1 - x_i)^2 with x_i = theta lambda_i.  The O(x) parts of the two terms
    of gamma cancel, so for small x the summand is taken from its series
    sum_{k>=2} (1 - 1/k) x^k, which keeps full relative accuracy as
    theta -> 0.  Plain floats: for the few eigenvalues of a state covariance
    this is several times cheaper than numpy calls on tiny arrays.
    """
    g = dg = 0.0
    for lam in lams:
        x = theta * lam
        d = 1.0 - x
        r = x / d
        if abs(x) < _GAMMA_SERIES_X:
            s = 0.0
            for ck in _GAMMA_SERIES_COEFS:
                s = s * x + ck
            g += s * x * x
        else:
            g += r + math.log1p(-x)
        dg += lam * r / d
    return 0.5 * g, 0.5 * dg


def gamma(P, theta):
    """Kullback-Leibler cost of distorting a Gaussian covariance P by theta.

    gamma(P, theta) = 1/2 (ln det(I - theta P) + tr((I - theta P)^{-1} - I)).
    Defined for theta * sigma_max(P) < 1; nonnegative, zero at theta = 0, and
    strictly increasing and convex in theta on its domain.  Evaluated on the
    eigenvalues of P (see ``_gamma_terms``), so gamma ~ theta^2 tr(P^2) / 4
    keeps full relative accuracy as theta -> 0.
    """
    P = check_sympd(P)
    theta = float(theta)
    if theta < 0:
        raise NumericsError("theta must be nonnegative")
    if theta == 0.0:
        return 0.0
    # eigh, not eigvalsh, as in the covariance schedule: eigvalsh's
    # eigenvalues differ in the last bits from n = 3 on
    lams = np.linalg.eigh(P)[0].tolist()
    if theta * lams[-1] >= 1.0:
        raise NumericsError("theta * sigma_max(P) >= 1: outside the domain of gamma")
    return max(_gamma_terms(lams, theta)[0], 0.0)


@dataclass
class BudgetSolveResult:
    """Solution of gamma(P, theta) = c for theta."""

    theta: float
    achieved_budget: float
    iterations: int


# solve_budget stops once |gamma - c| <= BUDGET_TOL * c, and gives up after
# BUDGET_MAX_ITER Newton steps.
BUDGET_TOL = 1e-12
BUDGET_MAX_ITER = 200


def solve_budget(lams, c):
    """Find theta with gamma(P, theta) = c by a safeguarded Newton solve.

    ``lams`` are the ascending eigenvalues (floats) of a positive-definite
    P, which the caller has validated.

    One eigendecomposition of P serves every iteration, each of which is
    O(n) scalar work.  gamma is increasing and convex in theta and blows up
    at 1/sigma_max(P), so Newton started right of the root descends to it
    monotonically.  The start is the smaller of two points right of the
    root: 2 sqrt(c / tr(P^2)), as gamma >= theta^2 tr(P^2) / 4 (close for
    small c), and an upper bound on where the sigma_max term of gamma alone
    reaches c (close for large c).  The bracket (0, (1 - 1e-9)/sigma_max(P))
    is kept: a step that rounds to no move goes one ulp, and a step that
    leaves the bracket, or a derivative that is 0 or not finite, bisects it.

    Returns once |gamma - c| <= BUDGET_TOL * c, or once no float lies
    strictly inside the bracket, with its end nearer c (near the pole one
    ulp of theta can move gamma by more than BUDGET_TOL * c).  Raises
    NumericsError when c is unreachable inside the bracket, or when neither
    happens within BUDGET_MAX_ITER iterations.
    """
    c = float(c)
    if not 0 < c < math.inf:
        raise NumericsError("budget c must be positive and finite")
    smax = lams[-1]
    lo, hi = 0.0, (1.0 - 1e-9) / smax
    g_lo, g_hi = 0.0, _gamma_terms(lams, hi)[0]
    if g_hi < c:
        raise NumericsError("budget c unreachable below the domain boundary")
    # the sigma_max term reaches c where u - 1 - ln u = 2c, u = 1/(1 - theta
    # sigma_max); that root lies below v + ln(2v) with v = 2c + 1
    v = 2.0 * c + 1.0
    u = v + math.log(2.0 * v)
    theta = min(hi, (1.0 - 1.0 / u) / smax)
    try:
        tr2 = math.fsum(lam * lam for lam in lams)
    except OverflowError:   # fsum raises where its sum overflows
        tr2 = math.inf
    if 0.0 < tr2 < math.inf:  # tr(P^2) under- or overflows at extreme P
        theta = min(theta, 2.0 * math.sqrt(c / tr2))
    g = g_hi
    for it in range(1, BUDGET_MAX_ITER + 1):
        g, dg = _gamma_terms(lams, theta)
        if abs(g - c) <= BUDGET_TOL * c:
            return BudgetSolveResult(theta=theta, achieved_budget=g, iterations=it)
        if g < c:
            lo, g_lo = theta, g
        else:
            hi, g_hi = theta, g
        if not 0.0 < dg < math.inf:  # gamma' underflowed or overflowed
            nxt = 0.5 * (lo + hi)
        else:
            nxt = theta - (g - c) / dg
        if nxt == theta:
            nxt = math.nextafter(theta, lo if g > c else hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                theta, g = (lo, g_lo) if c - g_lo < g_hi - c else (hi, g_hi)
                return BudgetSolveResult(theta=theta, achieved_budget=g, iterations=it)
        theta = nxt
    raise NumericsError(
        f"budget solve did not converge in {BUDGET_MAX_ITER} iterations: "
        f"c={c:.6g}, sigma_max={smax:.6g}, |gamma - c|/c={abs(g - c) / c:.3g}")


# Doubling, for filter DAREs and Lyapunov equations, stops once every
# iterate moves by at most DOUBLING_TOL relative to its largest entry, and
# gives up after MAX_DOUBLINGS doublings (theta_max's batches of Riccati
# equations on models A and B take 7 to 11 doublings in the sweep and 5 to
# 7 in the rho refinements).
DOUBLING_TOL = 1e-13
MAX_DOUBLINGS = 60


def _solve_stack(M, B):
    """np.linalg.solve over a stack of systems (B stacked like M), with NaN
    for the singular ones instead of a LinAlgError for the whole stack."""
    try:
        return np.linalg.solve(M, B)
    except np.linalg.LinAlgError:
        X = np.full(B.shape, np.nan)
        for i in range(len(X)):
            try:
                X[i] = np.linalg.solve(M[i], B[i])
            except np.linalg.LinAlgError:
                pass
        return X


@np.errstate(over="ignore", invalid="ignore")
def _doubling(Ak, G, H):
    """The structured doubling iteration, batched over a leading axis:

        W = I + G H,  A <- A W^{-1} A,  G <- G + A W^{-1} G A^T,
        H <- H + A^T H W^{-1} A,

    each H until it moves by at most DOUBLING_TOL relative to its largest
    entry; a converged H leaves the batch, so it does not depend on the others.
    An H whose step turns non-finite (its iterates overflowed, or I + G H
    was singular) leaves the batch as NaN instead of failing the others.
    The batches are stacks of small matrices, so a doubling costs numpy
    calls, not flops: while every equation still moves the batch is carried
    forward as it is, and only a doubling at which some leave writes those
    to the output and compacts the rest.
    From (A^T, C^T R^{-1} C, Q) H converges to the stabilising solution of
    the filter DARE; G = None stands for G = 0, W = I, Smith's doubling for
    the Lyapunov equation X = A^T X A + Q.
    """
    n = Ak.shape[-1]
    eye = np.eye(n)
    out = np.array(np.broadcast_to(H, Ak.shape))
    H = out
    live = np.arange(len(out))
    for _ in range(MAX_DOUBLINGS):
        AkT = np.swapaxes(Ak, -1, -2)
        if G is None:
            Hn = H + AkT @ H @ Ak
            Ak = Ak @ Ak
        else:
            Z = _solve_stack(eye + G @ H, np.concatenate([Ak, G], axis=-1))
            G = G + Ak @ Z[..., n:] @ AkT
            G = 0.5 * (G + np.swapaxes(G, -1, -2))
            Hn = H + AkT @ H @ Z[..., :n]
            Ak = Ak @ Z[..., :n]
        Hn = 0.5 * (Hn + np.swapaxes(Hn, -1, -2))
        k = len(Hn)
        step = (np.abs(Hn - H).reshape(k, -1).max(axis=1)
                / np.abs(Hn).reshape(k, -1).max(axis=1))
        more = step > DOUBLING_TOL
        if more.all():
            H = Hn
            continue
        left = ~more
        out[live[left]] = np.where(np.isfinite(step[left])[:, None, None],
                                   Hn[left], np.nan)
        if not more.any():
            return out
        live, Ak, H = live[more], Ak[more], Hn[more]
        if G is not None:
            G = G[more]
    raise NumericsError(
        f"doubling did not converge in {MAX_DOUBLINGS} doublings: "
        f"{len(live)} of {len(out)} equations left, largest relative step "
        f"{np.max(step):.3g}")


def solve_filter_dare(A, C, Q, R):
    """Stabilising solutions X = A X A^T - A X C^T (C X C^T + R)^{-1} C X A^T
    + Q of a stack of filter Riccati equations (DAREs).

    A is (k, n, n) and C (k, m, n); Q (n x n) and R (m x m) are shared and
    positive definite, and each (A, C) must be detectable.  Structured
    doubling converges quadratically, at the rate r^(2^j) after j doublings
    with r the spectral radius of the closed loop A - K C, K = A X C^T
    (C X C^T + R)^{-1}.  When A is far from stable its large intermediate
    iterates can leave a residual of about 5e-10 relative, so one Newton
    step follows: the Lyapunov equation X = (A - K C) X (A - K C)^T +
    K R K^T + Q, solved by doubling too.  An equation whose doubling
    overflows or meets a singular system comes back as NaN (on seeded
    5-state models a few of theta_max's pairs overflow, in the Newton
    step); NumericsError is raised when a finite equation has not
    converged after MAX_DOUBLINGS doublings.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    AT, CT = A.transpose(0, 2, 1), C.transpose(0, 2, 1)
    G = CT @ np.linalg.solve(R, C)
    X = _doubling(AT, 0.5 * (G + G.transpose(0, 2, 1)), Q)
    KT = _solve_stack(C @ X @ CT + R, C @ X @ AT)
    K = KT.transpose(0, 2, 1)
    V = K @ R @ KT + Q
    return _doubling(AT - CT @ KT, None, 0.5 * (V + V.transpose(0, 2, 1)))


def solve_discrete_lyapunov(F, V):
    """Solve X = F X F^T + V for stable F.

    Small systems (dim <= 20) use the exact Kronecker-vectorization direct
    solve; larger systems use Smith's doubling, and raise NumericsError if
    it overflows.
    """
    F = np.asarray(F, dtype=float)
    V = check_symmetric(V)
    n = F.shape[0]
    if F.shape != (n, n) or V.shape != (n, n):
        raise NumericsError("dimension mismatch in Lyapunov solve")
    rho = max(abs(np.linalg.eigvals(F)))
    if rho >= 1.0:
        raise NumericsError(
            f"spectral radius {rho:.6f} >= 1: discrete Lyapunov equation has no "
            "unique positive solution"
        )
    if n <= 20:
        K = np.eye(n * n) - np.kron(F, F)
        try:
            X = np.linalg.solve(K, V.reshape(-1)).reshape(n, n)
        except np.linalg.LinAlgError as e:
            raise NumericsError(
                f"singular Lyapunov system (spectral radius {rho:.12g}): {e}"
            ) from e
        return sym(X)
    X = _doubling(F.T[None], None, V)[0]
    if not np.isfinite(X).all():
        raise NumericsError(
            f"Lyapunov doubling overflowed (spectral radius {rho:.12g})")
    return X
