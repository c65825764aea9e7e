"""Oracles the tests check the package against; no command runs them.

``solve_budget_of(P, c)`` is the budget solve of a matrix P, from the
eigenvalues the covariance schedule hands ``numerics.solve_budget``: those
of ``eigh``, ascending.
"""

import json

import numpy as np

from resilientkf.numerics import (
    NumericsError, check_sympd, chol_solve, solve_budget, sym)


def solve_budget_of(P, c):
    return solve_budget(np.linalg.eigh(check_sympd(P))[0].tolist(), c)


def gaussian_kl(mean0, cov0, mean1, cov1):
    """KL divergence between Gaussians N(mean0, cov0) and N(mean1, cov1)."""
    mean0 = np.atleast_1d(np.asarray(mean0, dtype=float))
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    cov0 = check_sympd(cov0)
    cov1 = check_sympd(cov1)
    if mean0.shape != mean1.shape or cov0.shape != cov1.shape:
        raise NumericsError("dimension mismatch between the two Gaussians")
    if mean0.shape[0] != cov0.shape[0]:
        raise NumericsError("mean/covariance dimension mismatch")
    n = mean0.shape[0]
    diff = mean1 - mean0
    sol = chol_solve(cov1, cov0)
    maha = float(diff @ chol_solve(cov1, diff))
    _, ld0 = np.linalg.slogdet(cov0)
    _, ld1 = np.linalg.slogdet(cov1)
    val = 0.5 * (np.trace(sol) + maha - n + ld1 - ld0)
    return max(float(val), 0.0)


def one_step_joints(model, fwd, t):
    """Nominal and worst-case one-step joint covariances of (x_t, y_t)
    conditioned on the past.

    The nominal joint has state block P_pred, measurement block
    K_y = C P_pred C^T + R, and cross block P_pred C^T.  The per-step
    maximizer keeps the measurement statistics and cross covariance and
    inflates the conditional state covariance from P_filt to V, so its
    state block is V + L K_y L^T.  The KL divergence between the two
    joints equals the budget gamma(P_filt, theta) spent at that step.
    Returns (K_nominal, K_worst), each (n+m) x (n+m).
    """
    n, m = model.n, model.m
    P = fwd.cov_pred[t]
    L = fwd.gains[t]
    V = fwd.cov_distorted[t]
    Ky = sym(model.C @ P @ model.C.T + model.R)
    Kxy = P @ model.C.T
    K = np.block([[P, Kxy], [Kxy.T, Ky]])
    Kx_tilde = sym(V + L @ Ky @ L.T)
    Kt = np.block([[Kx_tilde, Kxy], [Kxy.T, Ky]])
    return sym(K), sym(Kt)


def model_to_dict(model):
    return {
        "A": model.A.tolist(),
        "C": model.C.tolist(),
        "Q": model.Q.tolist(),
        "R": model.R.tolist(),
    }


def save_model(model, path):
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, indent=2)
