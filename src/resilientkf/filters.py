"""One-step and whole-horizon filter implementations.

Five estimators behind a single step contract:

- KF: the standard Kalman filter.
- U-RKF (update-resilient): after the measurement update, the filtered
  covariance is inflated to V = (P_filt^{-1} - theta I)^{-1}, with theta
  solving the distortion budget gamma(P_filt, theta) = c each step (a
  safeguarded Newton solve on the eigenvalues of P_filt); the inflated
  covariance drives the next prediction.
- P-RKF (prediction-resilient): the same budget machinery applied to the
  predicted covariance before the update.
- U-RSF / P-RSF: the corresponding fixed-theta (risk-sensitive) variants
  where theta is a constant instead of a per-step budget solve.

The inflation is computed from one eigendecomposition of the covariance,
with no explicit inverse.
"""

import numpy as np
from dataclasses import dataclass

from .model import validate
from .numerics import (
    NumericsError,
    chol_solve,
    check_sympd,
    solve_budget,
    sym,
)

FILTER_KINDS = ("kf", "urkf", "prkf", "ursf", "prsf")


class FilterError(RuntimeError):
    """Raised when a filter step cannot be completed."""


@dataclass
class FilterConfig:
    """Configuration for one estimator.

    ``kind`` is one of 'kf', 'urkf', 'prkf', 'ursf', 'prsf'.  The budgeted
    kinds (urkf, prkf) require ``c``; the fixed-parameter kinds (ursf,
    prsf) require ``theta``.
    """

    kind: str
    c: float = None
    theta: float = None
    solver_tol: float = 1e-12

    def __post_init__(self):
        self.kind = self.kind.lower().replace("-", "")
        if self.kind not in FILTER_KINDS:
            raise FilterError(f"unknown filter kind {self.kind!r}")
        if self.kind in ("urkf", "prkf"):
            if self.c is None or self.c <= 0:
                raise FilterError(f"{self.kind} requires a positive tolerance c")
            if self.theta is not None:
                raise FilterError(f"{self.kind} takes c, not theta")
        elif self.kind in ("ursf", "prsf"):
            if self.theta is None or self.theta < 0:
                raise FilterError(f"{self.kind} requires a nonnegative theta")
            if self.c is not None:
                raise FilterError(f"{self.kind} takes theta, not c")
        else:
            if self.c is not None or self.theta is not None:
                raise FilterError("kf takes neither c nor theta")

    @classmethod
    def from_dict(cls, d):
        return cls(kind=d["kind"], c=d.get("c"), theta=d.get("theta"),
                   solver_tol=d.get("solver_tol", 1e-12))


@dataclass
class FilterStep:
    """Output of one filter time step."""

    gain: np.ndarray        # L_t, n x m
    theta: float            # distortion strength used this step
    mean_filt: np.ndarray   # filtered state estimate
    cov_filt: np.ndarray    # filtered covariance before distortion
    cov_distorted: np.ndarray  # distorted filtered covariance (V >= P_filt)
    mean_pred: np.ndarray   # one-step-ahead predicted estimate
    cov_pred: np.ndarray    # one-step-ahead predicted covariance


def _inflate(P, theta):
    """Distorted covariance (P^{-1} - theta I)^{-1}.

    From one eigendecomposition P = U diag(lambda) U^T as
    U diag(lambda / (1 - theta lambda)) U^T, with no explicit inverse.
    """
    if theta == 0.0:
        return sym(P)
    lams, U = np.linalg.eigh(check_sympd(P))
    smax = lams[-1]
    if theta * smax >= 1.0:
        raise FilterError(
            f"distortion infeasible: theta={theta:.6g} with sigma_max(P)={smax:.6g}"
        )
    return check_sympd((U * (lams / (1.0 - theta * lams))) @ U.T)


def _update(model, mean, P, y):
    """Standard measurement update from predicted belief (mean, P)."""
    C, R = model.C, model.R
    S = sym(C @ P @ C.T + R)
    try:
        check_sympd(S)
    except NumericsError:
        raise FilterError("innovation covariance is not positive definite")
    L = chol_solve(S, C @ P).T
    innov = y - C @ mean
    mean_filt = mean + L @ innov
    cov_filt = sym(P - L @ C @ P)
    return L, mean_filt, cov_filt


def kf_step(model, belief, y):
    """Standard Kalman filter step (predict after update)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    L, mean_filt, cov_filt = _update(model, belief.mean, belief.cov, y)
    mean_pred = model.A @ mean_filt
    cov_pred = sym(model.A @ cov_filt @ model.A.T + model.Q)
    return FilterStep(gain=L, theta=0.0, mean_filt=mean_filt,
                      cov_filt=cov_filt, cov_distorted=cov_filt,
                      mean_pred=mean_pred, cov_pred=cov_pred)


def urkf_step(model, belief, y, c, solver_tol=1e-12):
    """Update-resilient step: budgeted inflation of the filtered covariance."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    L, mean_filt, cov_filt = _update(model, belief.mean, belief.cov, y)
    theta = solve_budget(cov_filt, c, tol=solver_tol).theta
    V = _inflate(cov_filt, theta)
    mean_pred = model.A @ mean_filt
    cov_pred = sym(model.A @ V @ model.A.T + model.Q)
    return FilterStep(gain=L, theta=theta, mean_filt=mean_filt,
                      cov_filt=cov_filt, cov_distorted=V,
                      mean_pred=mean_pred, cov_pred=cov_pred)


def ursf_step(model, belief, y, theta):
    """Fixed-theta variant of the update-resilient step."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    L, mean_filt, cov_filt = _update(model, belief.mean, belief.cov, y)
    V = _inflate(cov_filt, theta)
    mean_pred = model.A @ mean_filt
    cov_pred = sym(model.A @ V @ model.A.T + model.Q)
    return FilterStep(gain=L, theta=theta, mean_filt=mean_filt,
                      cov_filt=cov_filt, cov_distorted=V,
                      mean_pred=mean_pred, cov_pred=cov_pred)


def prkf_step(model, belief, y, c, solver_tol=1e-12):
    """Prediction-resilient step: budgeted inflation of the predicted
    covariance, then a standard update and prediction."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    theta = solve_budget(belief.cov, c, tol=solver_tol).theta
    Vp = _inflate(belief.cov, theta)
    L, mean_filt, cov_filt = _update(model, belief.mean, Vp, y)
    mean_pred = model.A @ mean_filt
    cov_pred = sym(model.A @ cov_filt @ model.A.T + model.Q)
    return FilterStep(gain=L, theta=theta, mean_filt=mean_filt,
                      cov_filt=cov_filt, cov_distorted=cov_filt,
                      mean_pred=mean_pred, cov_pred=cov_pred)


def prsf_step(model, belief, y, theta):
    """Fixed-theta variant of the prediction-resilient step."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    Vp = _inflate(belief.cov, theta)
    L, mean_filt, cov_filt = _update(model, belief.mean, Vp, y)
    mean_pred = model.A @ mean_filt
    cov_pred = sym(model.A @ cov_filt @ model.A.T + model.Q)
    return FilterStep(gain=L, theta=theta, mean_filt=mean_filt,
                      cov_filt=cov_filt, cov_distorted=cov_filt,
                      mean_pred=mean_pred, cov_pred=cov_pred)


def step(model, config, belief, y):
    """Dispatch one step of the configured filter kind."""
    k = config.kind
    if k == "kf":
        return kf_step(model, belief, y)
    if k == "urkf":
        return urkf_step(model, belief, y, config.c, config.solver_tol)
    if k == "prkf":
        return prkf_step(model, belief, y, config.c, config.solver_tol)
    if k == "ursf":
        return ursf_step(model, belief, y, config.theta)
    if k == "prsf":
        return prsf_step(model, belief, y, config.theta)
    raise FilterError(f"unknown filter kind {k!r}")


def run_filter(model, config, init, ys):
    """Fold the configured filter step over an observation sequence.

    Returns the list of FilterStep outputs.  Any step failure is re-raised
    annotated with the offending time index.
    """
    from .model import GaussianBelief

    validate(model)
    steps = []
    belief = GaussianBelief(mean=init.mean, cov=init.cov)
    for t, y in enumerate(ys):
        try:
            st = step(model, config, belief, y)
        except (FilterError, NumericsError) as e:
            raise FilterError(f"filter step failed at t={t}: {e}") from e
        steps.append(st)
        belief = GaussianBelief(mean=st.mean_pred, cov=st.cov_pred)
    return steps


def covariance_schedule(model, config, P0, N):
    """Data-free gain/covariance recursion over N + 1 steps.

    The gains and covariances of these filters do not depend on the data,
    so Monte-Carlo benchmarks can precompute them once per configuration.
    Returns (gains, thetas, cov_filt, cov_distorted, cov_pred) as lists
    indexed by t = 0..N, where cov_pred[t] is the prediction entering step t.
    """
    n = model.n
    P = check_sympd(P0)
    gains, thetas, filts, dists, preds = [], [], [], [], []
    for t in range(N + 1):
        preds.append(P.copy())
        if config.kind in ("prkf", "prsf"):
            theta = (solve_budget(P, config.c, tol=config.solver_tol).theta
                     if config.kind == "prkf" else config.theta)
            Pw = _inflate(P, theta)
        else:
            Pw = P
        S = sym(model.C @ Pw @ model.C.T + model.R)
        L = chol_solve(S, model.C @ Pw).T
        Ptt = sym(Pw - L @ model.C @ Pw)
        if config.kind == "urkf":
            theta = solve_budget(Ptt, config.c, tol=config.solver_tol).theta
        elif config.kind == "ursf":
            theta = config.theta
        elif config.kind == "kf":
            theta = 0.0
        if config.kind in ("urkf", "ursf"):
            V = _inflate(Ptt, theta)
        else:
            V = Ptt
        gains.append(L)
        thetas.append(theta)
        filts.append(Ptt)
        dists.append(V)
        P = sym(model.A @ V @ model.A.T + model.Q)
    return gains, thetas, filts, dists, preds
