"""The five estimators as one covariance schedule followed by a mean pass.

All five run the same data-free recursion: a measurement update, an
inflation V = (P^{-1} - theta I)^{-1} and a prediction.  They differ only in
where the inflation acts and where theta comes from:

- KF: the standard Kalman filter (theta = 0).
- U-RKF (update-resilient): the filtered covariance is inflated after the
  update, with theta solving the distortion budget gamma(P_filt, theta) = c
  each step (a safeguarded Newton solve on the eigenvalues of P_filt); the
  inflated covariance drives the next prediction.
- P-RKF (prediction-resilient): the same budget machinery applied to the
  predicted covariance before the update.
- U-RSF / P-RSF: the corresponding fixed-theta (risk-sensitive) variants
  where theta is a constant instead of a per-step budget solve.

``covariance_schedule`` runs that recursion once and returns its gains,
thetas and covariances.  The gains do not depend on the data, so
``mean_pass`` then folds them over the observations, vectorised over any
leading (e.g. trial) axes; ``run_filter`` is the two in sequence.  The
inflation is computed from one eigendecomposition of the covariance, with
no explicit inverse.
"""

import math
from typing import NamedTuple

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


class ConfigError(FilterError):
    """Raised when a filter configuration is invalid."""


@dataclass
class FilterConfig:
    """Configuration for one estimator.

    ``kind`` is one of 'kf', 'urkf', 'prkf', 'ursf', 'prsf'.  The budgeted
    kinds (urkf, prkf) require a positive finite ``c``; the fixed-parameter
    kinds (ursf, prsf) a nonnegative finite ``theta``.  An invalid
    configuration raises ConfigError.
    """

    kind: str
    c: float = None
    theta: float = None
    solver_tol: float = 1e-12

    def __post_init__(self):
        self.kind = self.kind.lower().replace("-", "")
        if self.kind not in FILTER_KINDS:
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind in ("urkf", "prkf"):
            if self.c is None or not (math.isfinite(self.c) and self.c > 0):
                raise ConfigError(
                    f"{self.kind} requires a positive finite tolerance c")
            if self.theta is not None:
                raise ConfigError(f"{self.kind} takes c, not theta")
        elif self.kind in ("ursf", "prsf"):
            if self.theta is None or not (math.isfinite(self.theta)
                                          and self.theta >= 0):
                raise ConfigError(
                    f"{self.kind} requires a nonnegative finite theta")
            if self.c is not None:
                raise ConfigError(f"{self.kind} takes theta, not c")
        elif self.c is not None or self.theta is not None:
            raise ConfigError("kf takes neither c nor theta")

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


class Schedule(NamedTuple):
    """Gain/covariance schedule of one filter over t = 0..N.

    ``gains[t]`` is the filter gain, ``thetas[t]`` the distortion strength,
    ``cov_filt[t]`` the filtered covariance before distortion and
    ``cov_distorted[t]`` the covariance that drives the prediction (the
    inflated one for urkf/ursf, else ``cov_filt[t]``).  ``cov_pred[t]`` is
    the prediction entering step t; it has N + 2 entries, the last being the
    prediction after step N.
    """

    gains: list
    thetas: list
    cov_filt: list
    cov_distorted: list
    cov_pred: list

    @property
    def horizon(self):
        return len(self.gains) - 1


def covariance_schedule(model, config, P0, N):
    """Data-free update, inflation and prediction recursion over N + 1 steps.

    The covariances and gains of these filters do not depend on the data.
    The prediction-side kinds (prkf, prsf) inflate the predicted covariance
    before the update, the others the filtered covariance after it; theta
    is the budget solve when ``config.c`` is set, else ``config.theta``
    (0 for kf).  A failure at step t is raised as FilterError naming t.
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    pre = config.kind in ("prkf", "prsf")

    def inflate(P):
        if config.c is not None:
            theta = solve_budget(P, config.c, tol=config.solver_tol).theta
        else:
            theta = 0.0 if config.theta is None else config.theta
        return theta, _inflate(P, theta)

    P = check_sympd(P0)
    out = Schedule([], [], [], [], [P])
    for t in range(N + 1):
        try:
            if pre:
                theta, P = inflate(P)
            S = sym(C @ P @ C.T + R)
            L = chol_solve(S, C @ P).T
            Pf = sym(P - L @ C @ P)
            theta, V = (theta, Pf) if pre else inflate(Pf)
        except (FilterError, NumericsError) as e:
            raise FilterError(f"filter step failed at t={t}: {e}") from e
        P = sym(A @ V @ A.T + Q)
        for seq, value in zip(out, (L, theta, Pf, V, P)):
            seq.append(value)
    return out


def mean_pass(model, gains, x0, ys):
    """Yield the filtered and predicted means (x_f, x_p) of each step.

    Folds the gain schedule over the observations ``ys`` from the prior
    mean ``x0``.  Both may carry leading axes (e.g. one row per trial):
    ``x0`` has shape (..., n) and each ``ys[t]`` shape (..., m).
    """
    A, C = model.A, model.C
    x = x0
    for L, y in zip(gains, ys):
        x_f = x + (y - x @ C.T) @ L.T
        x = x_f @ A.T
        yield x_f, x


def run_filter(model, config, init, ys):
    """Run the configured filter over an observation sequence.

    The covariance schedule, then the mean pass; returns one FilterStep per
    observation.  A failing step raises FilterError naming its time index.
    """
    validate(model)
    sched = covariance_schedule(model, config, init.cov, len(ys) - 1)
    return [FilterStep(gain=sched.gains[t], theta=sched.thetas[t],
                       mean_filt=x_f, cov_filt=sched.cov_filt[t],
                       cov_distorted=sched.cov_distorted[t],
                       mean_pred=x_p, cov_pred=sched.cov_pred[t + 1])
            for t, (x_f, x_p) in enumerate(
                mean_pass(model, sched.gains, init.mean, ys))]
