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
``mean_pass`` then folds them over the observations, vectorised over runs
(e.g. trials) held as columns.  The inflation is computed from one
eigendecomposition of the covariance, with no explicit inverse.
"""

import math
import sys
from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

from .numerics import NumericsError, _cholesky, _solve_budget, check_sympd, sym

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
        # a JSON integer budget is kept, and written, as a float
        self.c, self.theta = (None if v is None else float(v)
                              for v in (self.c, self.theta))

    @classmethod
    def from_dict(cls, d):
        """The config of a parsed JSON object with a string ``kind`` and
        optional numeric ``c`` or ``theta``; any other shape, type or key
        raises ConfigError."""
        if not isinstance(d, dict):
            raise ConfigError("filter config must be a JSON object")
        unknown = sorted(set(d) - {"kind", "c", "theta"})
        if unknown:
            raise ConfigError(f"unknown filter config key(s): {unknown}")
        if not isinstance(d.get("kind"), str):
            raise ConfigError("filter config requires a string kind")
        for key in ("c", "theta"):
            value = d.get(key)
            # not a bool, and not a JSON integer beyond every float
            if value is not None and (type(value) not in (int, float) or
                                      not abs(value) <= sys.float_info.max):
                raise ConfigError(f"{key} must be a finite number")
        return cls(**d)


def _inflate(P, theta):
    """Distorted covariance (P^{-1} - theta I)^{-1} of an exactly symmetric P.

    From one eigendecomposition P = U diag(lambda) U^T as
    U diag(lambda / (1 - theta lambda)) U^T, symmetrized, with no explicit
    inverse; the smallest eigenvalue guards that P is positive definite, and
    a Cholesky factorisation that the result is.
    """
    if theta == 0.0:
        return P
    lams, U = np.linalg.eigh(P)
    if lams[0] <= 0.0:
        raise NumericsError("matrix is not positive definite")
    smax = lams[-1]
    if theta * smax >= 1.0:
        raise FilterError(
            f"distortion infeasible: theta={theta:.6g} with sigma_max(P)={smax:.6g}"
        )
    V = sym((U * (lams / (1.0 - theta * lams))) @ U.T)
    _cholesky(V)
    return V


def _gain(S, CP):
    """The gain P C^T S^{-1}, as the transpose of S^{-1} (C P), for the
    innovation covariance S; a Cholesky factorisation guards that S is
    positive definite."""
    _cholesky(S)
    return np.linalg.solve(S, CP).T


class Schedule(NamedTuple):
    """Gain/covariance schedule of one filter over t = 0..N.

    ``gains[t]`` is the filter gain, ``thetas[t]`` the distortion strength,
    ``cov_filt[t]`` the filtered covariance before distortion and
    ``cov_distorted[t]`` the covariance that drives the prediction (the
    inflated one for urkf/ursf, else ``cov_filt[t]``).  ``cov_pred[t]`` is
    the prediction entering step t; it has N + 2 rows, the last being the
    prediction after step N.  The fields are read-only arrays of shapes
    (N+1, n, m), (N+1,), (N+1, n, n), (N+1, n, n) and (N+2, n, n).

    ``cycle`` is (start, period) when the recursion repeated bit for bit:
    from step ``start`` on, every row equals the one ``period`` steps
    later, and is copied from it instead of recomputed.  It is None when no
    predicted covariance repeated.
    """

    gains: np.ndarray
    thetas: np.ndarray
    cov_filt: np.ndarray
    cov_distorted: np.ndarray
    cov_pred: np.ndarray
    cycle: tuple = None

    @property
    def horizon(self):
        return len(self.gains) - 1


class _Steps:
    """The steps of a data-free recursion, keyed by the bytes they read.

    A step's outputs depend on nothing but what it reads, so a step that
    reads the bytes an earlier step read has that step's outputs: no
    tolerance.
    """

    def __init__(self):
        self.seen = {}

    def find(self, t, *reads):
        """The first step s that read the bytes of ``reads``, else None.

        ``reads`` are the state entering step t and its row of every
        per-step input.  Keyed by the hash of their bytes, with the reads
        kept by reference (rows of the recursion's own stacks), so a long
        run that never repeats holds no second copy of them.
        """
        key = b"".join(r.tobytes() for r in reads)
        s, first = self.seen.setdefault(hash(key), (t, reads))
        return s if s != t and b"".join(
            r.tobytes() for r in first) == key else None


@np.errstate(over="raise", invalid="raise")
def covariance_schedule(model, config, P0, N):
    """Data-free update, inflation and prediction recursion over N + 1 steps.

    The covariances and gains of these filters do not depend on the data.
    The prediction-side kinds (prkf, prsf) inflate the predicted covariance
    before the update, the others the filtered covariance after it; theta
    is the budget solve when ``config.c`` is set, else ``config.theta``
    (0 for kf).  A failure at step t, including a covariance that
    overflows or turns NaN, is raised as FilterError naming t.

    A step depends only on the predicted covariance entering it, so once
    that repeats bit for bit the remaining rows are copied from one period
    earlier instead of recomputed (see ``Schedule.cycle``).
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    pre = config.kind in ("prkf", "prsf")

    def inflate(P):
        if config.c is not None:
            # P is exactly symmetric here (from sym or check_sympd), so one
            # eigvalsh both guards it and feeds the budget solve
            lams = np.linalg.eigvalsh(P)
            if lams[0] <= 0.0:
                raise NumericsError("matrix is not positive definite")
            theta = _solve_budget(lams.tolist(), config.c).theta
        else:
            theta = 0.0 if config.theta is None else config.theta
        return theta, _inflate(P, theta)

    n, m = model.n, model.m
    # gains[t] is the transpose of a C-ordered solve, as from _gain; this
    # layout fixes the order in which BLAS sums mean_pass's L @ innovation
    gains = np.empty((N + 1, m, n)).transpose(0, 2, 1)
    thetas = np.empty(N + 1)
    cov_filt, cov_distorted = np.empty((2, N + 1, n, n))
    cov_pred = np.empty((N + 2, n, n))
    out = (gains, thetas, cov_filt, cov_distorted, cov_pred)
    P = cov_pred[0] = check_sympd(P0)
    steps, cycle = _Steps(), None
    for t in range(N + 1):
        s = steps.find(t, cov_pred[t])
        if s is not None:
            cycle = (s, t - s)
            for a in out:
                a[t:] = a[s + np.arange(len(a) - t) % (t - s)]
            break
        try:
            if pre:
                theta, P = inflate(P)
            S = sym(C @ P @ C.T + R)
            L = _gain(S, C @ P)
            Pf = sym(P - L @ C @ P)
            theta, V = (theta, Pf) if pre else inflate(Pf)
            P = sym(A @ V @ A.T + Q)
        except (FilterError, NumericsError, FloatingPointError) as e:
            raise FilterError(f"filter step failed at t={t}: {e}") from e
        gains[t], thetas[t], cov_filt[t], cov_distorted[t] = L, theta, Pf, V
        cov_pred[t + 1] = P
    for a in out:
        a.flags.writeable = False
    return Schedule(*out, cycle=cycle)


def mean_pass(model, gains, x0, ys):
    """Yield the filtered and predicted means (x_f, x_p) of each step.

    Folds the gain schedule over the observations ``ys`` from the prior
    mean ``x0``, state-major: ``x0`` has shape (n,), or (..., n, k) with
    one column per run (e.g. per trial), and each ``ys[t]`` shape (m,) or
    (..., m, k).  Each ``gains[t]`` is (n, m) or may carry leading axes
    too (e.g. one filter each); all of them broadcast.
    """
    A, C = model.A, model.C
    x = x0
    for L, y in zip(gains, ys):
        v = y - C @ x
        # with one output and stacked means, matmul's inner dimension is 1;
        # the broadcast product does the same single multiply per entry in
        # 14 us, against 106-119 us for matmul at (2, 2, 1) @ (2, 1, 10000)
        x_f = x + (L * v if v.ndim > 1 and v.shape[-2] == 1 else L @ v)
        x = A @ x_f
        del v   # not held across the yield: a paused pass keeps x, x_f only
        yield x_f, x

