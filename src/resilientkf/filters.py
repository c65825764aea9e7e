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
leading (e.g. trial) axes.  The inflation is computed from one
eigendecomposition of the covariance, with no explicit inverse.
"""

import math
import sys
from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

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

    ``cycle`` is (start, period) when the recursion repeated bit for bit:
    from step ``start`` on, every entry equals the one ``period`` steps
    later.  It is None when no predicted covariance repeated.  Repeated
    entries are the same array objects, so every array is read-only.
    """

    gains: list
    thetas: list
    cov_filt: list
    cov_distorted: list
    cov_pred: list
    cycle: tuple = None

    @property
    def horizon(self):
        return len(self.gains) - 1


class _Repeats:
    """Bitwise repeats of a recursion's state and of its per-step inputs.

    ``inputs`` are stacks whose entry t enters step t.  Once the state
    entering step t has the bytes it had at step s, and the inputs repeat
    from there with the same lag, so do the step's outputs: no tolerance.
    """

    def __init__(self, *inputs):
        self.inputs, self.seen, self.same = inputs, {}, {}

    def lag(self, t, state):
        """|t - s| for the first step s whose state had these bytes, else 0.

        Keyed by the hash of the bytes, with the state kept by reference
        (the recursion keeps it anyway), so a long run that never repeats
        holds no second copy of its states.
        """
        key = state.tobytes()
        s, first = self.seen.setdefault(hash(key), (t, state))
        return abs(t - s) if s != t and first.tobytes() == key else 0

    def inputs_repeat(self, lag, v):
        """Whether every input's entry v + lag has the bits of entry v."""
        if lag not in self.same:
            b = np.hstack([np.reshape(a, (len(a), -1)) for a in self.inputs])
            b = b.view(np.int64)
            self.same[lag] = (b[lag:] == b[:-lag]).all(axis=1)
        return self.same[lag][v]


def covariance_schedule(model, config, P0, N):
    """Data-free update, inflation and prediction recursion over N + 1 steps.

    The covariances and gains of these filters do not depend on the data.
    The prediction-side kinds (prkf, prsf) inflate the predicted covariance
    before the update, the others the filtered covariance after it; theta
    is the budget solve when ``config.c`` is set, else ``config.theta``
    (0 for kf).  A failure at step t is raised as FilterError naming t.

    A step depends only on the predicted covariance entering it, so once
    that repeats bit for bit the remaining entries are copied from one
    period earlier instead of recomputed (see ``Schedule.cycle``).
    """
    A, C, Q, R = model.A, model.C, model.Q, model.R
    pre = config.kind in ("prkf", "prsf")

    def inflate(P):
        if config.c is not None:
            theta = solve_budget(P, config.c).theta
        else:
            theta = 0.0 if config.theta is None else config.theta
        return theta, _inflate(P, theta)

    P = check_sympd(P0)
    P.flags.writeable = False
    seqs = ([], [], [], [], [P])
    repeats, lag, cycle = _Repeats(), 0, None
    for t in range(N + 1):
        lag = lag or repeats.lag(t, P)
        if lag:
            cycle = cycle or (t - lag, lag)
            for seq in seqs:
                seq.append(seq[-lag])
            continue
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
        for a in (L, Pf, V, P):
            a.flags.writeable = False
        for seq, value in zip(seqs, (L, theta, Pf, V, P)):
            seq.append(value)
    return Schedule(*seqs, cycle=cycle)


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

