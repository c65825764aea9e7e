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
thetas and covariances; ``covariance_schedules`` runs it for several
filters of either side at once, as one stack.  The gains do not depend on
the data, so ``mean_pass`` then folds them over the observations,
vectorised over runs (e.g. trials) held as columns.  The inflation is
computed from one eigendecomposition of the covariance, with no explicit
inverse; for the budgeted kinds the same eigendecomposition feeds the
budget solve, so a step decomposes its covariance once.
"""

import math
import sys
from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

from .numerics import NumericsError, _cholesky, check_sympd, solve_budget, sym

FILTER_KINDS = ("kf", "urkf", "prkf", "ursf", "prsf")


class FilterError(RuntimeError):
    """Raised when a filter step cannot be completed."""


class ConfigError(FilterError):
    """Raised when a filter configuration is invalid."""


# what a failing schedule step raises; without its Cholesky guard, the gain
# solve raises LinAlgError on a singular S
_STEP_ERRORS = (FilterError, NumericsError, FloatingPointError,
                np.linalg.LinAlgError)

# covariance_schedules checks the Cholesky guards of this many steps at a
# time, in one stacked factorisation per kind of matrix
_BLOCK = 64


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


def _gain(S, CP):
    """The gain P C^T S^{-1}, as the transpose of S^{-1} (C P), for the
    innovation covariance S (or a stack of them).  The caller guards that
    S is positive definite."""
    return np.linalg.solve(S, CP).swapaxes(-1, -2)


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
    later.  The rows from ``start + period`` on are filled by period
    instead of recomputed, up to the horizon: the schedule has no per-step
    input that could stop the fill, and the filled rows are byte-identical
    to the full loop's.  It is None when no predicted covariance repeated.

    A stack of schedules (from ``covariance_schedules``) has the same
    fields with a leading member axis, and a list of the members' cycles;
    ``member`` picks one member, or a smaller stack by a slice.
    """

    gains: np.ndarray
    thetas: np.ndarray
    cov_filt: np.ndarray
    cov_distorted: np.ndarray
    cov_pred: np.ndarray
    cycle: tuple = None

    @property
    def horizon(self):
        return self.thetas.shape[-1] - 1

    def member(self, i):
        return Schedule(*(a[i] for a in self[:5]), cycle=self.cycle[i])


class _Steps:
    """The steps of a data-free recursion, keyed by the bytes they read.

    A step's outputs depend on nothing but what it reads, so a step that
    reads the bytes an earlier step read has that step's outputs: no
    tolerance.  Once ``find`` reports such a repeat, ``_fill`` copies the
    following rows by period for as long as the per-step inputs repeat
    with it, so only the steps a recursion computes ask and are keyed.
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


def _fill(outputs, t, period, inputs=()):
    """Fill the rows of ``outputs`` from t on with their rows
    t - period..t - 1, repeated, and return the first row not filled.

    Every array holds its rows on its first axis, and step t read what
    step t - period read.  The fill runs for as long as each array of
    ``inputs`` (the per-step inputs) repeats with that period bit for bit,
    so it stops at the first row whose inputs differ from the row
    ``period`` before, or at the end of the longest output.  A filled row
    reads, and so holds, the bytes of the row it copies, as in the full
    loop.  Bits, not values, are compared: 0.0 and -0.0 differ.

    The period is copied out first and broadcast into a view of the rows
    to fill: a broadcast from a view of the same array would make numpy
    allocate a temporary the size of the filled rows.
    """
    stop = max(len(a) for a in outputs)
    for a in inputs:
        bits = a.view(np.int64)
        same = bits[t:stop] == bits[t - period:stop - period]
        same = same.all(axis=tuple(range(1, same.ndim)))
        stop = t + (len(same) if same.all() else int(same.argmin()))
    for a in outputs:
        rows, block = a[t:stop], a[t - period:t].copy()
        whole = len(rows) - len(rows) % period
        rows[:whole].reshape(-1, *block.shape, copy=False)[...] = block
        rows[whole:] = block[:len(rows) - whole]
    return stop


class _Members:
    """Where the members of a schedule stack take theta from, and where
    they inflate.

    ``theta`` holds each member's fixed theta (0 for kf) and ``c`` its
    budget (None for a fixed theta).  ``pre`` and ``post`` index the
    inflating members (a budget or a nonzero fixed theta): the
    prediction-side ones (prkf, prsf), which distort the predicted
    covariance before the update, and the update-side ones (urkf, ursf),
    which distort the filtered covariance after it.  A member at theta = 0
    takes V = P exactly, with no eigendecomposition.
    """

    def __init__(self, configs):
        self.theta = [c.theta or 0.0 for c in configs]
        self.c = [c.c for c in configs]
        self.pre, self.post = ([i for i, c in enumerate(configs)
                                if (c.c is not None or c.theta)
                                and (c.kind in ("prkf", "prsf")) == pre]
                               for pre in (True, False))


def _inflate(members, idx, P, thetas, guard):
    """The stack P (k, n, n), exactly symmetric, with its members ``idx``
    distorted to (P^{-1} - theta I)^{-1}; their thetas go into ``thetas``.

    One eigendecomposition P = U diag(lambda) U^T of each: its smallest
    eigenvalue guards that P is positive definite, its eigenvalues feed a
    budgeted member's solve, and the distortion is
    U diag(lambda / (1 - theta lambda)) U^T, symmetrized, with no explicit
    inverse.  The stack of the distorted members goes to ``guard``, which
    checks that they are positive definite, or collects them to be checked.
    """
    Pi = P if len(idx) == len(P) else P[idx]
    lams, U = np.linalg.eigh(Pi)
    for i, lam in zip(idx, lams.tolist()):
        if lam[0] <= 0.0:
            raise NumericsError("matrix is not positive definite")
        c = members.c[i]
        th = thetas[i] = (members.theta[i] if c is None
                          else solve_budget(lam, c).theta)
        if th * lam[-1] >= 1.0:
            raise FilterError(f"distortion infeasible: theta={th:.6g} "
                              f"with sigma_max(P)={lam[-1]:.6g}")
    theta = np.array([thetas[i] for i in idx])[:, None]
    V = sym((U * (lams / (1.0 - theta * lams))[..., None, :])
            @ U.swapaxes(-1, -2))
    guard(V)
    if Pi is P:
        return V
    Vs = P.copy()
    Vs[idx] = V
    return Vs


def _schedule_step(model, members, P, checks=None):
    """One update, inflation and prediction of the members from their
    predicted covariances P (k, n, n): their gains, thetas, filtered,
    distorted and next predicted covariances, each stacked.

    A Cholesky factorisation guards that S and each inflated covariance
    are positive definite.  With ``checks``, a pair of lists, the step
    appends these stacks to them instead, to be factored later."""
    A, C, Q, R = model.A, model.C, model.Q, model.R
    guard_S, guard_V = ((_cholesky, _cholesky) if checks is None
                        else (checks[0].append, checks[1].append))
    theta = list(members.theta)
    if members.pre:
        P = _inflate(members, members.pre, P, theta, guard_V)
    CP = C @ P
    S = sym(CP @ C.T + R)
    guard_S(S)
    L = _gain(S, CP)
    Pf = sym(P - L @ C @ P)
    V = (_inflate(members, members.post, Pf, theta, guard_V)
         if members.post else Pf)
    return L, theta, Pf, V, sym(A @ V @ A.T + Q)


def _describe(config):
    """A config as error messages name it, e.g. "urkf c=0.05"."""
    return config.kind + "".join(
        f" {key}={value!r}" for key, value in (("c", config.c),
                                                ("theta", config.theta))
        if value is not None)


@np.errstate(over="raise", invalid="raise")
def covariance_schedules(model, configs, P0, N):
    """Data-free update, inflation and prediction recursion over N + 1
    steps, of several filters at once.

    The covariances and gains of these filters do not depend on the data.
    The prediction-side kinds (prkf, prsf) inflate the predicted covariance
    before the update, the update-side kinds (urkf, ursf) the filtered
    covariance after it, and one stack may hold members of both sides and
    kf; each member's theta is its budget solve when its ``c`` is set, else
    its ``theta`` (0 for kf).  Returns a ``Schedule`` stack with the members in
    the order of ``configs``.

    Each step runs stacked eigh, solve and matmul calls over the members,
    which apply a single matrix's LAPACK or BLAS kernel to each, so every
    member's rows have the bytes of its own schedule.  The Cholesky guards
    of S and of each inflated covariance are not run in the step: the
    matrices are collected, and factored as one stack per kind at the end
    of each ``_BLOCK`` steps, when the loop stops and before a failure is
    reported.  A block whose check fails is taken again with the guards
    inline, so a run fails at the step, and with the error, at which
    guarded steps fail; it computes at most one block past that step.  A step
    depends only on the predicted covariance entering it, so once that
    repeats bit for bit for a member, its remaining rows are filled by
    period (see ``Schedule.cycle``); the loop stops once every member has
    repeated.

    A failure at step t, including a covariance that overflows or turns
    NaN, is raised as FilterError naming t and the failing member.  The
    stack fails at the earliest step at which any member does; of several
    failing there, it names the first, whose step is taken again on its
    own for its error.
    """
    k, n, m = len(configs), model.n, model.m
    members = _Members(configs)
    # gains[:, t] is the transpose of a C-ordered solve, as from _gain; this
    # layout fixes the order in which BLAS sums mean_pass's L @ innovation
    gains = np.empty((k, N + 1, m, n)).swapaxes(-1, -2)
    thetas = np.empty((k, N + 1))
    cov_filt, cov_distorted = np.empty((2, k, N + 1, n, n))
    cov_pred = np.empty((k, N + 2, n, n))
    out = (gains, thetas, cov_filt, cov_distorted, cov_pred)
    cov_pred[:, 0] = check_sympd(P0)
    P = cov_pred[:, 0]
    steps, cycles = [_Steps() for _ in configs], [None] * k
    # the S and inflated covariances of steps start..t - 1, not yet checked
    checks, start = ([], []), 0
    for t in range(N + 1):
        for i, memo in enumerate(steps):
            if cycles[i] is None and (
                    s := memo.find(t, cov_pred[i, t])) is not None:
                cycles[i] = (s, t - s)
        if None not in cycles:
            break
        if t - start == _BLOCK:
            _check_guards(model, configs, members, cov_pred, checks, start, t)
            start = t
        try:
            L, theta, Pf, V, P = _schedule_step(model, members, P, checks)
        except _STEP_ERRORS as e:
            _check_guards(model, configs, members, cov_pred, checks, start,
                          t + 1)
            raise _step_failure(model, configs, P, t, e) from e
        gains[:, t], thetas[:, t], cov_filt[:, t], cov_distorted[:, t] = (
            L, theta, Pf, V)
        cov_pred[:, t + 1] = P
    else:
        t = N + 1
    _check_guards(model, configs, members, cov_pred, checks, start, t)
    for i, cycle in enumerate(cycles):
        if cycle is not None:
            _fill([a[i] for a in out], sum(cycle), cycle[1])
    for a in out:
        a.flags.writeable = False
    return Schedule(*out, cycle=cycles)


def _check_guards(model, configs, members, cov_pred, checks, start, stop):
    """Factor the S and inflated covariances that steps start..stop - 1 of
    a stack collected in ``checks``, one stack per list, and empty the
    lists.  When one is not positive definite, the steps are taken again
    from their predicted covariances ``cov_pred[:, start]`` with their
    guards inline, and the first that fails raises its ``_step_failure``.
    """
    try:
        for matrices in checks:
            if matrices:
                _cholesky(np.concatenate(matrices))
                matrices.clear()
    except NumericsError as e:
        P = cov_pred[:, start]
        for t in range(start, stop):
            try:
                P = _schedule_step(model, members, P)[-1]
            except _STEP_ERRORS as step_error:
                raise _step_failure(model, configs, P, t,
                                    step_error) from step_error
        raise FilterError(f"filter steps {start} to {stop - 1} failed: "
                          f"{e}") from e


def _step_failure(model, configs, P, t, error):
    """The FilterError of a stack whose step t failed with ``error``, from
    the predicted covariances P entering it: each member's step is taken
    again on its own, with its guards inline, and the error names the
    first that fails, with that member's error."""
    member = None
    for config, Pi in zip(configs, P):
        try:
            _schedule_step(model, _Members([config]), Pi[None])
        except _STEP_ERRORS as e:
            member, error = config, e
            break
    where = "" if member is None else f" for {_describe(member)}"
    return FilterError(f"filter step failed at t={t}{where}: {error}")


def covariance_schedule(model, config, P0, N):
    """The ``Schedule`` of the filter ``config`` from P0 over N + 1 steps:
    the one-member stack of ``covariance_schedules``."""
    return covariance_schedules(model, [config], P0, N).member(0)


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

