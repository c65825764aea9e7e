"""Worst-case (hostile) model synthesis and evaluation.

Two adversarial constructions are provided, both driven by the same forward
pass: the covariance schedule of the update-resilient filter (urkf, or ursf
at a fixed theta), from ``filters.covariance_schedule``:

1. ``error_cov_recursion`` with ``bwd=None`` — the saddle-achieving
   adversary.  The per-step minimax game is solved in terms of the
   conditional joint law of (state, measurement) given the past; its
   maximizer inflates the filtered state covariance from P_filt to
   V = (P_filt^{-1} - theta I)^{-1} while leaving the measurement
   statistics and filter gain unchanged.  That law is realized by
   injecting extra state noise d_t ~ N(0, V_t - P_filt_t) after each
   measurement update, invisible to the sensor at injection time.
   Under this model the update-resilient filter is the exactly matched
   Kalman filter, so it is worst-case optimal by construction; any other
   gain schedule does strictly worse.

2. ``backward_pass`` / ``assemble_lf`` / ``simulate_lf`` — a hostile
   observation-channel model on a 3n-dimensional augmented state, obtained
   by a backward recursion that converts the per-step exponential tilting
   of the measurement-noise density into proper Gaussian conditionals.
   This construction keeps the state process exactly nominal and corrupts
   only the measurement channel (noise correlated with the filter's own
   error and inflated in variance).  It is a strictly weaker adversary than
   the saddle-achieving one: constrained to the observation channel, it
   cannot reproduce the inflated conditional state covariance, and the
   evaluated worst-case variances come out below the game value.

``error_cov_recursion`` propagates the exact error covariance of an
arbitrary gain schedule under either construction, as one Lyapunov
recursion on a 3n x 3n joint covariance whose top-left n x n block is the
evaluated estimator's error covariance.  The saddle-achieving adversary is
the channel recursion with no feedback (F = 0), nominal measurement noise
and the injected noise added to the process noise.
"""

import numpy as np
from dataclasses import dataclass

from .numerics import NumericsError, _doubling, check_sympd, spd_sqrt, sym
from .filters import _Steps, _fill


class SynthesisError(RuntimeError):
    """Raised when the hostile-model synthesis is infeasible; ``member`` is
    the index of the failing member of a stacked pass, else None."""

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member


# ---------------------------------------------------------------------------
# Saddle-achieving worst-case model (noise-injection form)


def injection_covariances(fwd):
    """Extra state-noise covariances D_t = V_t - P_filt_t of the
    saddle-achieving adversary, stacked over the steps as (N+1, n, n)."""
    D = fwd.cov_distorted - fwd.cov_filt
    return 0.5 * (D + D.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# Hostile observation-channel model (3n augmented state form)


@dataclass
class BackwardPass:
    """Backward recursion output for the observation-channel adversary.

    All channel quantities live in whitened measurement units (measurement
    noise scaled to identity).  Per step t: ``omega_inv[t]`` (n x n PSD),
    ``W[t]`` = theta_t I + omega_inv[t+1] (n x n, PD for theta_t > 0),
    ``O[t]`` (m x m PD) the whitened hostile measurement-noise covariance
    (identity at zero budget), ``F[t]`` (m x n) its feedback onto the
    filter's error, ``Ups[t]`` the lower-triangular square root of
    ``O[t]``.  Each is a read-only stack over the steps: ``omega_inv`` has
    N + 2 rows, the last zero, the others N + 1.  ``r_half`` maps whitened
    outputs back to physical units.  The pass of a schedule stack has a
    leading member axis on each stack; ``member`` picks one member.
    """

    omega_inv: np.ndarray
    W: np.ndarray
    O: np.ndarray
    F: np.ndarray
    Ups: np.ndarray
    r_half: np.ndarray  # R^{1/2}, lower triangular

    def member(self, i):
        return BackwardPass(self.omega_inv[i], self.W[i], self.O[i],
                            self.F[i], self.Ups[i], self.r_half)


def backward_pass(fwd, model):
    """Backward recursion synthesizing the observation-channel adversary.

    In whitened measurement units (Lw = L R^{1/2}, Cw = R^{-1/2} C):
    terminal condition omega_inv[N+1] = 0; then for t = N..0:
    W_{t+1} = theta_t I + omega_inv_{t+1},
    O_t = (I_m - Lw^T W_{t+1} Lw)^{-1},
    F_t = -O_t Lw^T W_{t+1} (I - Lw Cw),
    omega_inv_t = Abar^T W_{t+1} Abar + (F_t A)^T O_t^{-1} (F_t A)
    with Abar = (I - Lw Cw) A = (I - L C) A: a sum of two PSD quadratic
    forms, equal by Woodbury to Abar^T (W_{t+1}^{-1} - Lw Lw^T)^{-1} Abar
    without inverting W.  A step is feasible exactly when
    I - Lw^T W_{t+1} Lw is positive definite (for W PD this is
    W^{-1} - Lw Lw^T PD); otherwise SynthesisError names the step.

    One Cholesky factorisation per step decides that and gives O and Ups:
    with J the exchange matrix, J O_t^{-1} J = M M^T, so O_t^{-1} =
    (J M J)(J M J)^T with J M J upper triangular, and Ups_t = J M^{-T} J is
    the lower-triangular factor of O_t = Ups_t Ups_t^T.

    ``fwd`` may be a schedule stack (``covariance_schedules``): the pass
    then runs over its members at once, each with the bytes of its own
    pass, and an infeasible step names its first infeasible member.

    A step reads omega_inv[t+1] with its L and theta rows.  Once it reads
    what a later step read, p steps on, the rows below are filled by
    period for as long as L and theta repeat with period p, bit for bit
    and in every member; the fill stops at the first step whose L or theta
    differ from those p steps later (the schedule's steps before its
    cycle), which are computed.  Filled rows are byte-identical to the
    full loop's, and a filled step cannot fail, since the step it copies
    did not.
    """
    n, m = model.n, model.m
    N = fwd.horizon
    lead = fwd.thetas.shape[:-1]
    A, C = model.A, model.C
    Rh = spd_sqrt(model.R)
    omega_inv = np.zeros((*lead, N + 2, n, n))
    Ws = np.empty((*lead, N + 1, n, n))
    Os, Upss = np.empty((2, *lead, N + 1, m, m))
    Fs = np.empty((*lead, N + 1, m, n))
    out = (omega_inv, Ws, Os, Fs, Upss)
    eye_n, eye_m = np.eye(n), np.eye(m)
    steps = _Steps()
    # the rows of the outputs and of the per-step inputs, from step N down
    rows = [np.moveaxis(a, -3, 0)[N::-1] for a in out]
    inputs = (np.moveaxis(fwd.gains, -3, 0)[::-1],
              np.moveaxis(fwd.thetas, -1, 0)[::-1])
    t = N
    while t >= 0:
        L, theta = fwd.gains[..., t, :, :], fwd.thetas[..., t]
        s = steps.find(t, omega_inv[..., t + 1, :, :], L, theta)
        if s is not None:
            t = N - _fill(rows, N - t, s - t, inputs)
            continue
        Lw = L @ Rh
        # Oinv comes out of sym exactly symmetric, so its Cholesky
        # factorisation is the whole feasibility test
        W = sym(theta[..., None, None] * eye_n + omega_inv[..., t + 1, :, :])
        Oinv = sym(eye_m - Lw.swapaxes(-1, -2) @ W @ Lw)
        try:
            M = np.linalg.cholesky(Oinv[..., ::-1, ::-1])
        except np.linalg.LinAlgError:
            raise _infeasible(Oinv, t) from None
        # inv's LU does not pivot M^T, which is upper triangular, so Ups is
        # exactly lower triangular, and Ups @ Ups.T is exactly symmetric
        Ups = np.linalg.inv(M.swapaxes(-1, -2))[..., ::-1, ::-1]
        O = Ups @ Ups.swapaxes(-1, -2)
        ILC = eye_n - L @ C
        F = -O @ Lw.swapaxes(-1, -2) @ W @ ILC
        FA = F @ A
        Abar = ILC @ A
        omega = sym(Abar.swapaxes(-1, -2) @ W @ Abar
                    + FA.swapaxes(-1, -2) @ Oinv @ FA)
        for a, row in zip(out, (omega, W, O, F, Ups)):
            a[..., t, :, :] = row
        t -= 1
    for a in out:
        a.flags.writeable = False
    return BackwardPass(omega_inv=omega_inv, W=Ws, O=Os, F=Fs, Ups=Upss,
                        r_half=Rh)


def _infeasible(Oinv, t):
    """The SynthesisError of step t, whose Oinv (one, or a stack) is not
    positive definite, naming the first infeasible member of a stack."""
    member = None
    for i in range(len(Oinv)) if Oinv.ndim > 2 else ():
        try:
            np.linalg.cholesky(Oinv[i, ::-1, ::-1])
        except np.linalg.LinAlgError:
            member = i
            break
    where = "" if member is None else f" (member {member})"
    return SynthesisError(
        f"channel synthesis infeasible at t={t}{where}: "
        "I - L^T W L is not positive definite (budget too large)", member)


@dataclass
class LeastFavorableModel:
    """Hostile observation-channel model on the augmented state
    eta_t = [x_t; e_{t-1}; w_{t-1}] (3n-dimensional), driven by noise
    v_t = [w_t; u_t] with covariance Xi = blockdiag(Q, I_m).  The four
    per-step matrices are stacked over t = 0..N."""

    Abar: np.ndarray  # (N+1, 3n, 3n)
    Bbar: np.ndarray  # (N+1, 3n, n+m)
    Cbar: np.ndarray  # (N+1, m, 3n)
    Dbar: np.ndarray  # (N+1, m, n+m)
    Xi: np.ndarray
    n: int
    m: int
    N: int


def assemble_lf(fwd, bwd, model):
    """Assemble the augmented-state hostile channel model."""
    n, m = model.n, model.m
    N = fwd.horizon
    A, C, Q = model.A, model.C, model.Q
    I = np.eye(n)
    Xi = np.block([
        [Q, np.zeros((n, m))],
        [np.zeros((m, n)), np.eye(m)],
    ])
    L = fwd.gains
    # physical-unit feedback and noise shaping (bwd stores whitened)
    F = bwd.r_half @ bwd.F
    Ups = bwd.r_half @ bwd.Ups
    Abar = np.zeros((N + 1, 3 * n, 3 * n))
    Abar[:, :n, :n] = A
    Abar[:, n:2 * n, n:2 * n] = A - L @ C @ A - L @ F @ A
    Abar[:, n:2 * n, 2 * n:] = I - L @ F - L @ C
    Bbar = np.zeros((N + 1, 3 * n, n + m))
    Bbar[:, :n, :n] = I
    Bbar[:, n:2 * n, n:] = -L @ Ups
    Bbar[:, 2 * n:, :n] = I
    Cbar = np.concatenate([np.broadcast_to(C, F.shape), F @ A, F], axis=2)
    Dbar = np.concatenate([np.zeros((N + 1, m, n)), Ups], axis=2)
    return LeastFavorableModel(Abar=Abar, Bbar=Bbar, Cbar=Cbar, Dbar=Dbar,
                               Xi=Xi, n=n, m=m, N=N)


def simulate_lf(lf, init, seed, n_traj=1):
    """Simulate the hostile channel model.

    The augmented state starts at eta_0 = [x_0; 0; x_0 - xhat_0]: placing
    the initial estimation error in the process-noise slot makes the
    filter's prediction error at t = 0 come out as x_0 - xhat_0 exactly.
    Returns (eta, states, observations) with shapes (n_traj, N+1, 3n),
    (n_traj, N+1, n), (n_traj, N+1, m).
    """
    rng = np.random.default_rng(seed)
    n, m, N = lf.n, lf.m, lf.N
    Lxi = np.linalg.cholesky(lf.Xi + 1e-15 * np.eye(n + m))
    Lp = np.linalg.cholesky(init.cov + 1e-15 * np.eye(n))
    x0 = init.mean + rng.standard_normal((n_traj, n)) @ Lp.T
    eta = np.zeros((n_traj, 3 * n))
    eta[:, :n] = x0
    eta[:, 2 * n:] = x0 - init.mean
    etas = np.zeros((n_traj, N + 1, 3 * n))
    Y = np.zeros((n_traj, N + 1, m))
    for t in range(N + 1):
        v = rng.standard_normal((n_traj, n + m)) @ Lxi.T
        etas[:, t] = eta
        Y[:, t] = eta @ lf.Cbar[t].T + v @ lf.Dbar[t].T
        eta = eta @ lf.Abar[t].T + v @ lf.Bbar[t].T
    return etas, etas[:, :, :n], Y


# error_cov_recursion builds its transition and noise matrices for this
# many steps at a time, from the first step it has to compute
_BLOCK = 128


def error_cov_recursion(model, eval_gains, fwd, bwd=None, P0=None):
    """Exact error covariance of a gain schedule under either adversary.

    Lyapunov recursion on the 3n x 3n covariance of [e'_t; e_t; xi_t]
    (evaluated estimator's filtered error, robust filter's filtered error,
    process noise entering the transition t -> t+1):

        Pi_t = Gam_t Pi_{t-1} Gam_t^T + N_t,   Pi_{-1} = blockdiag(0, 0, P0).

    An estimator with gain K has the error row [(I - KC)A, -K F_t A,
    I - K(F_t + C)] of Gam_t and measurement noise -K Ups_t u_t; the robust
    gain L has the same row with its first two blocks combined into the e
    column.  The xi row of Gam_t is zero and xi_t is fresh with covariance
    Qxi_t.  The channel adversary (``bwd`` from ``backward_pass`` on
    ``fwd``) has the physical-unit F_t = R^{1/2} bwd.F[t] and Ups_t =
    R^{1/2} bwd.Ups[t] of ``assemble_lf``, and Qxi_t = Q; the
    saddle-achieving adversary (``bwd=None``) has F_t = 0, Ups_t Ups_t^T = R
    and Qxi_t = Q + A D_t A^T with D_t from ``injection_covariances``.
    Placing P0 in the noise slot makes both estimators start from the same
    prior error, consistent with ``simulate_lf``.  Returns the (N+1, 3n, 3n)
    stack; the top-left n x n block of Pi_t is the evaluated estimator's
    filtered error covariance at t.

    ``eval_gains`` may carry a leading member axis, one gain schedule per
    member (e.g. ``np.stack`` of several schedules' gains, which keeps
    their layout); the members then run at once, each with the bytes of
    its own recursion, and the result has the same leading axis.

    A step reads Pi_{t-1} with its rows of K and L and, where they vary
    by step, of F_t, Ups_t Ups_t^T and Qxi_t.  Once it reads what an
    earlier step read, p steps before, the following rows are filled by
    period for as long as every one of those inputs repeats with period p,
    bit for bit; the fill stops at the first step whose inputs differ from
    those p steps before (for the channel adversary, the steps near N,
    where F_t and Ups_t leave their cycle), and stepping resumes there.
    Filled rows are byte-identical to the full loop's.  Gam_t and N_t are
    built ``_BLOCK`` steps at a time, and only for the steps that are
    computed, not filled.
    """
    n = model.n
    N = fwd.horizon
    K = np.asarray(eval_gains, dtype=float)
    if K.ndim < 3 or K.shape[-3] != N + 1:
        raise SynthesisError("gain schedule length does not match the horizon")
    P0 = check_sympd(P0 if P0 is not None else fwd.cov_pred[0])
    A, C, Q = model.A, model.C, model.Q
    I = np.eye(n)
    L = fwd.gains
    # per-step F_t, Ups_t Ups_t^T and Qxi_t, or one matrix for every step
    if bwd is None:
        F = np.zeros((model.m, n))
        UU = model.R
        Qxi = Q + A @ injection_covariances(fwd) @ A.T
    else:
        F = bwd.r_half @ bwd.F
        Ups = bwd.r_half @ bwd.Ups
        UU = Ups @ Ups.transpose(0, 2, 1)
        del Ups     # the steps read UU; F + C is built a block at a time
        Qxi = Q
    lead = K.shape[:-3]

    def transitions(t):
        """Gam and Noise of the block of steps from t."""
        b = slice(t, t + _BLOCK)
        Kb, Lb = K[..., b, :, :], L[b]
        Fb, UUb, Qxib = (a if a.ndim == 2 else a[b] for a in (F, UU, Qxi))
        FCb = Fb + C
        Gam = np.zeros((*lead, len(Lb), 3 * n, 3 * n))
        Gam[..., :n, :n] = (I - Kb @ C) @ A
        Gam[..., :n, n:2 * n] = -Kb @ Fb @ A
        Gam[..., :n, 2 * n:] = I - Kb @ FCb
        Gam[..., n:2 * n, n:2 * n] = (I - Lb @ C) @ A - Lb @ Fb @ A
        Gam[..., n:2 * n, 2 * n:] = I - Lb @ FCb
        KL = np.concatenate([Kb, np.broadcast_to(Lb, Kb.shape)], axis=-2)
        Noise = np.zeros(Gam.shape)
        Noise[..., :2 * n, :2 * n] = KL @ UUb @ KL.swapaxes(-1, -2)
        Noise[..., 2 * n:, 2 * n:] = Qxib
        return Gam, Noise

    Pi = np.zeros((*lead, 3 * n, 3 * n))
    Pi[..., 2 * n:, 2 * n:] = P0
    out = np.empty((*lead, N + 1, 3 * n, 3 * n))
    # Gam[t] and Noise[t] are built from the model and these per-step rows
    # alone, so a step is keyed by them, not by the larger matrices
    inputs = [a for a in (F, UU, Qxi) if a.ndim == 3]
    # the rows of the output and of every per-step input
    rows = np.moveaxis(out, -3, 0)
    per_step = [np.moveaxis(K, -3, 0), L, *inputs]
    steps = _Steps()
    start = end = 0     # the steps whose Gam and Noise are built
    t = 0
    while t <= N:
        s = steps.find(t, Pi, K[..., t, :, :], L[t], *(a[t] for a in inputs))
        if s is not None:
            t = _fill([rows], t, t - s, per_step)
        else:
            if t >= end:
                Gam, Noise = transitions(t)
                start, end = t, t + _BLOCK
            G = Gam[..., t - start, :, :]
            out[..., t, :, :] = sym(G @ Pi @ G.swapaxes(-1, -2)
                                    + Noise[..., t - start, :, :])
            t += 1
        Pi = out[..., t - 1, :, :]
    return out


# ---------------------------------------------------------------------------
# Steady-state backward fixed point


def steady_state_w(model, L, theta):
    """Fixed point of the backward recursion at converged (L, theta).

    Solves W = Abar^T (W^{-1} - L R L^T)^{-1} Abar + theta I with
    Abar = (I - L C) A by structured doubling (``numerics._doubling`` with
    G = -L R L^T), whose iterates are those of the recursion from
    W = theta I at steps 2^k.  Returns (W, J, spectral radius of
    Abar - Lw J^T), where Lw is the whitened gain L R^{1/2} and
    J = Abar^T W Lw (Lw^T W Lw - I)^{-1}; the radius being below one
    certifies mean-square boundedness of the filter error under the
    hostile channel model in steady state.  Raises SynthesisError when the
    doubling fails or overflows, or when W or I - Lw^T W Lw is not
    positive definite.
    """
    n = model.n
    A, C = model.A, model.C
    L = np.asarray(L, dtype=float)
    Lw = L @ spd_sqrt(model.R)
    Abar = (np.eye(n) - L @ C) @ A
    if theta < 0:
        raise SynthesisError("theta must be nonnegative")
    if theta == 0.0:
        J = np.zeros((n, model.m))
        rad = float(max(abs(np.linalg.eigvals(Abar))))
        return np.zeros((n, n)), J, rad
    try:
        W = _doubling(Abar[None], -(Lw @ Lw.T)[None], theta * np.eye(n))[0]
        if not np.isfinite(W).all():
            raise NumericsError("the doubling overflowed")
        check_sympd(W)
        M = sym(Lw.T @ W @ Lw - np.eye(model.m))
        check_sympd(-M)
    except (NumericsError, np.linalg.LinAlgError) as e:
        raise SynthesisError(
            f"steady-state backward recursion infeasible at theta="
            f"{theta:.6g}: {e}") from e
    J = Abar.T @ W @ Lw @ np.linalg.inv(M)
    rad = float(max(abs(np.linalg.eigvals(Abar - Lw @ J.T))))
    return W, J, rad
