"""State-space model representations, validation and file formats.

Provides the nominal time-invariant linear-Gaussian model, Gaussian beliefs
and mass-spring-damper discretization (the nominal design model and the
process noise of the sampled physical plant used by the benchmark).
"""

import json
import math

import numpy as np
from dataclasses import dataclass

from .numerics import NumericsError, check_sympd, sym


class ModelError(ValueError):
    """Raised when a model fails validation."""


@dataclass
class LinearGaussianModel:
    """Time-invariant model x_{t+1} = A x_t + w_t, y_t = C x_t + v_t.

    w_t ~ N(0, Q), v_t ~ N(0, R), both white and mutually independent.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.C.shape[0]


@dataclass
class GaussianBelief:
    """Gaussian state belief N(mean, cov)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.asarray(self.cov, dtype=float)
        if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):
            raise ModelError("belief mean and covariance must be finite")
        try:
            self.cov = check_sympd(self.cov)
        except NumericsError as e:
            raise ModelError(f"belief covariance: {e}") from e
        if self.mean.shape[0] != self.cov.shape[0]:
            raise ModelError("belief mean/covariance dimension mismatch")


def is_observable(A, C):
    blocks = [C]
    for _ in range(A.shape[0] - 1):
        blocks.append(blocks[-1] @ A)
    return np.linalg.matrix_rank(np.vstack(blocks)) == A.shape[0]


def validate(model):
    """Validate a LinearGaussianModel; returns the model on success.

    Requires finite 2-D A, C, Q, R, Q > 0, R > 0 and consistent dimensions.
    Observability of (A, C) is not required here (plain filtering does not
    need it); the convergence bounds check it.  Q > 0 implies reachability
    of (A, Q).
    """
    for name in ("A", "C", "Q", "R"):
        M = getattr(model, name)
        if M.ndim != 2:
            raise ModelError(f"{name} must be a matrix, got shape {M.shape}")
        if not np.isfinite(M).all():
            raise ModelError(f"{name} has non-finite entries")
    n = model.A.shape[0]
    if model.A.shape != (n, n):
        raise ModelError(f"A must be square, got {model.A.shape}")
    if model.C.shape[1] != n:
        raise ModelError(
            f"C has {model.C.shape[1]} columns, expected {n}"
        )
    m = model.C.shape[0]
    try:
        check_sympd(model.Q)
    except NumericsError as e:
        raise ModelError(f"Q must be symmetric positive definite: {e}")
    try:
        check_sympd(model.R)
    except NumericsError as e:
        raise ModelError(f"R must be symmetric positive definite: {e}")
    if model.Q.shape != (n, n):
        raise ModelError("Q dimension mismatch")
    if model.R.shape != (m, m):
        raise ModelError("R dimension mismatch")
    return model


@dataclass
class MsdParams:
    """Mass-spring-damper parameters.

    The continuous dynamics are m p'' + c (p' + nu) + k p = F with external
    force F and a small disturbance nu acting through the damper.
    """

    mass: float = 0.1
    spring: float = 5.0
    damping: float = 2.0
    nominal_force_var: float = 1.0
    force_var: float = 1.0
    disturbance_var: float = 0.0
    sample_time: float = 0.1

    def __post_init__(self):
        if min(self.mass, self.spring, self.damping, self.sample_time) <= 0:
            raise ModelError("mass, spring, damping, sample_time must be positive")
        if self.force_var <= 0 or self.nominal_force_var <= 0:
            raise ModelError("force variances must be positive")
        if self.disturbance_var < 0:
            raise ModelError("disturbance_var must be nonnegative")


def _continuous_matrices(p):
    Ac = np.array([[0.0, 1.0], [-p.spring / p.mass, -p.damping / p.mass]])
    Bc = np.array([[0.0], [1.0 / p.mass]])
    return Ac, Bc


# Padé [13/13] coefficients b_0..b_13 of exp and the 1-norm up to which
# that approximant is accurate to double precision (Higham 2005, table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(M):
    """Matrix exponential by scaling and squaring with the Padé [13/13]
    approximant (Higham 2005): exp(M) = r(M / 2^s)^(2^s), with s the
    smallest nonnegative integer that brings ||M / 2^s||_1 to at most
    _THETA13."""
    M = np.asarray(M, dtype=float)
    norm = np.abs(M).sum(axis=0).max()
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    M = M / 2.0 ** s
    b, I = _PADE13, np.eye(M.shape[0])
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M4 @ M2
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * I)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * I)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


def van_loan_cov(Ac, Bc, psd, Ts):
    """Process-noise covariance of the sampled system via the augmented
    matrix-exponential construction, for continuous white noise of intensity
    ``psd`` injected through Bc."""
    n = Ac.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = -Ac
    M[:n, n:] = Bc @ Bc.T * psd
    M[n:, n:] = Ac.T
    E = expm(M * Ts)
    Ad = E[n:, n:].T
    return sym(Ad @ E[:n, n:])


def zoh_input(Ac, Bc, Ts):
    """Discrete input matrix for a zero-order-hold input: int_0^Ts e^{Ac s} ds Bc."""
    return np.linalg.solve(Ac, (expm(Ac * Ts) - np.eye(Ac.shape[0]))) @ Bc


# The designer's displacement-sensor variance, and the diagonal jitter that
# keeps the nominal process-noise covariance positive definite.
MEASUREMENT_VAR = 0.25
Q_JITTER = 1e-10


def msd_discretize(p):
    """Discretize the mass-spring-damper system.

    Returns (nominal, Qw):

    - ``nominal`` is the designer's model: exact zero-order-hold dynamics
      A = expm(Ac Ts) with the force modeled as *discrete-time* white noise
      of variance ``nominal_force_var`` injected through the sampled input channel
      (plus the diagonal ``Q_JITTER`` so Q stays positive definite), no
      damper disturbance, displacement measurement C = [1 0] with variance
      ``MEASUREMENT_VAR``.
    - ``Qw`` is the process-noise covariance of the physical system, which
      shares nominal's A: the sampled covariance of the continuous-time
      force (intensity ``force_var``) and damper disturbance (force
      intensity damping^2 * disturbance_var) obtained by the
      augmented-exponential construction.

    The nominal and actual noise models deliberately differ: the designer
    posits simple per-sample force noise, while the physical plant
    integrates continuous excitation over each sampling interval.  This
    understated process noise is the model mismatch the robust filters are
    meant to absorb.
    """
    Ac, Bc = _continuous_matrices(p)
    Ts = p.sample_time
    A = expm(Ac * Ts)
    Bd = zoh_input(Ac, Bc, Ts)
    Qnom = sym(Bd @ Bd.T * p.nominal_force_var + Q_JITTER * np.eye(2))
    C = np.array([[1.0, 0.0]])
    R = np.array([[MEASUREMENT_VAR]])
    nominal = validate(LinearGaussianModel(A=A, C=C, Q=Qnom, R=R))
    psd_total = p.force_var + p.damping ** 2 * p.disturbance_var
    return nominal, van_loan_cov(Ac, Bc, psd_total, Ts)


# ---------------------------------------------------------------------------
# File formats


def _numbers(value):
    """Whether a parsed JSON value is a number or nested lists of numbers:
    strings, bools and nulls are not."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return type(value) in (int, float)


def model_from_dict(d):
    """The validated model of a parsed JSON object with exactly the keys A,
    C, Q and R; any other shape, key or non-numeric entry raises
    ModelError."""
    if not isinstance(d, dict):
        raise ModelError("model file must hold a JSON object")
    keys = {"A", "C", "Q", "R"}
    if set(d) != keys:
        raise ModelError(f"model file keys {sorted(d)}, expected "
                         f"{sorted(keys)}")
    if not all(map(_numbers, d.values())):
        raise ModelError("model entries must be numeric matrices")
    try:
        model = LinearGaussianModel(**d)
    except (TypeError, ValueError, OverflowError) as e:
        raise ModelError(f"model entries must be numeric matrices: {e}")
    return validate(model)


def load_json(path):
    """The parsed contents of a JSON input file.  Text that is not JSON, or
    that holds an integer too long to convert (Python caps integer strings
    at 4300 digits), raises ModelError."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise ModelError(str(e)) from e


def load_model(path):
    return model_from_dict(load_json(path))


def belief_from_dict(d):
    if not isinstance(d, dict):
        raise ModelError("belief file must hold a JSON object")
    unknown = sorted(set(d) - {"mean", "cov"})
    if unknown:
        raise ModelError(f"unknown belief key(s): {unknown}")
    try:
        mean, cov = d["mean"], d["cov"]
    except KeyError as e:
        raise ModelError(f"belief file missing key {e}")
    if not (_numbers(mean) and _numbers(cov)):
        raise ModelError("belief entries must be numeric arrays")
    try:
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ModelError(f"belief entries must be numeric arrays: {e}")
    return GaussianBelief(mean=mean, cov=cov)
