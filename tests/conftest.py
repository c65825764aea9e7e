from types import SimpleNamespace

import numpy as np
import pytest

from resilientkf import LinearGaussianModel
from resilientkf.filters import covariance_schedule, mean_pass
from resilientkf.model import is_observable
from resilientkf.numerics import spd_sqrt


@pytest.fixture
def model_a():
    """Two-state single-output model with a well-damped transition."""
    return LinearGaussianModel(
        A=[[0.1, 1.0], [0.0, 0.6]],
        C=[[1.0, -1.0]],
        Q=[[0.9050, 0.8150], [0.8150, 0.7450]],
        R=[[1.0]],
    )


@pytest.fixture
def model_b():
    """Two-state single-output model with a slower mode."""
    return LinearGaussianModel(
        A=[[0.1, 1.0], [0.0, 0.95]],
        C=[[1.0, -1.0]],
        Q=[[0.9050, 0.8575], [0.8575, 1.7225]],
        R=[[1.0]],
    )


def random_observable_model(rng, nmax=5, mmax=3):
    """Draw a random observable model with PD noise covariances."""
    for _ in range(100):
        n = int(rng.integers(1, nmax + 1))
        m = int(rng.integers(1, mmax + 1))
        A = rng.standard_normal((n, n))
        A *= 0.9 / max(1e-6, max(abs(np.linalg.eigvals(A))))
        C = rng.standard_normal((m, n))
        B = rng.standard_normal((n, n))
        Q = B @ B.T + 0.1 * np.eye(n)
        D = rng.standard_normal((m, m))
        R = D @ D.T + 0.1 * np.eye(m)
        model = LinearGaussianModel(A=A, C=C, Q=Q, R=R)
        obs = np.vstack([C @ np.linalg.matrix_power(A, j) for j in range(n)])
        if np.linalg.matrix_rank(obs) == n:
            return model
    raise RuntimeError("failed to draw an observable model")


def seeded_model(seed, n, m):
    """A stable, observable n-state, m-output model with PD noises."""
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        C = rng.standard_normal((m, n))
        B = rng.standard_normal((n, n))
        D = rng.standard_normal((m, m))
        model = LinearGaussianModel(A=A, C=C, Q=B @ B.T + 0.1 * np.eye(n),
                                    R=D @ D.T + 0.1 * np.eye(m))
        if is_observable(model.A, model.C):
            return model


def nominal_observations(model, init, N, seed):
    """Observations y_0..y_N, shape (N+1, m), of one nominal-model
    trajectory from x_0 ~ init; deterministic per seed."""
    rng = np.random.default_rng(seed)
    n, m = model.n, model.m
    Lq = spd_sqrt(model.Q)
    Lr = spd_sqrt(model.R)
    Lp = np.linalg.cholesky(init.cov + 1e-15 * np.eye(n))
    x = init.mean + Lp @ rng.standard_normal(n)
    obs = np.zeros((N + 1, m))
    for t in range(N + 1):
        obs[t] = model.C @ x + Lr @ rng.standard_normal(m)
        x = model.A @ x + Lq @ rng.standard_normal(n)
    return obs


def run_filter(model, config, init, ys):
    """The filter's covariance schedule, then its mean pass over ``ys``:
    one record per observation with the step's gain, theta, filtered mean
    and covariance, distorted covariance, and predicted mean and
    covariance."""
    sched = covariance_schedule(model, config, init.cov, len(ys) - 1)
    return [SimpleNamespace(gain=sched.gains[t], theta=sched.thetas[t],
                            mean_filt=x_f, cov_filt=sched.cov_filt[t],
                            cov_distorted=sched.cov_distorted[t],
                            mean_pred=x_p, cov_pred=sched.cov_pred[t + 1])
            for t, (x_f, x_p) in enumerate(
                mean_pass(model, sched.gains, init.mean, ys))]


def record_calls(monkeypatch, namespace, *names):
    """Wrap each named function of ``namespace`` (e.g. ``np.linalg``) so
    that its calls append their first argument to a list; returns those
    lists by name."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(*args, _f=getattr(namespace, name), _seen=calls[name],
                    **kwargs):
            _seen.append(args[0])
            return _f(*args, **kwargs)
        monkeypatch.setattr(namespace, name, wrapped)
    return calls
