import numpy as np
import pytest

from resilientkf import LinearGaussianModel
from resilientkf.model import is_observable


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
