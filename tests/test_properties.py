"""Randomized property suite for the numeric kernels.

Each property is exercised on 200 randomized instances from a fixed seed,
plus a few hypothesis-driven spot checks on the scalar specializations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resilientkf.numerics import (
    gamma,
    solve_discrete_lyapunov,
    spectral_extrema,
    sym,
)

from oracles import solve_budget_of

N_INSTANCES = 200


def _random_spd(rng, n):
    B = rng.standard_normal((n, n))
    return sym(B @ B.T + 0.05 * np.eye(n))


def test_gamma_monotone_in_theta_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 6))
        P = _random_spd(rng, n)
        _, smax = spectral_extrema(P)
        t1, t2 = np.sort(rng.uniform(1e-8, 0.999 / smax, size=2))
        if t1 == t2:
            continue
        assert gamma(P, t1) < gamma(P, t2)


def test_gamma_monotone_in_matrix_randomized():
    # P1 <= P2 in the PSD order implies gamma(P1, t) <= gamma(P2, t)
    rng = np.random.default_rng(2025)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 6))
        P1 = _random_spd(rng, n)
        D = rng.standard_normal((n, n))
        P2 = sym(P1 + D @ D.T)
        _, smax = spectral_extrema(P2)
        t = rng.uniform(1e-8, 0.999 / smax)
        assert gamma(P1, t) <= gamma(P2, t) + 1e-12


def test_solve_budget_roundtrip_randomized():
    rng = np.random.default_rng(2026)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 6))
        P = _random_spd(rng, n)
        c = float(10.0 ** rng.uniform(-6, 0.3))
        res = solve_budget_of(P, c)
        assert abs(gamma(P, res.theta) - c) <= 1e-10 * max(1.0, c)


def test_lyapunov_residual_randomized():
    rng = np.random.default_rng(2027)
    for _ in range(N_INSTANCES):
        n = int(rng.integers(1, 8))
        F = rng.standard_normal((n, n))
        F *= rng.uniform(0.1, 0.95) / max(1e-9, max(abs(np.linalg.eigvals(F))))
        V = _random_spd(rng, n)
        X = solve_discrete_lyapunov(F, V)
        res = np.abs(X - (F @ X @ F.T + V)).max()
        assert res <= 1e-9 * max(1.0, np.abs(X).max())
        assert np.linalg.eigvalsh(X).min() > 0


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.05, 50.0), frac=st.floats(1e-3, 0.999))
def test_gamma_scalar_closed_form(p, frac):
    theta = frac / p
    P = np.array([[p]])
    expected = 0.5 * (np.log1p(-theta * p) + 1.0 / (1.0 - theta * p) - 1.0)
    assert gamma(P, theta) == pytest.approx(max(expected, 0.0), rel=1e-9, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(p=st.floats(0.05, 20.0), c=st.floats(1e-6, 2.0))
def test_solve_budget_scalar_roundtrip(p, c):
    P = np.array([[p]])
    res = solve_budget_of(P, c)
    assert gamma(P, res.theta) == pytest.approx(c, rel=1e-9, abs=1e-12)
    assert 0.0 < res.theta < 1.0 / p
