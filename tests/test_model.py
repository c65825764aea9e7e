import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from resilientkf.bench import MSD
from resilientkf.model import (
    LinearGaussianModel,
    ModelError,
    MsdParams,
    _continuous_matrices,
    expm,
    is_observable,
    load_model,
    model_from_dict,
    msd_discretize,
    validate,
    van_loan_cov,
    zoh_input,
)

from oracles import model_to_dict, save_model


def test_validate_accepts_good_model(model_a):
    m = validate(model_a)
    assert m is model_a
    assert is_observable(m.A, m.C)


def test_validate_rejects_bad_shapes():
    with pytest.raises(ModelError):
        validate(LinearGaussianModel(A=[[1.0, 0.0]], C=[[1.0]], Q=[[1.0]], R=[[1.0]]))
    with pytest.raises(ModelError):
        validate(LinearGaussianModel(A=[[1.0]], C=[[1.0, 0.0]], Q=[[1.0]], R=[[1.0]]))


def test_validate_rejects_indefinite_noise():
    with pytest.raises(ModelError):
        validate(LinearGaussianModel(A=[[0.5]], C=[[1.0]], Q=[[-1.0]], R=[[1.0]]))
    with pytest.raises(ModelError):
        validate(LinearGaussianModel(A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[0.0]]))


def test_msd_discretize_matches_exact_sampling():
    p = MsdParams()
    nominal, Qw = msd_discretize(p)
    Ac, Bc = _continuous_matrices(p)
    from scipy.linalg import expm

    assert np.allclose(nominal.A, expm(Ac * p.sample_time))
    assert nominal.C.tolist() == [[1.0, 0.0]]
    assert nominal.R.tolist() == [[0.25]]
    # nominal Q is the discrete force through the sampled input channel
    Bd = zoh_input(Ac, Bc, p.sample_time)
    assert np.allclose(nominal.Q, Bd @ Bd.T + 1e-10 * np.eye(2))
    # actual covariance is PSD and dominated by the velocity channel
    w = np.linalg.eigvalsh(Qw)
    assert w[0] >= 0


def test_van_loan_matches_quadrature():
    # cross-check the augmented-exponential covariance against numerical
    # integration of e^{Ac s} Bc Bc^T e^{Ac^T s}
    p = MsdParams()
    Ac, Bc = _continuous_matrices(p)
    from scipy.linalg import expm

    Ts = p.sample_time
    s = np.linspace(0.0, Ts, 4001)
    acc = np.zeros((2, 2))
    for a, b in zip(s[:-1], s[1:]):
        mid = 0.5 * (a + b)
        E = expm(Ac * mid)
        acc += (b - a) * E @ Bc @ Bc.T @ E.T
    assert np.allclose(van_loan_cov(Ac, Bc, 1.0, Ts), acc, atol=1e-8)


def _msd_exponents():
    """The matrices whose exponentials discretize the mass-spring-damper
    plant: Ac Ts and the Van Loan matrix, for the default and the
    benchmark parameters."""
    for p in (MsdParams(), MSD):
        Ac, Bc = _continuous_matrices(p)
        psd = p.force_var + p.damping ** 2 * p.disturbance_var
        M = np.block([[-Ac, Bc @ Bc.T * psd], [np.zeros((2, 2)), Ac.T]])
        yield Ac * p.sample_time
        yield M * p.sample_time


def test_expm_matches_scipy_on_msd_matrices():
    from scipy.linalg import expm as scipy_expm

    for M in _msd_exponents():
        want = scipy_expm(M)
        assert np.abs(expm(M) - want).max() <= 1e-13 * np.abs(want).max()


def _expm_reference(M, digits=50):
    """exp(M) in 50-digit decimal arithmetic: the Taylor series of M / 2^s,
    with ||M / 2^s||_1 <= 1/2, to 40 terms, then s squarings."""
    n = len(M)

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    with localcontext() as ctx:
        ctx.prec = digits
        s = max(0, math.ceil(math.log2(2.0 * np.abs(M).sum(axis=0).max())))
        X = [[Decimal(float(x)) / 2 ** s for x in row] for row in M]
        E = [[Decimal(int(i == j)) for j in range(n)] for i in range(n)]
        term = E
        for k in range(1, 40):
            term = [[x / k for x in row] for row in mul(term, X)]
            E = [[a + b for a, b in zip(r, t)] for r, t in zip(E, term)]
        for _ in range(s):
            E = mul(E, E)
    return np.array([[float(x) for x in row] for row in E])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expm_matches_high_precision_reference(n):
    # seeded matrices with 1-norms from 0.01 to 50 (scipy 1.17's expm is
    # off the reference by up to 5e-12 relative on some of them)
    rng = np.random.default_rng(n)
    for norm in (0.01, 1.0, 5.0, 20.0, 50.0):
        for _ in range(3):
            M = rng.standard_normal((n, n))
            M *= norm / np.abs(M).sum(axis=0).max()
            want = _expm_reference(M)
            assert np.abs(expm(M) - want).max() <= 1e-13 * np.abs(want).max()


def test_model_json_roundtrip(tmp_path, model_a):
    path = tmp_path / "model.json"
    save_model(model_a, path)
    loaded = load_model(path)
    for attr in ("A", "C", "Q", "R"):
        assert np.allclose(getattr(loaded, attr), getattr(model_a, attr))


def test_model_from_dict_missing_key():
    d = model_to_dict(validate(LinearGaussianModel(
        A=[[0.5]], C=[[1.0]], Q=[[1.0]], R=[[1.0]])))
    d.pop("Q")
    with pytest.raises(ModelError):
        model_from_dict(d)


def test_msd_params_validation():
    with pytest.raises(ModelError):
        MsdParams(mass=0.0)
    with pytest.raises(ModelError):
        MsdParams(disturbance_var=-1.0)
