import numpy as np
import pytest

from resilientkf.model import (
    LinearGaussianModel,
    ModelError,
    MsdParams,
    _continuous_matrices,
    is_observable,
    load_model,
    model_from_dict,
    model_to_dict,
    msd_discretize,
    save_model,
    validate,
    van_loan_cov,
    zoh_input,
)


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
    nominal, actual = msd_discretize(p)
    Ac, Bc = _continuous_matrices(p)
    from scipy.linalg import expm

    assert np.allclose(nominal.A, expm(Ac * p.sample_time))
    assert nominal.C.tolist() == [[1.0, 0.0]]
    assert nominal.R.tolist() == [[0.25]]
    # nominal Q is the discrete force through the sampled input channel
    Bd = zoh_input(Ac, Bc, p.sample_time)
    assert np.allclose(nominal.Q, Bd @ Bd.T + 1e-10 * np.eye(2))
    # actual covariance is PSD and dominated by the velocity channel
    w = np.linalg.eigvalsh(actual.Qw)
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
