import numpy as np
import pytest

from resilientkf import bench
from resilientkf.bench import (
    SCENARIO_KINDS,
    BenchError,
    McConfig,
    MseReport,
    Scenario,
    run_monte_carlo,
    sample_measurement,
)
from resilientkf.filters import ConfigError, covariance_schedule, mean_pass
from resilientkf.model import msd_discretize


def test_scenario_validation():
    Scenario(kind="drift")
    with pytest.raises(BenchError):
        Scenario(kind="bogus")


def test_drift_moments():
    rng = np.random.default_rng(0)
    p = 0.7
    y = sample_measurement(Scenario(kind="drift"), np.full(10 ** 6, p), rng)
    assert abs(y.mean() - (p + 0.1)) < 1e-3
    assert abs(y.var() - 0.25) < 0.01


def test_uniform_moments():
    rng = np.random.default_rng(1)
    y = sample_measurement(Scenario(kind="uniform"), np.zeros(10 ** 6), rng)
    assert abs(y.var() - (1.1 + 0.9) ** 2 / 12.0) < 0.01 * 0.34
    assert abs(y.mean() - 0.1) < 1e-3


def test_outlier_moments():
    rng = np.random.default_rng(2)
    y = sample_measurement(Scenario(kind="outlier"), np.zeros(10 ** 6), rng)
    assert abs(y.var() - (0.9 * 0.25 + 0.1 * 5 * 0.25)) < 0.01 * 0.35


def test_deadzone_zeroes_small_readings():
    rng = np.random.default_rng(3)
    y = sample_measurement(Scenario(kind="deadzone"), np.zeros(10 ** 4), rng)
    inside = np.abs(y) < 0.1
    assert np.all(y[inside] == 0.0)
    assert (y == 0.0).sum() > 0


def test_mc_determinism():
    cfg = McConfig(trials=20, horizon=30, seed=42)
    [a] = run_monte_carlo(cfg, [Scenario(kind="drift")])
    [b] = run_monte_carlo(cfg, [Scenario(kind="drift")])
    for k in a.mse_t:
        assert np.array_equal(a.mse_t[k], b.mse_t[k])
    assert a.config_digest == b.config_digest
    [c] = run_monte_carlo(McConfig(trials=20, horizon=30, seed=43),
                          [Scenario(kind="drift")])
    assert not np.array_equal(a.mse_t["kf"], c.mse_t["kf"])


def test_mc_report_wellformed():
    cfg = McConfig(trials=5, horizon=10, seed=0)
    [rep] = run_monte_carlo(cfg, [Scenario(kind="uniform")])
    for k, v in rep.mse_t.items():
        assert v.shape == (10,)
        assert (v >= 0).all()
        assert rep.time_averaged[k] == pytest.approx(v.mean())
    d = rep.to_dict()
    assert d["scenario"] == "uniform"
    assert set(d) == {"scenario", "trials", "horizon", "seed",
                      "config_digest", "time_averaged", "mse_t"}


def _ref_run_monte_carlo(cfg, scenario):
    """Run the benchmark for one scenario (the per-scenario form that
    run_monte_carlo replaced, kept verbatim as a reference)."""
    nominal, Qw = msd_discretize(bench.MSD)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    rng = np.random.default_rng(cfg.seed)
    P0 = bench.INIT_COV_SCALE * np.eye(n)
    schedules = {name: covariance_schedule(nominal, fc, P0, N - 1).gains
                 for name, fc in cfg.filters.items()}

    # plant trajectories; only the displacement is measured and scored
    if scenario.kind == "nominal":
        # control case: the plant is exactly the nominal design model
        A, Lw = nominal.A, np.linalg.cholesky(nominal.Q + 1e-15 * np.eye(n))
    else:
        A, Lw = nominal.A, np.linalg.cholesky(Qw + 1e-15 * np.eye(n))
    x = rng.standard_normal((M, n)) @ np.linalg.cholesky(P0).T
    pos = np.zeros((M, N))
    for t in range(N):
        pos[:, t] = x[:, 0]
        x = x @ A.T + rng.standard_normal((M, n)) @ Lw.T
    Y = sample_measurement(scenario, pos, rng)

    mse_t = {}
    for name, gains in schedules.items():
        # Y.T[:, :, None] steps through time as (trials, 1) views
        means = mean_pass(nominal, gains, np.zeros((M, n)), Y.T[:, :, None])
        mse_t[name] = np.array([np.mean((x_f[:, 0] - pos[:, t]) ** 2)
                                for t, (x_f, _) in enumerate(means)])
    return MseReport(
        scenario=scenario.kind,
        mse_t=mse_t,
        time_averaged={k: float(v.mean()) for k, v in mse_t.items()},
        trials=M, horizon=N, seed=cfg.seed,
        config_digest=cfg.digest(),
    )


@pytest.mark.parametrize("kinds", [
    SCENARIO_KINDS,
    ("nominal", "outlier", "drift"),
    ("deadzone",),
])
def test_mc_one_pass_matches_per_scenario_runs(kinds):
    cfg = McConfig(trials=40, horizon=25, seed=11)
    reports = run_monte_carlo(cfg, [Scenario(kind=k) for k in kinds])
    assert [r.scenario for r in reports] == list(kinds)
    for kind, rep in zip(kinds, reports):
        ref = _ref_run_monte_carlo(cfg, Scenario(kind=kind))
        assert rep.mse_t.keys() == ref.mse_t.keys()
        for name in ref.mse_t:
            assert rep.mse_t[name].tobytes() == ref.mse_t[name].tobytes()
        assert rep.time_averaged == ref.time_averaged


def test_mc_shares_schedules_and_discretization(monkeypatch):
    calls = {"covariance_schedule": 0, "msd_discretize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(bench, name, wrapper)

    counted("covariance_schedule", bench.covariance_schedule)
    counted("msd_discretize", bench.msd_discretize)
    cfg = McConfig(trials=5, horizon=10, seed=0)
    run_monte_carlo(cfg, [Scenario(kind=k) for k in SCENARIO_KINDS])
    assert calls == {"covariance_schedule": len(cfg.filters),
                     "msd_discretize": 1}


def test_mc_config_validation():
    with pytest.raises(BenchError):
        McConfig(trials=0)
    with pytest.raises(BenchError):
        McConfig(horizon=0)


@pytest.mark.parametrize("c", [float("nan"), -1.0])
def test_mc_config_rejects_bad_budget(c):
    # the budget is validated by McConfig itself, not only by the CLI
    with pytest.raises(ConfigError):
        McConfig(c=c)


def test_mc_config_filters_follow_budget():
    cfg = McConfig(c=0.2)
    assert sorted(cfg.filters) == ["kf", "urkf"]
    assert (cfg.filters["urkf"].kind, cfg.filters["urkf"].c) == ("urkf", 0.2)


def test_config_digest_is_pinned():
    # the digest goes into every bench report; its payload keys and values
    # must not move when the configuration's fields do
    assert McConfig(trials=5, horizon=10, seed=0).digest() == "425fabbca9d844dc"
    assert McConfig().digest() == "598dbf1ef1eb78f7"
