import contextlib
import sys
import threading
import tracemalloc

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
from resilientkf.cli import main
from resilientkf.filters import ConfigError, covariance_schedule
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


def _parent_plant(cfg, scenario):
    """(trials, horizon) displacements of the scenario's plant, simulated
    row-major from its own ``default_rng(cfg.seed)`` as the trial-major
    form of run_monte_carlo did, kept as an independent reference."""
    nominal, Qw = msd_discretize(bench.MSD)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    rng = np.random.default_rng(cfg.seed)
    P0 = bench.INIT_COV_SCALE * np.eye(n)
    # control case: the plant is exactly the nominal design model
    Q = nominal.Q if scenario.kind == "nominal" else Qw
    A, Lw = nominal.A, np.linalg.cholesky(Q + 1e-15 * np.eye(n))
    x = rng.standard_normal((M, n)) @ np.linalg.cholesky(P0).T
    pos = np.zeros((M, N))
    for t in range(N):
        pos[:, t] = x[:, 0]
        x = x @ A.T + rng.standard_normal((M, n)) @ Lw.T
    return pos


def _sensor_stream(seed, kind):
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(SCENARIO_KINDS.index(kind),)))


def _ref_run_monte_carlo(cfg, scenario):
    """Run the benchmark for one scenario, row-major (trials, n), with the
    readings drawn step by step from the scenario's own stream: an
    independent reference of run_monte_carlo's draw law."""
    nominal, _ = msd_discretize(bench.MSD)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    P0 = bench.INIT_COV_SCALE * np.eye(n)
    schedules = {name: covariance_schedule(nominal, fc, P0, N - 1).gains
                 for name, fc in cfg.filters.items()}
    pos = _parent_plant(cfg, scenario)
    sensor = _sensor_stream(cfg.seed, scenario.kind)
    Y = np.column_stack([sample_measurement(scenario, p, sensor)
                         for p in pos.T])

    mse_t = {}
    for name, gains in schedules.items():
        x, mse = np.zeros((M, n)), []
        # Y.T[:, :, None] steps through time as (trials, 1) views
        for t, (L, y) in enumerate(zip(gains, Y.T[:, :, None])):
            x_f = x + (y - x @ nominal.C.T) @ L.T
            x = x_f @ nominal.A.T
            mse.append(np.mean((x_f[:, 0] - pos[:, t]) ** 2))
        mse_t[name] = np.array(mse)
    return MseReport(
        scenario=scenario.kind,
        mse_t=mse_t,
        time_averaged={k: float(v.mean()) for k, v in mse_t.items()},
        trials=M, horizon=N, seed=cfg.seed,
        config_digest=cfg.digest(),
    )


def _assert_matches_reference(cfg, kinds, reports=None):
    """run_monte_carlo's reports (or the given ones, from its run of cfg
    and kinds) equal the reference's, byte for byte."""
    if reports is None:
        reports = run_monte_carlo(cfg, [Scenario(kind=k) for k in kinds])
    assert [r.scenario for r in reports] == list(kinds)
    for kind, rep in zip(kinds, reports):
        ref = _ref_run_monte_carlo(cfg, Scenario(kind=kind))
        assert rep.mse_t.keys() == ref.mse_t.keys()
        for name in ref.mse_t:
            assert rep.mse_t[name].tobytes() == ref.mse_t[name].tobytes()
        assert rep.time_averaged == ref.time_averaged


@pytest.mark.parametrize("kinds", [
    SCENARIO_KINDS,
    ("nominal", "outlier", "drift"),
    ("deadzone",),
])
def test_mc_one_pass_matches_per_scenario_runs(kinds):
    _assert_matches_reference(McConfig(trials=40, horizon=25, seed=11), kinds)


@pytest.mark.parametrize("trials, horizon", [(41, 25), (1, 25), (40, 1)],
                         ids=["41x25", "one_trial", "one_step"])
def test_mc_ragged_shapes_match_reference(trials, horizon):
    _assert_matches_reference(
        McConfig(trials=trials, horizon=horizon, seed=11), SCENARIO_KINDS)


def _recorded_readings(monkeypatch):
    """Record the displacements of each reading made by run_monte_carlo,
    per scenario kind, at its reading seam."""
    seen = {}

    def recording(scenario, p, noise, out):
        seen.setdefault(scenario.kind, []).append(np.array(p, copy=True))
        return read_sensor(scenario, p, noise, out)

    read_sensor = bench._read_sensor
    monkeypatch.setattr(bench, "_read_sensor", recording)
    return seen


def _recorded_draws(monkeypatch):
    """Record, per scenario kind, the state of its generator before each of
    run_monte_carlo's draws at its draw seam, with the drawing thread."""
    seen = {}

    def recording(scenario, shape, rng, out):
        seen.setdefault(scenario.kind, []).append(
            (rng.bit_generator.state, threading.current_thread()))
        return draw_noise(scenario, shape, rng, out)

    draw_noise = bench._draw_noise
    monkeypatch.setattr(bench, "_draw_noise", recording)
    return seen


def test_mc_plants_match_parent_simulation(monkeypatch):
    seen = _recorded_readings(monkeypatch)
    cfg = McConfig(trials=37, horizon=23, seed=8)
    run_monte_carlo(cfg, [Scenario(kind=k) for k in SCENARIO_KINDS])
    for kind in SCENARIO_KINDS:
        got = np.vstack(seen[kind])
        want = _parent_plant(cfg, Scenario(kind=kind)).T
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_mc_sensor_streams_do_not_replay_the_plant(monkeypatch):
    # SeedSequence pads short entropy with zeros, so a stream seeded
    # [seed, 0] would draw what the plant's default_rng(seed) draws
    seen = _recorded_draws(monkeypatch)
    seed = 5
    run_monte_carlo(McConfig(trials=4, horizon=1, seed=seed),
                    [Scenario(kind=k) for k in SCENARIO_KINDS])
    first = {}
    for kind, [(state, _)] in seen.items():
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        first[kind] = rng.random(8)
    assert sorted(first) == sorted(SCENARIO_KINDS)
    draws = [np.random.default_rng(seed).random(8)] + list(first.values())
    for i, a in enumerate(draws):
        for b in draws[i + 1:]:
            assert not np.isin(a, b).any()


@pytest.mark.parametrize("trials, horizon, ahead_from", [
    (bench.DRAW_AHEAD_TRIALS - 1, 3, None),
    (bench.DRAW_AHEAD_TRIALS, 3, None),
    (bench.DRAW_AHEAD_TRIALS, 1, None),
    (1, 25, 1),
    (40, 1, 1),
], ids=["below_threshold", "at_threshold", "at_threshold_one_step",
        "ahead_one_trial", "ahead_one_step"])
def test_mc_draw_ahead_matches_reference(monkeypatch, trials, horizon,
                                         ahead_from):
    # the worker thread draws exactly what the caller would, in order
    if ahead_from is not None:
        monkeypatch.setattr(bench, "DRAW_AHEAD_TRIALS", ahead_from)
    seen = _recorded_draws(monkeypatch)
    cfg = McConfig(trials=trials, horizon=horizon, seed=11)
    threads = threading.active_count()
    reports = run_monte_carlo(cfg, [Scenario(kind=k) for k in SCENARIO_KINDS])
    assert threading.active_count() == threads
    ahead = trials >= bench.DRAW_AHEAD_TRIALS
    for kind in SCENARIO_KINDS:
        assert len(seen[kind]) == horizon
        assert all((thread is threading.main_thread()) != ahead
                   for _, thread in seen[kind])
    _assert_matches_reference(cfg, SCENARIO_KINDS, reports)


def test_mc_draws_x0_before_the_draw_ahead_worker_starts(monkeypatch):
    # once the draw-ahead context is entered its worker is the only user of
    # every generator, so the plant generator's initial-state draw (the one
    # without out=) must be logged before that context is entered
    log = []
    default_rng, draws_ahead = np.random.default_rng, bench._draws_ahead

    class Recording:
        """A generator whose method calls are logged with its role."""

        def __init__(self, rng, role):
            self.rng, self.role = rng, role

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def call(*args, **kwargs):
                log.append((self.role, name, "out" in kwargs))
                return method(*args, **kwargs)
            return call

    def recording_rng(seed=None):
        plant = not isinstance(seed, np.random.SeedSequence)
        return Recording(default_rng(seed), "plant" if plant else "sensor")

    @contextlib.contextmanager
    def logged(trials):
        log.append(("draws_ahead", "enter", None))
        with draws_ahead(trials) as ahead:
            yield ahead

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(bench, "_draws_ahead", logged)
    monkeypatch.setattr(bench, "DRAW_AHEAD_TRIALS", 1)
    run_monte_carlo(McConfig(trials=6, horizon=4, seed=3),
                    [Scenario(kind=k) for k in SCENARIO_KINDS])
    plant = [i for i, entry in enumerate(log) if entry[0] == "plant"]
    assert log[plant[0]] == ("plant", "standard_normal", False)
    assert len(plant) == 4 and all(log[i][2] for i in plant[1:])
    assert plant[0] < log.index(("draws_ahead", "enter", None))


def test_mc_draw_ahead_holds_under_thread_switching():
    # the worker refills one slot of draws while the caller reads the
    # other; three passes at once (six threads on the cores there are),
    # switching threads every microsecond, must still each draw and read
    # exactly what the reference does
    cfg = McConfig(trials=bench.DRAW_AHEAD_TRIALS, horizon=6, seed=13)
    results = [None] * 3

    def run(k):
        results[k] = run_monte_carlo(
            cfg, [Scenario(kind=kind) for kind in SCENARIO_KINDS])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for th in runs:
            th.start()
        for th in runs:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in runs)
    assert all(reports is not None for reports in results)
    for reports in results:
        _assert_matches_reference(cfg, SCENARIO_KINDS, reports)


def test_mc_draw_ahead_failure_in_the_arithmetic_propagates(monkeypatch):
    mean_pass = bench.mean_pass

    def failing(*args):
        for t, step in enumerate(mean_pass(*args)):
            if t == 3:
                raise RuntimeError("mean pass failed at t = 3")
            yield step

    monkeypatch.setattr(bench, "mean_pass", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="failed at t = 3"):
        run_monte_carlo(McConfig(trials=bench.DRAW_AHEAD_TRIALS, horizon=10),
                        [Scenario(kind=k) for k in SCENARIO_KINDS])
    assert threading.active_count() == threads


def test_mc_draw_ahead_out_of_memory_writes_nothing(monkeypatch, tmp_path,
                                                    capsys):
    draw_noise, workers, calls = bench._draw_noise, set(), []

    def exhausted(scenario, shape, rng, out):
        # the third step's outlier draw fails
        workers.add(threading.current_thread())
        calls.append(scenario.kind)
        if calls.count("outlier") == 3:
            raise MemoryError
        return draw_noise(scenario, shape, rng, out)

    monkeypatch.setattr(bench, "_draw_noise", exhausted)
    threads = threading.active_count()
    out = tmp_path / "out"
    rc = main(["bench", "--trials", str(bench.DRAW_AHEAD_TRIALS),
               "--horizon", "10", "--out", str(out)])
    assert rc == 3
    assert "out of memory" in capsys.readouterr().err
    assert not out.exists()
    assert threading.active_count() == threads
    assert threading.main_thread() not in workers


def test_mc_memory_does_not_grow_with_horizon():
    # the pass holds (trials x n)-sized arrays per scenario and filter, and
    # horizon-sized MSE rows: no (trials x horizon) array.  A small first
    # run keeps the first call's lazy imports out of the peaks.
    M = 10000
    scenarios = [Scenario(kind=k) for k in SCENARIO_KINDS]
    run_monte_carlo(McConfig(trials=2, horizon=2), scenarios)
    peaks = []
    for N in (100, 400):
        tracemalloc.start()
        try:
            run_monte_carlo(McConfig(trials=M, horizon=N, seed=5), scenarios)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.5e6
    assert max(peaks) < 8 * M * 100


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
