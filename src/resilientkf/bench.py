"""Mass-spring-damper Monte-Carlo benchmark.

Generates trajectories from the physical (continuous-time, sampled) plant,
corrupts the displacement sensor with one of four fault scenarios, runs the
configured filters designed on the simpler nominal model, and reports the
average displacement mean-squared error over trials.  Also provides the
truth-assisted oracle sweep that picks the best tolerance per realization.
"""

import hashlib
import json
import numpy as np
from dataclasses import dataclass, field

from .model import MsdParams, msd_discretize, validate
from .filters import FilterConfig, covariance_schedule, mean_pass

SCENARIO_KINDS = ("drift", "uniform", "deadzone", "outlier", "nominal")


class BenchError(ValueError):
    """Raised on invalid benchmark configuration."""


@dataclass
class Scenario:
    """Sensor-uncertainty scenario for the displacement measurement.

    - drift: additive Gaussian noise with a constant bias,
      noise ~ N(drift_mean, base_R)
    - uniform: additive uniform noise on [uniform_lo, uniform_hi]
    - deadzone: the noisy reading p + N(0, base_R) is zeroed when its
      magnitude falls below dead_zone
    - outlier: Gaussian mixture, N(0, base_R) with probability
      mixture_weight, else N(0, outlier_factor * base_R)
    - nominal: exact N(0, base_R) sensor (control case)
    """

    kind: str
    base_R: float = 0.25
    drift_mean: float = 0.1
    uniform_lo: float = -0.9
    uniform_hi: float = 1.1
    dead_zone: float = 0.1
    mixture_weight: float = 0.9
    outlier_factor: float = 5.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise BenchError(f"unknown scenario kind {self.kind!r}")
        if not 0.0 <= self.mixture_weight <= 1.0:
            raise BenchError("mixture weight must lie in [0, 1]")
        if self.base_R <= 0:
            raise BenchError("base_R must be positive")


def sample_measurement(scenario, p, rng):
    """Draw sensor readings for displacement(s) p under the scenario.

    Vectorized: p may be a scalar or an array; the output has p's shape.
    """
    p = np.asarray(p, dtype=float)
    sd = np.sqrt(scenario.base_R)
    if scenario.kind == "drift":
        return p + scenario.drift_mean + sd * rng.standard_normal(p.shape)
    if scenario.kind == "uniform":
        return p + rng.uniform(scenario.uniform_lo, scenario.uniform_hi, p.shape)
    if scenario.kind == "deadzone":
        z = p + sd * rng.standard_normal(p.shape)
        return np.where(np.abs(z) < scenario.dead_zone, 0.0, z)
    if scenario.kind == "outlier":
        var = np.where(rng.random(p.shape) < scenario.mixture_weight,
                       scenario.base_R,
                       scenario.outlier_factor * scenario.base_R)
        return p + np.sqrt(var) * rng.standard_normal(p.shape)
    # nominal
    return p + sd * rng.standard_normal(p.shape)


@dataclass
class McConfig:
    """Monte-Carlo benchmark configuration."""

    trials: int = 1000
    horizon: int = 200
    seed: int = 0
    filters: dict = field(default_factory=lambda: {
        "kf": FilterConfig(kind="kf"),
        "urkf": FilterConfig(kind="urkf", c=0.5),
    })
    measurement_var: float = 0.25
    init_cov_scale: float = 0.05
    msd: MsdParams = field(
        default_factory=lambda: MsdParams(force_var=0.9, disturbance_var=0.09))

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 1:
            raise BenchError("trials and horizon must be at least 1")

    def digest(self):
        """Stable hash of the configuration for report metadata."""
        payload = {
            "trials": self.trials, "horizon": self.horizon, "seed": self.seed,
            "measurement_var": self.measurement_var,
            "init_cov_scale": self.init_cov_scale,
            "msd": vars(self.msd),
            "filters": {k: {"kind": f.kind, "c": f.c, "theta": f.theta}
                        for k, f in sorted(self.filters.items())},
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class MseReport:
    """Per-time and time-averaged displacement MSE, per filter."""

    scenario: str
    mse_t: dict            # name -> ndarray of length horizon
    time_averaged: dict    # name -> float
    trials: int
    horizon: int
    seed: int
    config_digest: str

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "trials": self.trials,
            "horizon": self.horizon,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "time_averaged": self.time_averaged,
            "mse_t": {k: v.tolist() for k, v in self.mse_t.items()},
        }


def run_monte_carlo(cfg, scenarios):
    """Run the benchmark for each scenario; one MseReport each, in order.

    The plant trajectories come from the continuous-time generator (sampled
    exactly) for the fault scenarios, and from the nominal discrete model
    itself for the 'nominal' control scenario, where the standard Kalman
    filter is provably optimal.  All filters are designed on the nominal
    model; their gain schedules are data-independent and computed once per
    call, so the trial loop is fully vectorized over trials.

    Every scenario sees the draws of its own ``default_rng(cfg.seed)``: the
    plant trajectories, then its sensor readings.  So each plant is simulated
    once, and the generator state after it is restored before each of that
    plant's scenarios draws its readings.
    """
    nominal, actual = msd_discretize(cfg.msd, cfg.measurement_var)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    P0 = cfg.init_cov_scale * np.eye(n)
    schedules = {name: covariance_schedule(nominal, fc, P0, N - 1).gains
                 for name, fc in cfg.filters.items()}

    # one plant at a time, so only one plant's positions are held
    by_plant = {}
    for i, scenario in enumerate(scenarios):
        by_plant.setdefault(scenario.kind == "nominal", []).append(i)
    reports = [None] * len(scenarios)
    for control, members in by_plant.items():
        if control:
            # the plant is exactly the nominal design model
            A = nominal.A
            Lw = np.linalg.cholesky(nominal.Q + 1e-15 * np.eye(n))
        else:
            A, Lw = actual.A, actual.noise_chol()
        rng = np.random.default_rng(cfg.seed)
        # only the displacement is measured and scored; pos[t] over trials
        x = rng.standard_normal((M, n)) @ np.linalg.cholesky(P0).T
        pos = np.zeros((N, M))
        for t in range(N):
            pos[t] = x[:, 0]
            x = x @ A.T + rng.standard_normal((M, n)) @ Lw.T
        after_plant = rng.bit_generator.state
        for i in members:
            rng.bit_generator.state = after_plant
            # pos.T keeps the (trials, horizon) draw order of the readings
            ys = np.ascontiguousarray(
                sample_measurement(scenarios[i], pos.T, rng).T)[:, :, None]
            mse_t = {}
            for name, gains in schedules.items():
                means = mean_pass(nominal, gains, np.zeros((M, n)), ys)
                mse_t[name] = np.array([np.mean((x_f[:, 0] - p) ** 2)
                                        for (x_f, _), p in zip(means, pos)])
            del ys
            reports[i] = MseReport(
                scenario=scenarios[i].kind,
                mse_t=mse_t,
                time_averaged={k: float(v.mean()) for k, v in mse_t.items()},
                trials=M, horizon=N, seed=cfg.seed,
                config_digest=cfg.digest(),
            )
        del pos
    return reports


def default_oracle_grid(c_upper, points=10):
    """Ten log-spaced tolerance values spanning under- to over-robust."""
    hi = min(float(c_upper), 2.0)
    if hi <= 1e-3:
        raise BenchError("oracle grid upper endpoint must exceed 1e-3")
    return np.geomspace(1e-3, hi, points)


def oracle_sweep(model, kind, grid, observations, truth, init):
    """Truth-assisted tolerance selection for a budgeted filter family.

    Runs the filter at every tolerance in ``grid`` on the given realization
    and returns (best tolerance, per-tolerance MSE array), where MSE is the
    mean squared filtered state error against ``truth``.  Ties break toward
    the smallest tolerance.
    """
    validate(model)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise BenchError("oracle grid is empty")
    truth = np.asarray(truth, dtype=float)
    observations = np.asarray(observations, dtype=float)
    if len(truth) != len(observations):
        raise BenchError("oracle sweep requires truth aligned with observations")
    mses = np.zeros(grid.size)
    for i in range(grid.size):
        c = grid[i]
        config = FilterConfig(kind=kind, c=float(c))
        sched = covariance_schedule(model, config, init.cov,
                                    len(observations) - 1)
        means = mean_pass(model, sched.gains, init.mean, observations)
        est = np.array([x_f for x_f, _ in means])
        mses[i] = float(np.mean(np.sum((est - truth) ** 2, axis=1)))
    # smallest tolerance wins ties
    best = min(range(grid.size), key=lambda i: (mses[i], grid[i]))
    return float(grid[best]), mses
