"""Mass-spring-damper Monte-Carlo benchmark.

Generates trajectories from the physical (continuous-time, sampled) plant,
corrupts the displacement sensor with one of four fault scenarios, runs the
configured filters designed on the simpler nominal model, and reports the
average displacement mean-squared error over trials.
"""

import hashlib
import json
import numpy as np
from dataclasses import dataclass, field

from .model import MEASUREMENT_VAR, MsdParams, msd_discretize
from .filters import FilterConfig, covariance_schedule, mean_pass

SCENARIO_KINDS = ("drift", "uniform", "deadzone", "outlier", "nominal")

# The sensor of every scenario (see Scenario): noise variance, drift bias,
# uniform-noise interval, dead-zone half-width, and the outlier mixture's
# nominal weight and variance factor.
BASE_R = 0.25
DRIFT_MEAN = 0.1
UNIFORM_LO, UNIFORM_HI = -0.9, 1.1
DEAD_ZONE = 0.1
MIXTURE_WEIGHT = 0.9
OUTLIER_FACTOR = 5.0

# The plant of every benchmark run and the scale of its initial covariance.
MSD = MsdParams(force_var=0.9, disturbance_var=0.09)
INIT_COV_SCALE = 0.05


class BenchError(ValueError):
    """Raised on invalid benchmark configuration."""


@dataclass
class Scenario:
    """Sensor-uncertainty scenario for the displacement measurement.

    - drift: additive Gaussian noise with a constant bias,
      noise ~ N(DRIFT_MEAN, BASE_R)
    - uniform: additive uniform noise on [UNIFORM_LO, UNIFORM_HI]
    - deadzone: the noisy reading p + N(0, BASE_R) is zeroed when its
      magnitude falls below DEAD_ZONE
    - outlier: Gaussian mixture, N(0, BASE_R) with probability
      MIXTURE_WEIGHT, else N(0, OUTLIER_FACTOR * BASE_R)
    - nominal: exact N(0, BASE_R) sensor (control case)
    """

    kind: str

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise BenchError(f"unknown scenario kind {self.kind!r}")


def sample_measurement(scenario, p, rng):
    """Draw sensor readings for displacement(s) p under the scenario.

    Vectorized: p may be a scalar or an array; the output has p's shape.
    """
    p = np.asarray(p, dtype=float)
    sd = np.sqrt(BASE_R)
    if scenario.kind == "drift":
        return p + DRIFT_MEAN + sd * rng.standard_normal(p.shape)
    if scenario.kind == "uniform":
        return p + rng.uniform(UNIFORM_LO, UNIFORM_HI, p.shape)
    if scenario.kind == "deadzone":
        z = p + sd * rng.standard_normal(p.shape)
        return np.where(np.abs(z) < DEAD_ZONE, 0.0, z)
    if scenario.kind == "outlier":
        var = np.where(rng.random(p.shape) < MIXTURE_WEIGHT, BASE_R,
                       OUTLIER_FACTOR * BASE_R)
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

    def __post_init__(self):
        if self.trials < 1 or self.horizon < 1:
            raise BenchError("trials and horizon must be at least 1")

    def digest(self):
        """Stable hash of the configuration for report metadata."""
        payload = {
            "trials": self.trials, "horizon": self.horizon, "seed": self.seed,
            "measurement_var": MEASUREMENT_VAR,
            "init_cov_scale": INIT_COV_SCALE,
            "msd": vars(MSD),
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
    nominal, actual = msd_discretize(MSD)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    P0 = INIT_COV_SCALE * np.eye(n)
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

