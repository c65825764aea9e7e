"""Mass-spring-damper Monte-Carlo benchmark.

Generates trajectories from the physical (continuous-time, sampled) plant,
corrupts the displacement sensor with one of four fault scenarios, runs the
configured filters designed on the simpler nominal model, and reports the
average displacement mean-squared error over trials.
"""

import contextlib
import functools
import hashlib
import itertools
import json
import numpy as np
from dataclasses import dataclass, field

from .model import MEASUREMENT_VAR, MsdParams, msd_discretize
from .filters import FilterConfig, covariance_schedules, mean_pass

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
    The law is its draw half, _draw_noise, followed by its reading half,
    _read_sensor; run_monte_carlo calls the two halves apart.
    """
    p = np.asarray(p, dtype=float)
    noise = _draw_noise(scenario, p.shape, rng,
                        _noise_buffers(scenario, p.shape))
    # [()] turns the 0-d result of a scalar p into a scalar
    return _read_sensor(scenario, p, noise, np.empty(p.shape))[()]


def _noise_buffers(scenario, shape):
    """The arrays _draw_noise fills for one reading of the given shape: a
    uniform and a standard normal for outlier, none for uniform (whose
    Generator.uniform has no ``out=``), one standard normal otherwise."""
    count = {"uniform": 0, "outlier": 2}.get(scenario.kind, 1)
    return [np.empty(shape) for _ in range(count)]


def _draw_noise(scenario, shape, rng, out):
    """The draw half of sample_measurement: the scenario's raw draws for
    readings of the given shape, made from ``rng`` into ``out`` (from
    _noise_buffers); returns them.  It reads no state, only the
    generator."""
    if scenario.kind == "uniform":
        return [rng.uniform(UNIFORM_LO, UNIFORM_HI, shape)]
    if scenario.kind == "outlier":
        rng.random(out=out[0])
    rng.standard_normal(out=out[-1])
    return out


def _read_sensor(scenario, p, noise, out):
    """The reading half of sample_measurement: writes the readings of the
    displacements p from the draws ``noise`` of _draw_noise to ``out`` and
    returns it; the draws are overwritten.  Each reading is computed with
    the operations, in the order, of p + DRIFT_MEAN + sd * g (drift),
    p + U (uniform), where(|p + sd * g| < DEAD_ZONE, 0, p + sd * g)
    (deadzone), p + sqrt(var) * g (outlier) and p + sd * g (nominal)."""
    kind, g = scenario.kind, noise[-1]
    if kind == "uniform":
        return np.add(p, g, out=out)
    if kind == "outlier":
        # var, then sqrt(var), in place of the uniforms that picked it
        var, pick = noise[0], noise[0] < MIXTURE_WEIGHT
        var.fill(OUTLIER_FACTOR * BASE_R)
        var[pick] = BASE_R
        np.multiply(np.sqrt(var, out=var), g, out=g)
    else:
        np.multiply(np.sqrt(BASE_R), g, out=g)
    if kind == "drift":
        np.add(p, DRIFT_MEAN, out=out)
        return np.add(out, g, out=out)
    np.add(p, g, out=out)
    if kind == "deadzone":
        out[np.abs(out, out=g) < DEAD_ZONE] = 0.0
    return out


@dataclass
class McConfig:
    """Monte-Carlo benchmark configuration; ``filters`` are kf and urkf at
    the budget ``c``, which must be positive and finite (ConfigError)."""

    trials: int = 1000
    horizon: int = 200
    seed: int = 0
    c: float = 0.5
    filters: dict = field(init=False)

    def __post_init__(self):
        self.filters = {"kf": FilterConfig(kind="kf"),
                        "urkf": FilterConfig(kind="urkf", c=self.c)}
        if self.trials < 1 or self.horizon < 1:
            raise BenchError("trials and horizon must be at least 1")
        if self.seed < 0:
            raise BenchError(f"seed must be nonnegative, got {self.seed}")

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


# From this many trials run_monte_carlo makes its draws on a worker thread,
# one step ahead of the arithmetic; below it both threads are bound by
# Python overhead and the handoff costs more than the overlap saves.
DRAW_AHEAD_TRIALS = 2000


@contextlib.contextmanager
def _draws_ahead(trials):
    """Yield ``ahead(fn, *args)``, which returns a function that waits for
    and returns fn(*args).  From DRAW_AHEAD_TRIALS trials on, fn starts at
    once on one worker thread, which the context joins on exit; below,
    fn runs in the caller when its value is asked for."""
    if trials < DRAW_AHEAD_TRIALS:
        yield functools.partial
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield lambda fn, *args: pool.submit(fn, *args).result


def run_monte_carlo(cfg, scenarios):
    """Run the benchmark for each scenario; one MseReport each, in order.

    The plant trajectories come from the continuous-time generator (sampled
    exactly) for the fault scenarios, and from the nominal discrete model
    itself for the 'nominal' control scenario, where the standard Kalman
    filter is provably optimal.  All filters are designed on the nominal
    model; their gain schedules are data-independent and computed once per
    call, so the trial loop is fully vectorized over trials.

    One pass over time steps the plants, the sensors and the filters
    together, and reduces each step's MSE as it goes, so no array spans
    trials x horizon.  The plants draw from ``default_rng(cfg.seed)``: the
    initial states, then one (trials, n) noise draw per step, which both
    plants share.  Each scenario draws its readings, step by step, from its
    own generator, seeded with ``cfg.seed`` and spawn key
    ``SCENARIO_KINDS.index(kind)``, so its report does not depend on the
    order or subset of ``scenarios``.

    No draw depends on a state, so from DRAW_AHEAD_TRIALS trials on a
    worker thread draws each step's plant noise and raw sensor noise
    (_draw_noise) one step ahead, into the other of two slots of buffers,
    while this thread computes the current step's readings (_read_sensor),
    filter steps and MSE.  The worker starts after the initial states are
    drawn and is then the only user of every generator; it makes the same
    calls in the same order, so the reports do not depend on whether it
    runs, on the core count or on the thread scheduling.
    """
    nominal, Qw = msd_discretize(MSD)
    n = nominal.n
    M, N = cfg.trials, cfg.horizon
    P0 = INIT_COV_SCALE * np.eye(n)
    # (N, filters, n, m): every filter runs in one state-major mean pass,
    # with the gains of one schedule stack
    gains = covariance_schedules(nominal, list(cfg.filters.values()), P0,
                                 N - 1).gains.swapaxes(0, 1)
    # both plants have the design model's A; the control plant is exactly
    # the design model, the other draws the physical noise Qw
    control = [s.kind == "nominal" for s in scenarios]
    chol = {c: np.linalg.cholesky((nominal.Q if c else Qw)
                                  + 1e-15 * np.eye(n)) for c in set(control)}
    S, F = len(scenarios), len(cfg.filters)
    rng = np.random.default_rng(cfg.seed)
    streams = [np.random.default_rng(np.random.SeedSequence(
        cfg.seed, spawn_key=(SCENARIO_KINDS.index(s.kind),)))
        for s in scenarios]
    # state-major (n, trials) plants, from (trials, n) draws
    x0 = np.linalg.cholesky(P0) @ rng.standard_normal((M, n)).T
    x = dict.fromkeys(chol, x0)

    def draw(t, slot):
        """Step t's draws into one of the two slots: the plants' (trials, n)
        noise (at t > 0) and each scenario's raw sensor noise."""
        plant, buffers = slot
        if t:
            rng.standard_normal(out=plant)
        return plant, [_draw_noise(s, (M,), stream, out) for s, stream, out
                       in zip(scenarios, streams, buffers)]

    slots = [(np.empty((M, n)), [_noise_buffers(s, (M,)) for s in scenarios])
             for _ in range(2)]
    # the scenarios' mean passes share one zero prior (each keeps its prior
    # for the whole pass) and read each step's readings from their row,
    # rewritten before the step; each scenario's squared errors are reduced
    # to its MSE entries in turn
    prior = np.zeros((F, n, M))
    rows = np.empty((S, 1, M))
    passes = [mean_pass(nominal, gains, prior, itertools.repeat(row))
              for row in rows]
    err = np.empty((F, M))
    mse = np.empty((N, S, F))
    with _draws_ahead(M) as ahead:
        pending = ahead(draw, 0, slots[0])
        for t in range(N):
            plant, noise = pending()
            if t + 1 < N:
                pending = ahead(draw, t + 1, slots[(t + 1) % 2])
            if t:
                z = plant.T
                x = {c: nominal.A @ xc + chol[c] @ z for c, xc in x.items()}
            for i, (c, scenario, means, drawn) in enumerate(
                    zip(control, scenarios, passes, noise)):
                p = x[c][0]     # the displacement, the one state measured
                _read_sensor(scenario, p, drawn, rows[i, 0])
                x_f, _ = next(means)
                np.subtract(x_f[:, 0], p, out=err)
                np.square(err, out=err).sum(axis=-1, out=mse[t, i])
    mse /= M
    reports = []
    for i, scenario in enumerate(scenarios):
        mse_t = dict(zip(cfg.filters, mse[:, i].T.copy()))
        reports.append(MseReport(
            scenario=scenario.kind,
            mse_t=mse_t,
            time_averaged={k: float(v.mean()) for k, v in mse_t.items()},
            trials=M, horizon=N, seed=cfg.seed,
            config_digest=cfg.digest(),
        ))
    return reports
