"""Mass-spring-damper benchmark walkthrough.

Runs the Monte-Carlo sensor-fault benchmark on a discretized
mass-spring-damper plant.  Four fault scenarios (sensor drift, uniform
noise, dead zone, impulsive outliers) plus a fault-free control run.
The robust filter should win whenever the sensor misbehaves and lose
(slightly) when the nominal model is exact.
"""

from resilientkf.bench import McConfig, Scenario, run_monte_carlo


def main():
    cfg = McConfig(trials=500, horizon=200, seed=1234)
    print(f"trials={cfg.trials} horizon={cfg.horizon} "
          f"filters={sorted(cfg.filters)}")
    print()
    print(f"{'scenario':10s} {'kf':>10s} {'urkf':>10s}  winner")
    kinds = ("drift", "uniform", "deadzone", "outlier", "nominal")
    for kind, rep in zip(kinds, run_monte_carlo(
            cfg, [Scenario(kind=k) for k in kinds])):
        kf = rep.time_averaged["kf"]
        ur = rep.time_averaged["urkf"]
        winner = "urkf" if ur < kf else "kf"
        print(f"{kind:10s} {kf:10.5f} {ur:10.5f}  {winner}")


if __name__ == "__main__":
    main()
