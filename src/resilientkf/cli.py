"""Command-line front end.

Subcommands:

- ``bounds``     tolerance bounds (c_max or theta_max) for a model file
- ``worstcase``  error-variance-vs-time series of several filters under the
                 worst-case model, per budget
- ``filter``     run a configured filter over a measurement CSV
- ``bench``      the mass-spring-damper Monte-Carlo benchmark
- ``lf``         build and/or simulate the hostile observation-channel model

Every artifact is written atomically (temp file + rename) and accompanied
by a ``<name>.manifest.json`` recording the command, configuration hash,
seed, outputs and numpy version, so reruns are verifiable; numpy is the
only dependency.  Exit codes: 0 success, 2 validation error (including
non-finite or out-of-range inputs and unknown filter names), 3 numerical
failure, 4 I/O error.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .model import (
    GaussianBelief,
    ModelError,
    belief_from_dict,
    load_json,
    load_model,
)
from .numerics import NumericsError
from .filters import (
    ConfigError,
    FilterConfig,
    FilterError,
    covariance_schedule,
    mean_pass,
)
from .least_favorable import (
    SynthesisError,
    assemble_lf,
    backward_pass,
    error_cov_recursion,
    simulate_lf,
)
from .stability import StabilityError, c_max, theta_max
from .bench import BenchError, McConfig, Scenario, run_monte_carlo

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _atomic_write(path, text):
    """Write text to path via a temp file in the same directory + rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path, header, lead, block):
    """Write ``header``, then per row of the 2-D float array ``block`` its
    index columns ``lead[i]`` (already joined) and its floats as ``repr``
    writes them, the text ``csv.writer`` gives a float."""
    lines = [",".join(header)]
    lines += [f"{i},{','.join(map(repr, row.tolist()))}"
              for i, row in zip(lead, np.asarray(block, dtype=float))]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_manifest(args, outputs, base=None, **record):
    """Write ``<base>.manifest.json`` for the command of the parsed ``args``
    (``base`` defaults to ``--out``).  Its config hash covers every argument
    but ``--out``; ``record`` adds fields such as the detected schedule
    cycles."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True, default=str).encode()).hexdigest()[:16]
    manifest = {
        "command": args.command,
        "config_hash": digest,
        "tool_version": __version__,
        "numpy": np.__version__,
        "seed": getattr(args, "seed", None),
        "outputs": outputs,
        **record,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = (args.out if base is None else base) + ".manifest.json"
    _atomic_write(path, json.dumps(manifest, indent=2) + "\n")


def _load_init(args, model):
    if not args.init:
        return GaussianBelief(mean=np.zeros(model.n), cov=np.eye(model.n))
    init = belief_from_dict(load_json(args.init))
    if init.mean.shape != (model.n,):
        raise ModelError(f"initial belief has shape {init.mean.shape}, "
                         f"the model has {model.n} states")
    return init


# ---------------------------------------------------------------------------
# Subcommands


def cmd_bounds(args):
    model = load_model(args.model)
    if args.k < model.n:
        raise ModelError(
            f"--k {args.k} must be at least the state dimension {model.n}")
    if args.q < 0:
        raise ModelError(f"--q {args.q} must be nonnegative")
    if args.mode == "cmax":
        report = c_max(model, k=args.k, q=args.q)
    else:
        report = theta_max(model, k=args.k)
    _atomic_write(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    _write_manifest(args, [args.out])
    return EXIT_OK


# worstcase --filters name -> the family whose gains it is evaluated with:
# the plain filter, the update side (the adversary's own schedule) or the
# prediction side; the budget kind picks the budgeted or fixed-theta member
_WORSTCASE_FAMILY = {"kf": "kf", "urkf": "update", "ursf": "update",
                     "prkf": "prediction", "prsf": "prediction"}


def cmd_worstcase(args):
    model = load_model(args.model)
    budgets = []
    for c in args.c or []:
        budgets.append(("c", float(c)))
    for th in args.theta or []:
        budgets.append(("theta", float(th)))
    if not budgets:
        raise ModelError("worstcase requires at least one --c or --theta")
    filters = [f.strip() for f in args.filters.split(",") if f.strip()]
    if not filters:
        raise ModelError("--filters names no filter")
    if len(set(filters)) < len(filters):
        raise ModelError(f"--filters repeats a filter: {args.filters!r}")
    unknown = [f for f in filters if f not in _WORSTCASE_FAMILY]
    if unknown:
        raise ModelError(f"unknown --filters name(s): {', '.join(unknown)}; "
                         f"expected {', '.join(_WORSTCASE_FAMILY)}")
    N = args.horizon
    if N < 0:
        raise ModelError(f"--horizon must be nonnegative, got {N}")
    # the prediction-side comparator and the adversary's update-side filter
    # per budget; building them validates the budget
    kinds = {"c": ("prkf", "urkf"), "theta": ("prsf", "ursf")}
    configs = [[FilterConfig(kind=k, **{kind: val}) for k in kinds[kind]]
               for kind, val in budgets]
    families = {_WORSTCASE_FAMILY[name] for name in filters}
    P0 = np.eye(model.n)
    # the kf schedule does not depend on the budget
    kf = (covariance_schedule(model, FilterConfig(kind="kf"), P0, N)
          if "kf" in families else None)
    lead, blocks, cycles = [], [], []
    for (kind, val), (prediction, update) in zip(budgets, configs):
        fwd = covariance_schedule(model, update, P0, N)
        schedules = {"kf": kf, "update": fwd}
        if "prediction" in families:
            schedules["prediction"] = covariance_schedule(
                model, prediction, P0, N)
        cycles.append({"budget": [kind, val],
                       **{family: sched.cycle for family, sched
                          in schedules.items() if sched is not None}})
        bwd = backward_pass(fwd, model) if args.channel else None
        traces = [np.trace(error_cov_recursion(
            model, schedules[_WORSTCASE_FAMILY[name]].gains, fwd, bwd)
            [:, :model.n, :model.n], axis1=1, axis2=2) for name in filters]
        blocks.append(np.column_stack([fwd.thetas] + traces))
        lead += [f"{kind},{val!r},{t}" for t in range(N + 1)]
    _write_csv(args.out, ["budget_kind", "budget", "t", "theta"]
               + [f"var_{f}" for f in filters], lead, np.vstack(blocks))
    _write_manifest(args, [args.out], cycles=cycles)
    return EXIT_OK


def cmd_filter(args):
    model = load_model(args.model)
    fc = FilterConfig.from_dict(load_json(args.config))
    init = _load_init(args, model)
    try:
        with open(args.data, encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:
        raise ModelError(f"data file {args.data}: {e}")
    ys = []
    for i, row in enumerate(rows):
        if not row or (i == 0 and any(not _is_number(v) for v in row)):
            continue  # skip blank lines and a header row
        if len(row) != model.m:
            raise ModelError(
                f"data line {i + 1}: expected {model.m} columns, got {len(row)}")
        try:
            y = [float(v) for v in row]
        except ValueError:
            raise ModelError(f"data line {i + 1}: non-numeric value")
        if not all(map(math.isfinite, y)):
            raise ModelError(f"data line {i + 1}: non-finite value")
        ys.append(y)
    T, n, m = len(ys), model.n, model.m
    sched = covariance_schedule(model, fc, init.cov, T - 1)
    means = mean_pass(model, sched.gains, init.mean, np.asarray(ys))
    header = (["t", "theta"]
              + [f"gain_{i}_{j}" for i in range(n) for j in range(m)]
              + [f"mean_filt_{i}" for i in range(n)]
              + [f"mean_pred_{i}" for i in range(n)]
              + [f"cov_filt_{i}_{j}" for i in range(n) for j in range(n)])
    block = np.hstack([np.reshape(sched.thetas, (T, 1)),
                       np.reshape(sched.gains, (T, n * m)),
                       np.reshape(list(means), (T, 2 * n)),
                       np.reshape(sched.cov_filt, (T, n * n))])
    _write_csv(args.out, header, map(str, range(T)), block)
    _write_manifest(args, [args.out], cycle=sched.cycle)
    return EXIT_OK


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_bench(args):
    cfg = McConfig(trials=args.trials, horizon=args.horizon,
                   seed=args.seed, c=args.c)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    # validate the whole list before any write
    if not scenarios:
        raise BenchError("--scenarios names no scenario")
    if len(set(scenarios)) < len(scenarios):
        raise BenchError(f"--scenarios repeats a scenario: {args.scenarios!r}")
    runs = [Scenario(kind=kind) for kind in scenarios]
    outputs = []
    os.makedirs(args.out, exist_ok=True)
    for rep in run_monte_carlo(cfg, runs):
        base = os.path.join(args.out, f"bench_{rep.scenario}")
        names = sorted(rep.mse_t)
        _write_csv(base + ".csv", ["t"] + names, map(str, range(rep.horizon)),
                   np.column_stack([rep.mse_t[nm] for nm in names]))
        _atomic_write(base + ".json", json.dumps(rep.to_dict(), indent=2) + "\n")
        outputs += [base + ".csv", base + ".json"]
    _write_manifest(args, outputs, base=os.path.join(args.out, "bench"))
    return EXIT_OK


def cmd_lf(args):
    model = load_model(args.model)
    # the adversary's update-side filter; building it validates the budget
    config = FilterConfig(kind="urkf" if args.c is not None else "ursf",
                          c=args.c, theta=args.theta)
    if args.horizon < 0 or args.trajectories < 1 or args.seed < 0:
        raise ModelError("lf requires --horizon >= 0, --trajectories >= 1 "
                         "and --seed >= 0")
    # validated before any output is written
    init = _load_init(args, model)
    fwd = covariance_schedule(model, config, init.cov, args.horizon)
    bwd = backward_pass(fwd, model)
    lf = assemble_lf(fwd, bwd, model)
    outputs = []
    if args.action in ("build", "both"):
        payload = {
            "n": lf.n, "m": lf.m, "N": lf.N,
            "Xi": lf.Xi.tolist(),
            "Abar": lf.Abar.tolist(),
            "Bbar": lf.Bbar.tolist(),
            "Cbar": lf.Cbar.tolist(),
            "Dbar": lf.Dbar.tolist(),
        }
        path = args.out + ".json" if args.action == "both" else args.out
        _atomic_write(path, json.dumps(payload) + "\n")
        outputs.append(path)
    if args.action in ("simulate", "both"):
        etas, X, Y = simulate_lf(lf, init, args.seed, n_traj=args.trajectories)
        path = args.out + ".csv" if args.action == "both" else args.out
        header = (["traj", "t"]
                  + [f"x_{i}" for i in range(model.n)]
                  + [f"y_{i}" for i in range(model.m)]
                  + [f"eta_{i}" for i in range(3 * model.n)])
        block = np.concatenate([X, Y, etas], axis=2)
        _write_csv(path, header,
                   [f"{r},{t}" for r in range(block.shape[0])
                    for t in range(block.shape[1])],
                   block.reshape(-1, block.shape[2]))
        outputs.append(path)
    _write_manifest(args, outputs, cycle=fwd.cycle)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point


def build_parser():
    p = argparse.ArgumentParser(
        prog="resilientkf",
        description="Robust linear-Gaussian state estimation toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute tolerance bounds")
    b.add_argument("--model", required=True)
    b.add_argument("--mode", choices=("cmax", "thetamax"), required=True)
    b.add_argument("--k", type=int, default=10)
    b.add_argument("--q", type=int, default=20)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bounds)

    w = sub.add_parser("worstcase", help="worst-case variance series")
    w.add_argument("--model", required=True)
    w.add_argument("--c", action="append", type=float,
                   help="budget tolerance (repeatable)")
    w.add_argument("--theta", action="append", type=float,
                   help="fixed risk parameter (repeatable)")
    w.add_argument("--horizon", type=int, default=400)
    w.add_argument("--filters", default="kf,prkf,urkf")
    w.add_argument("--channel", action="store_true",
                   help="evaluate under the observation-channel adversary "
                        "instead of the saddle-achieving one")
    w.add_argument("--out", required=True)
    w.set_defaults(func=cmd_worstcase)

    f = sub.add_parser("filter", help="run a filter over a data CSV")
    f.add_argument("--model", required=True)
    f.add_argument("--config", required=True)
    f.add_argument("--data", required=True)
    f.add_argument("--init", help="JSON initial belief {mean, cov}")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_filter)

    be = sub.add_parser("bench", help="mass-spring-damper benchmark")
    be.add_argument("--trials", type=int, default=200)
    be.add_argument("--horizon", type=int, default=200)
    be.add_argument("--c", type=float, default=0.5)
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--scenarios",
                    default="drift,uniform,deadzone,outlier,nominal")
    be.add_argument("--out", required=True, help="output directory")
    be.set_defaults(func=cmd_bench)

    lf = sub.add_parser("lf", help="build/simulate the hostile channel model")
    lf.add_argument("action", choices=("build", "simulate", "both"))
    lf.add_argument("--model", required=True)
    lf.add_argument("--c", type=float)
    lf.add_argument("--theta", type=float)
    lf.add_argument("--horizon", type=int, default=200)
    lf.add_argument("--trajectories", type=int, default=1)
    lf.add_argument("--seed", type=int, default=0)
    lf.add_argument("--init", help="JSON initial belief {mean, cov}")
    lf.add_argument("--out", required=True)
    lf.set_defaults(func=cmd_lf)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, BenchError, ConfigError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, FilterError, SynthesisError, StabilityError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
