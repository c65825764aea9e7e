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
only dependency.  A CSV file's text is streamed into the temp file one
block of ``_CSV_ROWS`` rows at a time, so a run holds one block of it,
never a whole output file's text.  Exit codes: 0 success, 2 validation error
(including non-finite or out-of-range inputs, unknown filter names and
arrays beyond the address space), 3 numerical failure or out of memory,
4 I/O error.
"""

import argparse
import csv
import functools
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
    covariance_schedules,
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


def _atomic_write(path, chunks):
    """Write the text ``chunks`` (an iterable of str, or one str) to path
    as they arrive, via a temp file in the same directory + rename; on any
    exception, raised by the write or by the iterable, the temp file is
    removed and path is left as it was."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# _write_csv formats and writes the floats of this many rows at a time; the
# distinct floats of a whole file take longer to find, and its text would
# make the run's peak memory grow with the file
_CSV_ROWS = 512


def _write_csv(path, header, lead, groups):
    """Write ``header``, then per row its index columns from the iterable
    ``lead`` (already joined) and the floats of that row of each 2-D array
    in ``groups`` (column groups, all with the same row count) as ``repr``
    writes them, the text ``csv.writer`` gives a float.

    Each block of ``_CSV_ROWS`` rows is written as soon as it is formatted.
    The recursions settle into cycles, so many floats repeat: each distinct
    float of a block is formatted once.  Distinct by its bits, not its
    value, which would merge 0.0 and -0.0.
    """
    def chunks():
        index = iter(lead)
        yield ",".join(header) + "\n"
        for i in range(0, len(groups[0]), _CSV_ROWS):
            b = np.concatenate([g[i:i + _CSV_ROWS] for g in groups], axis=1,
                               dtype=float)
            bits, inv = np.unique(b.view(np.int64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(float).tolist())),
                            dtype=object)
            # rows first: zip stops on them without taking one more index
            yield "".join([f"{j},{','.join(row)}\n" for row, j
                           in zip(text[inv.reshape(b.shape)].tolist(), index)])

    _atomic_write(path, chunks())


def _write_manifest(args, outputs, base=None, **record):
    """Write ``<base>.manifest.json`` for the command of the parsed ``args``
    (``base`` defaults to ``--out``).  Its config hash covers every argument
    but ``--out``, and the bytes of each input file; ``record`` adds fields
    such as the detected schedule cycles."""
    inputs = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    for k in ("model", "config", "data", "init"):
        if inputs.get(k) is not None:
            with open(inputs[k], "rb") as f:
                inputs[k] = [inputs[k], hashlib.sha256(f.read()).hexdigest()]
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


def _check_addressable(*dims):
    """Raise ModelError when a run whose arrays are bounded by
    ``math.prod(dims)`` floats needs more bytes than the address space
    holds: numpy can neither index nor allocate such an array."""
    floats = math.prod(dims)
    if 8 * floats > sys.maxsize:
        raise ModelError(f"the run needs arrays of {floats:.3g} floats, "
                         "more than the address space holds")


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
    # every window array, the (k m) x (k m) W and the (k n) x (k n) Lk
    # among them, is at most k (n + m) on each side
    side = args.k * (model.n + model.m)
    _check_addressable(side, side)
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
    # every per-step block of the recursions fits in (3n + m)^2 floats a
    # member; the error covariance holds the filters, and the schedule
    # stack its 2B + 1 members of 3n^2 + nm + 1 floats a step each, fewer
    # than B + 1 blocks
    _check_addressable(N + 2, (3 * model.n + model.m) ** 2,
                       max(len(budgets) + 1, len(filters)))
    # the prediction-side comparator and the adversary's update-side filter
    # per budget; building them validates the budget
    kinds = {"c": ("prkf", "urkf"), "theta": ("prsf", "ursf")}
    configs = [[FilterConfig(kind=k, **{kind: val}) for k in kinds[kind]]
               for kind, val in budgets]
    families = {_WORSTCASE_FAMILY[name] for name in filters}
    B = len(budgets)
    # one schedule stack: the B adversaries, the B comparators when a
    # prediction filter is asked for, and kf, whose schedule does not
    # depend on the budget, last
    members = [u for _, u in configs]
    if "prediction" in families:
        members += [p for p, _ in configs]
    if "kf" in families:
        members.append(FilterConfig(kind="kf"))
    stack = covariance_schedules(model, members, np.eye(model.n), N)
    fwd = stack.member(slice(B))
    try:
        bwd = backward_pass(fwd, model) if args.channel else None
    except SynthesisError as e:
        if e.member is None:
            raise
        kind, val = budgets[e.member]
        raise SynthesisError(f"budget {kind}={val!r}: {e}") from e
    lead, blocks, cycles = [], [], []
    for b, (kind, val) in enumerate(budgets):
        schedules = {"kf": stack.member(-1) if "kf" in families else None,
                     "update": fwd.member(b)}
        if "prediction" in families:
            schedules["prediction"] = stack.member(B + b)
        cycles.append({"budget": [kind, val],
                       **{family: sched.cycle for family, sched
                          in schedules.items() if sched is not None}})
        # the filters of one budget run as one stack; np.stack keeps the
        # schedules' gain layout
        gains = np.stack([schedules[_WORSTCASE_FAMILY[name]].gains
                          for name in filters])
        traces = [np.trace(pi[:, :model.n, :model.n], axis1=1, axis2=2)
                  for pi in error_cov_recursion(
                      model, gains, schedules["update"],
                      None if bwd is None else bwd.member(b))]
        blocks.append(np.column_stack([fwd.thetas[b]] + traces))
        lead += [f"{kind},{val!r},{t}" for t in range(N + 1)]
    _write_csv(args.out, ["budget_kind", "budget", "t", "theta"]
               + [f"var_{f}" for f in filters], lead, [np.vstack(blocks)])
    _write_manifest(args, [args.out], cycles=cycles)
    return EXIT_OK


def cmd_filter(args):
    model = load_model(args.model)
    fc = FilterConfig.from_dict(load_json(args.config))
    init = _load_init(args, model)
    ys = _read_data(args.data, model.m)
    T, n, m = len(ys), model.n, model.m
    sched = covariance_schedule(model, fc, init.cov, T - 1)
    means = np.empty((T, 2, n))
    for t, x in enumerate(mean_pass(model, sched.gains, init.mean, ys)):
        means[t] = x
    header = (["t", "theta"]
              + [f"gain_{i}_{j}" for i in range(n) for j in range(m)]
              + [f"mean_filt_{i}" for i in range(n)]
              + [f"mean_pred_{i}" for i in range(n)]
              + [f"cov_filt_{i}_{j}" for i in range(n) for j in range(n)])
    _write_csv(args.out, header, map(str, range(T)),
               [np.reshape(sched.thetas, (T, 1)),
                np.reshape(sched.gains, (T, n * m)),
                means.reshape(T, 2 * n),
                np.reshape(sched.cov_filt, (T, n * n))])
    _write_manifest(args, [args.out], cycle=sched.cycle)
    return EXIT_OK


def _read_data(path, m):
    """The rows of a ``filter --data`` CSV file as a (T, m) float array.

    Blank lines and a header row are skipped.  Each row is parsed as it is
    read and appended to one flat ``array('d')``, so the parse holds 8
    bytes a value, not a list of Python floats a row."""
    from array import array     # not at import: only filter reads data

    ys = array("d")
    try:
        with open(path, encoding="utf-8") as f:
            for i, row in enumerate(csv.reader(f)):
                if not row or (i == 0 and any(not _is_number(v) for v in row)):
                    continue  # skip blank lines and a header row
                if len(row) != m:
                    raise ModelError(f"data line {i + 1}: expected {m} "
                                     f"columns, got {len(row)}")
                try:
                    y = [float(v) for v in row]
                except ValueError:
                    raise ModelError(f"data line {i + 1}: non-numeric value")
                if not all(map(math.isfinite, y)):
                    raise ModelError(f"data line {i + 1}: non-finite value")
                ys.extend(y)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ModelError(f"data file {path}: {e}")
    return np.frombuffer(ys).reshape(-1, m)


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
    # the means are scenarios x filters x 2 x trials, and each filter's
    # schedule holds under 16 floats a step
    _check_addressable(len(runs), len(cfg.filters), 2, args.trials)
    _check_addressable(len(cfg.filters), 16, args.horizon + 2)
    reports = run_monte_carlo(cfg, runs)
    outputs = []
    os.makedirs(args.out, exist_ok=True)
    for rep in reports:
        base = os.path.join(args.out, f"bench_{rep.scenario}")
        names = sorted(rep.mse_t)
        _write_csv(base + ".csv", ["t"] + names, map(str, range(rep.horizon)),
                   [np.column_stack([rep.mse_t[nm] for nm in names])])
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
    simulate = args.action in ("simulate", "both")
    # every per-step block fits in (3n + m)^2 floats, per trajectory
    _check_addressable(args.horizon + 2, (3 * model.n + model.m) ** 2,
                       args.trajectories if simulate else 1)
    # validated before any output is written
    init = _load_init(args, model)
    fwd = covariance_schedule(model, config, init.cov, args.horizon)
    bwd = backward_pass(fwd, model)
    lf = assemble_lf(fwd, bwd, model)
    if simulate:
        etas, X, Y = simulate_lf(lf, init, args.seed, n_traj=args.trajectories)
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
    if simulate:
        path = args.out + ".csv" if args.action == "both" else args.out
        header = (["traj", "t"]
                  + [f"x_{i}" for i in range(model.n)]
                  + [f"y_{i}" for i in range(model.m)]
                  + [f"eta_{i}" for i in range(3 * model.n)])
        _write_csv(path, header,
                   (f"{r},{t}" for r in range(args.trajectories)
                    for t in range(args.horizon + 1)),
                   [a.reshape(-1, a.shape[2]) for a in (X, Y, etas)])
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


@functools.cache
def _parser():
    """The parser of ``main``, built on its first call: parsing leaves no
    state in it, so later calls in the same process reuse it."""
    return build_parser()


def main(argv=None):
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit code.  The parser is built once per process, which
    saves in-process callers, such as tests and benchmarks calling ``main``
    repeatedly, about a millisecond per call."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, BenchError, ConfigError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericsError, FilterError, SynthesisError, StabilityError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as e:
        print(f"out of memory: {str(e) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
