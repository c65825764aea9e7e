"""Benchmark of the resilientkf command line.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark drives ``resilientkf.cli.main``
in-process from the checkout's ``src/`` as a closed loop of one client: each
command starts when the previous one has returned.  One pass runs the
workload's command list (workloads.py); passes repeat while the next one
is expected to end within ``--seconds``, at least ``MIN_PASSES`` times.
Output checks (checks.py) run between passes, outside the timed section.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` first runs untraced passes for half the time, then traced
passes (tracer.py), and reports the per-layer metrics.  ``--workload all``
runs every workload, each in a fresh process, and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes a full record, with quartiles, samples and environment, under
``perfbench/.work/results``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
MIN_PASSES = 3
NOMINAL_CALIBRATION_S = 0.025   # about the fastest calibrate() on a 2.1 GHz Xeon
SETUP_PROBES = 4      # extra fresh processes that repeat the set-up
PROBE_TIMEOUT = 60


class BenchmarkError(Exception):
    """The benchmark cannot run in this directory."""


def load_spec():
    """End-to-end and per-layer metric definitions from BENCHMARK.json, and
    the layer table that says what each per-layer metric should move."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    with open(HERE / "layers.json") as f:
        layers = json.load(f)
    listed = {m for layer in layers.values() for m in layer["metrics"]}
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in listed]
    if missing:
        raise BenchmarkError(f"layers.json does not place {missing}")
    return spec


def import_package():
    """Import resilientkf from the checkout's src/, never from elsewhere."""
    if not (SRC / "resilientkf" / "__init__.py").is_file():
        raise BenchmarkError(f"no resilientkf package under {SRC}")
    sys.path.insert(0, str(SRC))
    import resilientkf.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "resilientkf":
        raise BenchmarkError(f"imported resilientkf from {cli.__file__}")
    return cli


def set_up(workload, seed, work):
    """Import the package and write the workload's inputs.  Returns the CLI
    module and the command list of one pass."""
    cli = import_package()
    import numpy as np
    import workloads

    if work.exists():
        shutil.rmtree(work)
    commands = workloads.WORKLOADS[workload](str(work), np.random.default_rng(seed))
    return cli, commands


# ---------------------------------------------------------------------------
# Environment


def _blas_threads():
    """Thread count that the OpenBLAS bundled with numpy reports; None when
    numpy links another BLAS or the count cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None in a
    checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes


def calibrate():
    """Seconds that a fixed mix of numpy work takes now: a loop of small
    dense calls, then vectorised calls on arrays of a few MB.

    On a shared host the CPU speed drifts by a third within seconds to
    minutes.  The package spends its time in these two kinds of work, so
    pass times are scaled by ``NOMINAL_CALIBRATION_S / calibrate()``
    measured between its commands (see ``at_nominal_speed``).  The kernel
    never touches resilientkf, so no change to the package can move it."""
    import numpy as np

    rng = np.random.default_rng(0)
    B = rng.standard_normal((8000, 3, 3))
    B = B @ B.transpose(0, 2, 1) + np.eye(3)
    V = rng.standard_normal(200000)
    P = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    t0 = time.perf_counter()
    for _ in range(500):
        np.linalg.eigvalsh(P)
        np.linalg.slogdet(P)
        np.linalg.inv(P)
        np.linalg.cholesky(P)
    np.linalg.eigvalsh(B)
    np.linalg.inv(B)
    for _ in range(3):
        (V * V + 1.0).sum()
    return time.perf_counter() - t0


def at_nominal_speed(passes):
    """Each pass's seconds at nominal speed: as measured, times
    ``NOMINAL_CALIBRATION_S`` over the mean calibration of that pass and
    its neighbours.  Averaging over about three passes smooths the noise of
    the calibration itself and still follows slower drifts."""
    for k, p in enumerate(passes):
        cals = [c for q in passes[max(0, k - 1):k + 2] for c in q["calibration_s"]]
        p["wall_s"] = p["raw_s"] * NOMINAL_CALIBRATION_S / statistics.fmean(cals)


def run_pass(cli, commands, out_dir, tracer=None):
    """Run every command once.  Returns the seconds of each command, the
    calibrations around them and the exit codes; a command that raises
    instead of returning an exit code gets None."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    codes, seconds, cals = [], [], [calibrate()]
    for cmd in commands:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                codes.append(cli.main(cmd.argv))
            else:
                with tracer.command(cmd.name):
                    codes.append(cli.main(cmd.argv))
        except Exception:
            traceback.print_exc()
            codes.append(None)
        seconds.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return seconds, cals, codes


def check_pass(commands, codes):
    """Check every command's outputs; returns (model steps, failures)."""
    import checks

    steps, failed = 0, 0
    for cmd, code in zip(commands, codes):
        if code != 0:
            print(f"FAILED {' '.join(cmd.argv)}: exit code {code}", file=sys.stderr)
            failed += 1
            continue
        try:
            steps += cmd.check()
        except (checks.CheckFailed, OSError, ValueError, KeyError,
                IndexError) as e:
            print(f"FAILED check of {' '.join(cmd.argv)}: {e!r}", file=sys.stderr)
            failed += 1
    return steps, failed


def bytes_written(out_dir):
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def probe_setup(workload, seed):
    """Set-up seconds of a fresh process, as that process measured them.
    Set-up is mostly importing and does not track calibrate(), so it is
    reported as measured."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"set-up probe exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, first quartile, third quartile) of the samples."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def measure(args, spec):
    """Set up, run the passes; returns (metrics, commands attempted, record)."""
    work = WORK / f"{args.workload}-{os.getpid()}"
    cli, commands = set_up(args.workload, args.seed, work)
    setup_s = [time.perf_counter() - T_START]
    out_dir = work / "out"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed)}
    passes, first_spans = [], []

    def one_pass(tracer=None):
        if tracer is not None:
            tracer.reset()
        seconds, cals, codes = run_pass(cli, commands, out_dir, tracer)
        raw = sum(seconds)
        p = {"raw_s": raw, "command_s": seconds, "calibration_s": cals}
        if tracer is not None:
            # summarise before the checks, which call the library too
            p["layers"] = tracer.summarize(raw)
            if not first_spans:
                first_spans.extend(tracer.spans)
        p["steps"], p["failed"] = check_pass(commands, codes)
        p["bytes"] = bytes_written(out_dir)
        passes.append(p)

    try:
        if not args.trace:
            setup_s += [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        window = args.seconds / 2 if args.trace else args.seconds
        while (len(passes) < (1 if args.trace else MIN_PASSES)
               or fits(t0, len(passes), window)):
            one_pass()
        at_nominal_speed(passes)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            untraced, t1 = len(passes), time.perf_counter()
            tracer.install()
            try:
                while (len(passes) == untraced or fits(
                        t1, len(passes) - untraced, args.seconds - (t1 - t0))):
                    one_pass(tracer)
            finally:
                tracer.uninstall()
            at_nominal_speed(passes[untraced:])
            span_file = (WORK / "results" /
                         f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.csv")
            span_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(span_file, first_spans)
            record["spans_file"] = str(span_file.relative_to(ROOT))
            metrics = per_layer(spec, commands, passes)
        else:
            metrics = end_to_end(spec, passes, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(passes=passes, setup_samples_s=setup_s,
                  commands=[c.argv for c in commands])
    return metrics, len(passes) * len(commands), record


def fits(t0, done, window):
    """Whether one more pass, at the mean length of those done since t0,
    ends within the window."""
    elapsed = time.perf_counter() - t0
    return elapsed + elapsed / done <= window


def end_to_end(spec, passes, setup_s):
    walls = [p["wall_s"] for p in passes]
    rates = [p["steps"] / p["wall_s"] for p in passes]
    samples = {"wall_s": walls, "steps_per_s": rates, "setup_s": setup_s}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "peak_rss_mb":
            value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics[name] = {"value": value, "unit": m["unit"]}
        else:
            med, q1, q3 = spread(samples[name])
            metrics[name] = {"value": med, "unit": m["unit"], "q1": q1, "q3": q3,
                             "n": len(samples[name])}
    return metrics


def per_layer(spec, commands, passes):
    """Medians over the traced passes, plus the metrics derived from both
    kinds of pass and from the returned certificates."""
    import checks

    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if "layers" not in p]
    certs = [c.certificate for c in commands if c.certificate]
    derived = {
        "stability.cert_verified_ratio": (
            sum(checks.certificate_verified(*c) for c in certs) / len(certs)
            if certs else 0.0),
        # as measured, on the clock of the spans
        "trace.pass_s": statistics.median(p["raw_s"] for p in traced),
        # at nominal speed, so that drift between the two halves cancels
        "trace.overhead_s": (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in untraced)),
        "cli.bytes_written": statistics.median(p["bytes"] for p in traced),
    }
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = (derived[name] if name in derived else
                 statistics.median(p["layers"].get(name, 0) for p in traced))
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


# ---------------------------------------------------------------------------
# Entry points


def run_one(args):
    spec = load_spec()
    metrics, attempted, record = measure(args, spec)
    failed = sum(p["failed"] for p in record["passes"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record.update(result=result, metrics=metrics)
    path = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(record['passes'])} passes, {attempted} commands, "
          f"{failed} failed, fail_rate {failed / attempted:.6g}")
    for name, m in metrics.items():
        extra = (f"  (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})"
                 if "n" in m else "")
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"env {json.dumps(record['env'])}")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own fresh process, one table at the end."""
    spec = load_spec()
    results = {}
    for w in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"workload {w} exited with {proc.returncode}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
    first = next(iter(results.values()))["metrics"]
    print(f"{'metric':40s} {'unit':6s} " + " ".join(f"{w:>12s}" for w in results))
    for name, m in first.items():
        print(f"{name:40s} {m['unit']:6s} " + " ".join(
            f"{r['metrics'][name]['value']:12.6g}" for r in results.values()))
    print(f"{'fail_rate':40s} {'1':6s} " + " ".join(
        f"{r['failed'] / r['attempted']:12.6g}" for r in results.values()))
    total = {"correct": all(r["correct"] for r in results.values()),
             "attempted": sum(r["attempted"] for r in results.values()),
             "failed": sum(r["failed"] for r in results.values()),
             "metrics": {f"{w}.{k}": v for w, r in results.items()
                         for k, v in r["metrics"].items()}}
    print(json.dumps(total))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            work = WORK / f"probe-{args.workload}-{os.getpid()}"
            try:
                set_up(args.workload, args.seed, work)
                print(time.perf_counter() - T_START)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        if args.workload not in {w["name"] for w in load_spec()["workloads"]}:
            raise BenchmarkError(f"unknown workload {args.workload!r}")
        return run_one(args)
    except (BenchmarkError, OSError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
