"""Span tracing of resilientkf from outside the package.

``Tracer.install`` wraps the layer functions listed in ``SPANNED`` and
rebinds every name in every ``resilientkf`` module namespace that refers to
them, so calls across and within modules both go through the wrapper.
``uninstall`` restores the originals.  Spans are kept in memory as
``[name, module, start, end, parent, command, extra]``.

Self time of a span is its duration minus the duration of the nearest spans
of *other* modules beneath it.  A call within the same module stays in its
caller's self time (``numerics.solve_budget.self_ms`` includes the
``gamma`` calls it makes), so self times of one module's functions can
overlap; across modules they do not.
"""

import contextlib
import inspect
import statistics
import sys
import time

import numpy as np

SPANNED = {
    "numerics": ("solve_budget", "gamma", "check_sympd", "spectral_extrema",
                 "chol_solve", "solve_discrete_lyapunov"),
    "filters": ("step", "_inflate", "covariance_schedule", "run_filter"),
    "least_favorable": ("forward_gains", "backward_pass", "worst_case_error_cov",
                        "error_cov_recursion", "assemble_lf", "simulate_lf"),
    "bench": ("run_monte_carlo", "sample_measurement"),
    "stability": ("theta_max", "c_max", "phi_max", "build_gramian_parts"),
    "model": ("load_model", "validate"),
}


def _fingerprint(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if hasattr(value, "__dict__"):
        return tuple(sorted((k, _fingerprint(v)) for k, v in vars(value).items()))
    return value


def _input_key(fn):
    """Hash of a call's bound arguments, so repeated inputs can be counted."""
    sig = inspect.signature(fn)

    def key(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        return hash(tuple(_fingerprint(v) for v in bound.arguments.values()))

    return key


# span name -> factory(fn) of a function (args, kwargs, result) -> extra value
EXTRA = {
    "numerics.solve_budget":
        lambda fn: lambda args, kwargs, result: getattr(result, "iterations", 0),
    "filters.covariance_schedule": _input_key,
}

NAME, MODULE, START, END, PARENT, COMMAND, EXTRA_VALUE = range(7)


class Tracer:
    """Spans of one pass at a time; ``reset`` starts the next pass."""

    def __init__(self):
        self.spans = []
        self.candidates = 0   # theta_max grid candidates (cells x rho points)
        self._stack = []
        self._command = -1
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, module, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA[name](fn) if name in EXTRA else None

        def traced(*args, **kwargs):
            rec = [name, module, 0.0, 0.0, stack[-1] if stack else -1,
                   self._command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if extra is not None:
                rec[EXTRA_VALUE] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_candidates(self, fn):
        """_batch_beta is counted, not spanned: its time stays in the
        self time of theta_max, which calls it through _beta_search."""

        def counted(model, alphas, gain_axes, nrho):
            cells = len(alphas)
            for axis in gain_axes:
                cells *= len(axis)
            self.candidates += cells * nrho
            return fn(model, alphas, gain_axes, nrho)

        return counted

    @contextlib.contextmanager
    def command(self, name):
        """A ``cli.<name>`` span around one command."""
        self._command += 1
        rec = [f"cli.{name}", "cli", 0.0, 0.0, -1, self._command, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self.candidates = 0

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every listed function the package still has; a function a
        later version removes simply reports zero."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "resilientkf" or k.startswith("resilientkf.")]
        for module, names in SPANNED.items():
            home = sys.modules[f"resilientkf.{module}"]
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is not None:
                    self._rebind(modules, orig,
                                 self._wrap(f"{module}.{fname}", module, orig))
        batch_beta = getattr(sys.modules["resilientkf.stability"], "_batch_beta", None)
        if batch_beta is not None:
            self._rebind(modules, batch_beta, self._count_candidates(batch_beta))

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- summary -----------------------------------------------------------

    def summarize(self, pass_s):
        """Per-layer statistics of the spans recorded in one pass."""
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        own = list(dur)
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p < 0 or spans[p][MODULE] == s[MODULE]:
                continue
            layer = spans[p][MODULE]
            while p >= 0 and spans[p][MODULE] == layer:
                own[p] -= dur[i]
                p = spans[p][PARENT]

        stats = {}
        steps_us = []
        schedule_keys = []
        iterations = []
        for s, d, o in zip(spans, dur, own):
            name = s[NAME]
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
            stats[f"{name}.self_ms"] = stats.get(f"{name}.self_ms", 0.0) + 1e3 * o
            if name == "filters.step":
                steps_us.append(1e6 * d)
            elif name == "numerics.solve_budget":
                iterations.append(s[EXTRA_VALUE])
            elif (name == "filters.covariance_schedule" and s[PARENT] >= 0
                  and spans[s[PARENT]][NAME] == "bench.run_monte_carlo"):
                schedule_keys.append(s[EXTRA_VALUE])

        solves = stats.get("numerics.solve_budget.calls", 0)
        stats["numerics.solve_budget.iters_mean"] = (
            statistics.fmean(iterations) if iterations else 0.0)
        stats["numerics.gamma.per_solve"] = (
            stats.get("numerics.gamma.calls", 0) / solves if solves else 0.0)
        if steps_us:
            stats["filters.step.p50_us"] = statistics.median(steps_us)
            stats["filters.step.p99_us"] = (
                statistics.quantiles(steps_us, n=100)[98]
                if len(steps_us) > 1 else steps_us[0])
        stats["bench.schedule.distinct_ratio"] = (
            len(set(schedule_keys)) / len(schedule_keys) if schedule_keys else 0.0)
        stats["stability.theta_max.candidates"] = self.candidates
        top = sum(d for s, d in zip(spans, dur) if s[PARENT] < 0)
        stats["trace.unattributed_ms"] = 1e3 * (pass_s - top)
        return stats

    @staticmethod
    def write(path, spans):
        """Write spans as CSV with times in microseconds from the first."""
        t0 = spans[0][START] if spans else 0.0
        with open(path, "w") as f:
            f.write("name,start_us,end_us,parent,command\n")
            for s in spans:
                f.write(f"{s[NAME]},{1e6 * (s[START] - t0):.1f},"
                        f"{1e6 * (s[END] - t0):.1f},{s[PARENT]},{s[COMMAND]}\n")
