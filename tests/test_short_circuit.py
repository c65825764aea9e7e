"""The data-free recursions copy a step that reads the bytes an earlier step
read.  Their outputs must be byte-identical to the full loop's, which runs
when detection is switched off."""

import numpy as np
import pytest

from resilientkf import filters
from resilientkf.filters import FilterConfig, covariance_schedule
from resilientkf.least_favorable import backward_pass, error_cov_recursion

from conftest import seeded_model

KINDS = {"a": (("kf", {}), ("urkf", {"c": 0.05}), ("prkf", {"c": 0.05}),
               ("ursf", {"theta": 0.05}), ("prsf", {"theta": 0.05})),
         "r": (("kf", {}), ("urkf", {"c": 0.05}), ("prkf", {"c": 0.05}),
               ("ursf", {"theta": 0.001}), ("prsf", {"theta": 0.001}))}


def _no_detection(monkeypatch):
    monkeypatch.setattr(filters._Steps, "find", lambda self, t, *reads: None)


def _count_fills(monkeypatch):
    """Count the steps filled by repetition instead of computed."""
    fills = []
    find = filters._Steps.find

    def counted(self, t, *reads):
        s = find(self, t, *reads)
        fills.append(s is not None)
        return s

    monkeypatch.setattr(filters._Steps, "find", counted)
    return fills


def _bytes(value):
    """Every array of a (nested) result, in order, as one bytes string."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"".join(_bytes(v) for v in value)
    if hasattr(value, "__dict__"):
        return b"".join(_bytes(v) for v in vars(value).values())
    return np.float64(value).tobytes()


def _schedules(model, which, N):
    return [covariance_schedule(model, FilterConfig(kind=kind, **kw),
                                np.eye(model.n), N)
            for kind, kw in KINDS[which]]


@pytest.mark.parametrize("which", ["a", "r"])
def test_schedule_matches_full_loop(which, model_a, monkeypatch):
    model = model_a if which == "a" else seeded_model(4, 9, 3)
    fast = _schedules(model, which, 2000)
    with monkeypatch.context() as m:
        _no_detection(m)
        full = _schedules(model, which, 2000)
    for f, s in zip(fast, full):
        assert s.cycle is None
        # model A cycles within 40 steps; the random 9x3 model never does
        assert (f.cycle is not None) == (which == "a")
        if f.cycle:
            assert f.cycle[0] + f.cycle[1] <= 40
        for a, b in zip(f[:5], s[:5]):
            assert len(a) == len(b) and _bytes(a) == _bytes(b)


@pytest.mark.parametrize("budget", [{"theta": 0.05}, {"c": 0.05}])
def test_backward_and_error_cov_match_full_loop(budget, model_a, monkeypatch):
    N = 200
    P0 = np.eye(2)
    kinds = ("ursf", "prsf") if "theta" in budget else ("urkf", "prkf")
    fwd, prkf = (covariance_schedule(
        model_a, FilterConfig(kind=kind, **budget), P0, N) for kind in kinds)
    gains = (fwd.gains, prkf.gains)

    def run():
        bwd = backward_pass(fwd, model_a)
        return bwd, [error_cov_recursion(model_a, g, fwd, adversary)
                     for g in gains for adversary in (None, bwd)]

    fills = _count_fills(monkeypatch)
    bwd, pis = run()
    # most of the five passes' steps are filled: about 780 of 1005
    assert sum(fills) > 5 * (N + 1) // 2
    with monkeypatch.context() as m:
        _no_detection(m)
        bwd_full, pis_full = run()
    assert _bytes(bwd) == _bytes(bwd_full)
    for a, b in zip(pis, pis_full):
        assert a.tobytes() == b.tobytes()


def test_backward_pass_repeats_a_state_with_new_inputs(model_a, monkeypatch):
    # at theta = 0 every backward state is zero while the gains still
    # change, so a step repeats only where its gain does: each step after
    # the schedule's first period copies one a period later
    N = 300
    fwd = covariance_schedule(model_a, FilterConfig(kind="ursf", theta=0.0),
                              np.eye(2), N)
    fills = _count_fills(monkeypatch)
    bwd = backward_pass(fwd, model_a)
    assert not np.any(bwd.omega_inv)
    assert sum(fills) == N + 1 - sum(fwd.cycle) == 278
    with monkeypatch.context() as m:
        _no_detection(m)
        assert _bytes(backward_pass(fwd, model_a)) == _bytes(bwd)


def test_schedule_computes_only_until_the_cycle(model_a, monkeypatch):
    calls = []
    gain = filters._gain
    monkeypatch.setattr(filters, "_gain",
                        lambda S, CP: calls.append(1) or gain(S, CP))
    sched = covariance_schedule(model_a, FilterConfig(kind="kf"),
                                np.eye(2), 2000)
    assert len(sched.gains) == 2001 and len(sched.cov_pred) == 2002
    assert len(calls) <= 40
    start, period = sched.cycle
    assert len(calls) == start + period
    assert (sched.gains[-1].tobytes()
            == sched.gains[start + (2000 - start) % period].tobytes())


def test_repeated_entries_are_read_only(model_a):
    sched = covariance_schedule(model_a, FilterConfig(kind="ursf", theta=0.05),
                                np.eye(2), 100)
    bwd = backward_pass(sched, model_a)
    assert sched.cycle is not None
    for seq in (*sched[:1], *sched[2:5], bwd.omega_inv, bwd.W, bwd.O, bwd.F,
                bwd.Ups):
        with pytest.raises(ValueError, match="read-only"):
            seq[-1][0, 0] = 1.0


@pytest.mark.parametrize("which", ["a", "r"])
def test_fields_are_read_only_stacks(which, model_a):
    model = model_a if which == "a" else seeded_model(4, 9, 3)
    n, m, N = model.n, model.m, 60
    shapes = {"gains": (N + 1, n, m), "thetas": (N + 1,),
              "cov_filt": (N + 1, n, n), "cov_distorted": (N + 1, n, n),
              "cov_pred": (N + 2, n, n), "omega_inv": (N + 2, n, n),
              "W": (N + 1, n, n), "O": (N + 1, m, m), "Ups": (N + 1, m, m),
              "F": (N + 1, m, n)}
    sched = covariance_schedule(model, FilterConfig(kind="ursf", theta=0.001),
                                np.eye(n), N)
    bwd = backward_pass(sched, model)
    for name, shape in shapes.items():
        a = getattr(sched if hasattr(sched, name) else bwd, name)
        assert isinstance(a, np.ndarray) and a.shape == shape, name
        assert not a.flags.writeable, name


def test_hash_collisions_are_not_repeats(model_a, monkeypatch):
    # with every state hashing alike only the byte comparison tells states
    # apart, and the schedules must not change
    expected = _schedules(model_a, "a", 200)
    monkeypatch.setattr(filters, "hash", lambda key: 0, raising=False)
    for f, s in zip(_schedules(model_a, "a", 200), expected):
        for a, b in zip(f[:5], s[:5]):
            assert _bytes(a) == _bytes(b)
