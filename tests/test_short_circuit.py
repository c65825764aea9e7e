"""The data-free recursions stop stepping at their first repeat: once a step
reads the bytes an earlier step read, the following rows are filled by
period for as long as every per-step input repeats with that period, bit
for bit, and stepping resumes at the first step whose inputs differ (the
schedule has none, so it fills to the horizon).  Their outputs must be
byte-identical to the full loop's, which runs when detection is switched
off."""

import tracemalloc

import numpy as np
import pytest

from resilientkf import filters, least_favorable
from resilientkf.filters import (FilterConfig, covariance_schedule,
                                 covariance_schedules)
from resilientkf.least_favorable import backward_pass, error_cov_recursion
from resilientkf.numerics import sym

from conftest import seeded_model

KINDS = {"a": (("kf", {}), ("urkf", {"c": 0.05}), ("prkf", {"c": 0.05}),
               ("ursf", {"theta": 0.05}), ("prsf", {"theta": 0.05})),
         "r": (("kf", {}), ("urkf", {"c": 0.05}), ("prkf", {"c": 0.05}),
               ("ursf", {"theta": 0.001}), ("prsf", {"theta": 0.001}))}

# the symmetrizations that end a computed step of each recursion: W, O^{-1}
# and omega_inv in the backward pass, Pi_t in the error recursion
_SYMS = {backward_pass: 3, error_cov_recursion: 1}


def _no_detection(monkeypatch):
    monkeypatch.setattr(filters._Steps, "find", lambda self, t, *reads: None)


def _computed(recursion, *args):
    """The result of ``recursion(*args)`` and the number of steps it
    computed rather than filled, counted on the step's kernel."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(least_favorable, "sym", lambda X: calls.append(1) or sym(X))
        result = recursion(*args)
    return result, len(calls) // _SYMS[recursion]


def _full_loop(recursion, *args):
    """The result of ``recursion(*args)`` with every step computed."""
    with pytest.MonkeyPatch.context() as m:
        _no_detection(m)
        return recursion(*args)


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
        bwd, counts = _computed(backward_pass, fwd, model_a)
        counts = [counts]
        pis = []
        for g in gains:
            for adversary in (None, bwd):
                pi, count = _computed(error_cov_recursion, model_a, g, fwd,
                                      adversary)
                pis.append(pi)
                counts.append(count)
        return bwd, pis, counts

    bwd, pis, counts = run()
    # most of the five passes' steps are filled: they compute about 220 of
    # 1005
    assert sum(counts) < 5 * (N + 1) // 2
    with monkeypatch.context() as m:
        _no_detection(m)
        bwd_full, pis_full, counts_full = run()
    assert counts_full == [N + 1] * 5
    assert _bytes(bwd) == _bytes(bwd_full)
    for a, b in zip(pis, pis_full):
        assert a.tobytes() == b.tobytes()


def test_backward_pass_repeats_a_state_with_new_inputs(model_a):
    # at theta = 0 every backward state is zero while the gains still
    # change, so the pass computes the schedule's last period, fills down
    # to its cycle start and computes the steps before it
    N = 300
    fwd = covariance_schedule(model_a, FilterConfig(kind="ursf", theta=0.0),
                              np.eye(2), N)
    bwd, computed = _computed(backward_pass, fwd, model_a)
    assert not np.any(bwd.omega_inv)
    assert computed == sum(fwd.cycle) == 23
    assert _bytes(_full_loop(backward_pass, fwd, model_a)) == _bytes(bwd)


def test_channel_error_cov_resumes_where_its_inputs_leave_the_cycle(model_a):
    # the backward pass starts from omega_inv[N+1] = 0, so F_t and Ups_t
    # leave their cycle near N: the error recursion's fill stops there and
    # the steps after it are computed
    N = 200
    fwd = covariance_schedule(model_a, FilterConfig(kind="urkf", c=0.05),
                              np.eye(2), N)
    bwd = backward_pass(fwd, model_a)
    p = fwd.cycle[1]
    F = bwd.F.reshape(N + 1, -1).view(np.int64)
    late = np.flatnonzero((F[p:] != F[:-p]).any(axis=1)) + p
    assert late.max() == N and late[late > N // 2].min() < N - 10
    gains = np.stack([fwd.gains, covariance_schedule(
        model_a, FilterConfig(kind="kf"), np.eye(2), N).gains])
    pi, computed = _computed(error_cov_recursion, model_a, gains, fwd, bwd)
    saddle, computed_saddle = _computed(error_cov_recursion, model_a, gains,
                                        fwd)
    assert computed < N // 2 and computed > computed_saddle
    assert pi.tobytes() == _full_loop(
        error_cov_recursion, model_a, gains, fwd, bwd).tobytes()


@pytest.mark.parametrize("kind, budget", [("urkf", {"c": 0.05}),
                                          ("ursf", {"theta": 0.05})])
def test_backward_fill_ends_at_the_schedule_cycle_start(kind, budget,
                                                        model_a):
    N = 150
    fwd = covariance_schedule(model_a, FilterConfig(kind=kind, **budget),
                              np.eye(2), N)
    start, p = fwd.cycle
    # the gains before the cycle differ from those a period later, so the
    # fill down from N must stop there and compute those steps
    assert fwd.gains[start - 1].tobytes() != fwd.gains[start - 1 + p].tobytes()
    bwd, computed = _computed(backward_pass, fwd, model_a)
    assert start <= computed < N // 2
    assert _bytes(bwd) == _bytes(_full_loop(backward_pass, fwd, model_a))


def test_stack_members_cycling_at_different_steps_and_periods(model_a):
    N = 200
    configs = [FilterConfig(kind="urkf", c=0.05),
               FilterConfig(kind="ursf", theta=0.05),
               FilterConfig(kind="urkf", c=0.01)]
    stack = covariance_schedules(model_a, configs, np.eye(2), N)
    assert len(set(stack.cycle)) == 3
    assert len({p for _, p in stack.cycle}) > 1
    kf = covariance_schedule(model_a, FilterConfig(kind="kf"), np.eye(2), N)
    gains = np.stack([kf.gains, stack.gains[1]])
    bwd, computed = _computed(backward_pass, stack, model_a)
    assert computed < N // 2
    assert _bytes(bwd) == _bytes(_full_loop(backward_pass, stack, model_a))
    for b in range(len(configs)):
        fwd = stack.member(b)
        for adversary in (None, bwd.member(b)):
            pi, computed = _computed(error_cov_recursion, model_a, gains, fwd,
                                     adversary)
            assert computed < N // 2
            assert pi.tobytes() == _full_loop(
                error_cov_recursion, model_a, gains, fwd, adversary).tobytes()


def test_an_input_differing_in_the_sign_of_a_zero_is_computed(model_a):
    # 0.0 == -0.0, but the bits differ: the step whose input holds -0.0
    # where the row a period earlier holds 0.0 is computed, not filled
    N, j = 200, 150
    fwd = covariance_schedule(model_a, FilterConfig(kind="ursf", theta=0.05),
                              np.eye(2), N)
    K = np.array(fwd.gains)
    K[:, 1, 0] = 0.0
    signed = K.copy()
    signed[j, 1, 0] = -0.0
    _, base = _computed(error_cov_recursion, model_a, K, fwd)
    pi, computed = _computed(error_cov_recursion, model_a, signed, fwd)
    assert computed == base + 1
    assert pi.tobytes() == _full_loop(
        error_cov_recursion, model_a, signed, fwd).tobytes()
    # likewise a theta of -0.0 where the schedule's other steps hold 0.0
    fwd = covariance_schedule(model_a, FilterConfig(kind="ursf", theta=0.0),
                              np.eye(2), N)
    thetas = np.array(fwd.thetas)
    thetas[j] = -0.0
    signed = fwd._replace(thetas=thetas)
    _, base = _computed(backward_pass, fwd, model_a)
    bwd, computed = _computed(backward_pass, signed, model_a)
    assert computed == base + 1
    assert _bytes(bwd) == _bytes(_full_loop(backward_pass, signed, model_a))


def test_computed_steps_are_bounded_by_the_cycle_not_the_horizon(model_a):
    # 4800 steps are a whole number of every period (1, 2 or 3), so the
    # passes at N = 5000 compute exactly the steps they compute at N = 200
    P0 = np.eye(2)
    configs = [FilterConfig(kind="urkf", c=0.05),
               FilterConfig(kind="ursf", theta=0.05)]
    kf = [covariance_schedule(model_a, FilterConfig(kind="kf"), P0, N).gains
          for N in (200, 5000)]
    counts = []
    for N, kf_gains in zip((200, 5000), kf):
        counts.append([])
        for config in configs:
            fwd = covariance_schedule(model_a, config, P0, N)
            assert 4800 % fwd.cycle[1] == 0
            bwd, computed = _computed(backward_pass, fwd, model_a)
            counts[-1].append(computed)
            gains = np.stack([kf_gains, fwd.gains])
            for adversary in (None, bwd):
                pi, computed = _computed(error_cov_recursion, model_a, gains,
                                         fwd, adversary)
                counts[-1].append(computed)
            if N == 5000:
                assert _bytes(bwd) == _bytes(
                    _full_loop(backward_pass, fwd, model_a))
                assert pi.tobytes() == _full_loop(
                    error_cov_recursion, model_a, gains, fwd, bwd).tobytes()
    assert counts[0] == counts[1]
    assert max(counts[1]) < 60


def _traced_peak(recursion, *args):
    """The result of ``recursion(*args)`` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        return recursion(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fills_allocate_no_temporary_the_size_of_the_rows(model_a):
    # at N = 20000 the passes fill nearly all their rows.  The rows of a
    # two-member stack interleave the members, so a fill that broadcast
    # from a view of the same array would take a temporary the size of the
    # filled rows (1.3 MB for the backward pass, 11.5 MB for the error
    # recursion) on top of the output; the bound is 1 MiB
    N, P0 = 20_000, np.eye(2)
    stack = covariance_schedules(model_a, [FilterConfig(kind="urkf", c=c)
                                           for c in (0.01, 0.05)], P0, N)
    bwd, peak = _traced_peak(backward_pass, stack, model_a)
    size = sum(a.nbytes for a in (bwd.omega_inv, bwd.W, bwd.O, bwd.F,
                                  bwd.Ups))
    assert peak <= size + 2**20
    fwd = stack.member(1)
    gains = np.stack([covariance_schedule(
        model_a, FilterConfig(kind="kf"), P0, N).gains, fwd.gains])
    for adversary in (None, bwd.member(1)):
        pi, peak = _traced_peak(error_cov_recursion, model_a, gains, fwd,
                                adversary)
        assert peak <= pi.nbytes + 2**20


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
