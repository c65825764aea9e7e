"""The data-free recursions run over a leading member axis: a schedule
stack of one side, one backward pass over its members, one error-covariance
recursion over several gain schedules.  Each member's rows must have the
bytes of its own one-member call, and a failing member must be named."""

import json
import math
import os
import sys
import time

import numpy as np
import pytest

from resilientkf import cli
from resilientkf.cli import main
from resilientkf.filters import (
    ConfigError,
    FilterConfig,
    FilterError,
    covariance_schedule,
    covariance_schedules,
)
from resilientkf.least_favorable import (
    SynthesisError,
    backward_pass,
    error_cov_recursion,
)

from conftest import record_calls, seeded_model

# (kind, budget) members of each side; a fixed theta of None takes the
# model's own, and theta = 0 members take V = P with no eigh
SIDES = {
    "update": (("urkf", {"c": 0.05}), ("ursf", {"theta": None}), ("kf", {}),
               ("ursf", {"theta": 0.0}), ("urkf", {"c": 0.01})),
    "prediction": (("prkf", {"c": 0.05}), ("prsf", {"theta": None}),
                   ("kf", {}), ("prsf", {"theta": 0.0}),
                   ("prkf", {"c": 0.01})),
}


def _model(which, model_a):
    # model A cycles within 40 steps; seeded (4, 9, 3) never does
    return (model_a, 0.05, 300) if which == "a" else (
        seeded_model(4, 9, 3), 0.001, 120)


def _configs(side, theta):
    return [FilterConfig(kind=kind, **{k: theta if v is None else v
                                       for k, v in kw.items()})
            for kind, kw in SIDES[side]]


def _same(a, b):
    return a.shape == b.shape and a.strides == b.strides and (
        a.tobytes() == b.tobytes())


@pytest.mark.parametrize("side", ["update", "prediction"])
@pytest.mark.parametrize("which", ["a", "r"])
def test_schedule_stack_matches_solo_schedules(which, side, model_a):
    model, theta, N = _model(which, model_a)
    configs = _configs(side, theta)
    P0 = np.eye(model.n)
    stack = covariance_schedules(model, configs, P0, N)
    assert len(stack.cycle) == len(configs) and stack.horizon == N
    for i, config in enumerate(configs):
        solo = covariance_schedule(model, config, P0, N)
        member = stack.member(i)
        assert member.cycle == solo.cycle
        assert (solo.cycle is not None) == (which == "a")
        for got, want in zip(member[:5], solo[:5]):
            assert _same(got, want)
            assert not got.flags.writeable
    # a sub-stack by a slice keeps the members and their cycles
    sub = stack.member(slice(1, 3))
    assert sub.cycle == stack.cycle[1:3] and len(sub.gains) == 2


def test_schedule_stack_of_one_member_is_the_schedule(model_a):
    config = FilterConfig(kind="urkf", c=0.05)
    stack = covariance_schedules(model_a, [config], np.eye(2), 100)
    solo = covariance_schedule(model_a, config, np.eye(2), 100)
    assert stack.cycle == [solo.cycle]
    for a, b in zip(stack[:5], solo[:5]):
        assert _same(a[0], b)


def test_theta_zero_members_take_no_eigh(model_a, monkeypatch):
    # kf and a fixed theta of 0 take V = P as is; of a stack, only the
    # budgeted and nonzero-theta members are decomposed
    calls = record_calls(monkeypatch, np.linalg, "eigh")
    zero = [FilterConfig(kind="kf"), FilterConfig(kind="ursf", theta=0.0)]
    covariance_schedules(model_a, zero, np.eye(2), 50)
    assert not calls["eigh"]
    stack = covariance_schedules(
        model_a, zero + [FilterConfig(kind="urkf", c=0.05)], np.eye(2), 50)
    assert calls["eigh"] and all(P.shape == (1, 2, 2) for P in calls["eigh"])
    assert len(calls["eigh"]) == max(sum(c) for c in stack.cycle)


def test_schedule_stack_rejects_mixed_sides(model_a):
    configs = [FilterConfig(kind="urkf", c=0.05),
               FilterConfig(kind="prkf", c=0.05)]
    with pytest.raises(ConfigError, match="mixes"):
        covariance_schedules(model_a, configs, np.eye(2), 10)


@pytest.mark.parametrize("which", ["a", "r"])
def test_backward_and_error_cov_stacks_match_solo(which, model_a):
    model, theta, N = _model(which, model_a)
    P0 = np.eye(model.n)
    N = min(N, 80)
    update = [FilterConfig(kind="urkf", c=0.05),
              FilterConfig(kind="ursf", theta=theta),
              FilterConfig(kind="ursf", theta=0.0)]
    stack = covariance_schedules(model, update, P0, N)
    kf = covariance_schedule(model, FilterConfig(kind="kf"), P0, N)
    prkf = covariance_schedule(model, FilterConfig(kind="prkf", c=0.05),
                               P0, N)
    bwd = backward_pass(stack, model)
    for b in range(len(update)):
        fwd = stack.member(b)
        solo = backward_pass(fwd, model)
        member = bwd.member(b)
        for name in ("omega_inv", "W", "O", "F", "Ups", "r_half"):
            assert _same(getattr(member, name), getattr(solo, name)), name
        gains = np.stack([kf.gains, prkf.gains, fwd.gains])
        for adversary in (None, solo):
            pis = error_cov_recursion(model, gains, fwd, adversary)
            assert pis.shape == (3, N + 1, 3 * model.n, 3 * model.n)
            for g, pi in zip(gains, pis):
                assert _same(pi, error_cov_recursion(model, g, fwd,
                                                     adversary))


def test_error_cov_blocks_match_one_block(model_a, monkeypatch):
    # the transition and noise matrices are built a block of steps at a
    # time; blocks of 7 steps give the bytes of one block over the horizon
    from resilientkf import least_favorable
    N = 60
    seeded = seeded_model(4, 9, 3)
    for model in (model_a, seeded):
        fwd = covariance_schedule(model, FilterConfig(kind="urkf", c=0.05),
                                  np.eye(model.n), N)
        bwd = backward_pass(fwd, model)
        runs = []
        for block in (7, N + 1):
            monkeypatch.setattr(least_favorable, "_BLOCK", block)
            runs.append([error_cov_recursion(model, fwd.gains, fwd, a)
                         for a in (None, bwd)])
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()


def test_schedule_stack_fails_at_the_earliest_member(model_a):
    # alone, theta = 0.3 fails at t = 2 and theta = 0.5 at t = 1; the stack
    # fails at t = 1 and names theta = 0.5 with its own error
    configs = [FilterConfig(kind="ursf", theta=0.001),
               FilterConfig(kind="ursf", theta=0.3),
               FilterConfig(kind="ursf", theta=0.5)]
    alone = {}
    for config in configs[1:]:
        with pytest.raises(FilterError) as e:
            covariance_schedule(model_a, config, np.eye(2), 50)
        alone[config.theta] = str(e.value)
    assert alone[0.3].startswith("filter step failed at t=2 for ursf "
                                 "theta=0.3: distortion infeasible")
    with pytest.raises(FilterError) as e:
        covariance_schedules(model_a, configs, np.eye(2), 50)
    assert str(e.value) == alone[0.5]
    assert str(e.value).startswith("filter step failed at t=1 for ursf "
                                   "theta=0.5: ")


def test_backward_stack_names_its_infeasible_member(model_a):
    # member 1's thetas scaled tenfold make its channel step 19 infeasible,
    # as in its own pass; member 0 stays feasible
    configs = [FilterConfig(kind="urkf", c=0.05)] * 2
    stack = covariance_schedules(model_a, configs, np.eye(2), 20)
    scaled = stack._replace(thetas=stack.thetas * np.array([[1.0], [10.0]]))
    with pytest.raises(SynthesisError, match=r"at t=19: I - L\^T W L"):
        backward_pass(scaled.member(1), model_a)
    backward_pass(scaled.member(0), model_a)
    with pytest.raises(SynthesisError,
                       match=r"at t=19 \(member 1\): I - L\^T W L") as e:
        backward_pass(scaled, model_a)
    assert e.value.member == 1


@pytest.fixture
def model_path(tmp_path, model_a):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({k: getattr(model_a, k).tolist()
                                for k in "ACQR"}))
    return str(path)


def _outputs(out):
    return [p for p in (out, out + ".manifest.json") if os.path.exists(p)]


@pytest.mark.parametrize("channel", [(), ("--channel",)])
@pytest.mark.parametrize("budgets, message", [
    (["--theta", "0.001", "--theta", "0.5"],
     "filter step failed at t=1 for ursf theta=0.5: distortion infeasible"),
    # both fail alone, theta = 0.3 first in the command line but at t = 2:
    # the stack reports the earliest failing step
    (["--theta", "0.3", "--theta", "0.5"],
     "filter step failed at t=1 for ursf theta=0.5: distortion infeasible"),
], ids=["one", "earliest"])
def test_worstcase_failing_budget_writes_nothing(budgets, message, channel,
                                                 model_path, tmp_path,
                                                 capsys):
    out = str(tmp_path / "wc.csv")
    assert main(["worstcase", "--model", model_path, *budgets, *channel,
                 "--horizon", "50", "--out", out]) == 3
    assert message in capsys.readouterr().err
    assert not _outputs(out) and os.listdir(tmp_path) == ["model.json"]


def test_worstcase_infeasible_channel_names_its_budget(model_path, tmp_path,
                                                       monkeypatch, capsys):
    # the second budget's update-side thetas scaled tenfold make its
    # channel step 19 infeasible, as in test_backward_stack_names_...
    stacks = cli.covariance_schedules

    def scaled(model, configs, P0, N):
        stack = stacks(model, configs, P0, N)
        if configs[0].kind != "urkf":
            return stack
        scale = np.ones((len(configs), 1))
        scale[1] = 10.0
        return stack._replace(thetas=stack.thetas * scale)

    monkeypatch.setattr(cli, "covariance_schedules", scaled)
    out = str(tmp_path / "wc.csv")
    assert main(["worstcase", "--model", model_path, "--c", "0.01", "--c",
                 "0.05", "--channel", "--horizon", "20", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: budget c=0.05: channel "
                          "synthesis infeasible at t=19 (member 1): ")
    assert not _outputs(out)


def test_worstcase_stack_beyond_the_address_space_fails_fast(model_path,
                                                             tmp_path,
                                                             capsys):
    # one member's recursions would fit the address space at this horizon,
    # but the update stack holds the budget and kf, and the error
    # covariance the three filters
    N = 10 ** 16
    block = 8 * (N + 2) * (3 * 2 + 1) ** 2
    assert block <= sys.maxsize < 3 * block
    out = str(tmp_path / "wc.csv")
    start = time.perf_counter()
    assert main(["worstcase", "--model", model_path, "--c", "0.1",
                 "--horizon", str(N), "--out", out]) == 2
    assert time.perf_counter() - start < 10
    assert "address space" in capsys.readouterr().err
    assert not _outputs(out)


def test_worstcase_runs_each_stack_once(model_path, tmp_path, monkeypatch):
    # three budgets: one schedule stack per side, one backward pass and one
    # error-covariance recursion per budget, each over its members
    calls = {"covariance_schedules": [], "backward_pass": [],
             "error_cov_recursion": [], "covariance_schedule": []}
    for name, seen in calls.items():
        def counted(*args, _f=getattr(cli, name), _seen=seen):
            _seen.append(args[1] if len(args) > 1 else None)
            return _f(*args)
        monkeypatch.setattr(cli, name, counted)
    out = str(tmp_path / "wc.csv")
    assert main(["worstcase", "--model", model_path, "--c", "0.01", "--c",
                 "0.05", "--theta", "0.02", "--channel", "--horizon", "30",
                 "--filters", "kf,urkf,prkf,ursf,prsf",
                 "--out", out]) == 0
    assert [len(c) for c in calls["covariance_schedules"]] == [4, 3]
    assert len(calls["backward_pass"]) == 1
    assert [len(g) for g in calls["error_cov_recursion"]] == [5, 5, 5]
    assert not calls["covariance_schedule"]
    assert math.isfinite(float(open(out).read().splitlines()[-1]
                               .split(",")[-1]))
