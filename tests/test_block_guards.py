"""The schedule's Cholesky guards, checked once per block of steps.

``covariance_schedules`` collects the innovation covariance S and each
inflated covariance of every step and factors them as one stack per kind
at the end of each block of ``filters._BLOCK`` steps and when its loop
stops.  These tests make ``filters._cholesky`` reject one chosen matrix of
one step and check that the failure is reported as a guarded step would
report it, and that every matrix the steps compute is checked once.
"""

import collections
import json
import os

import numpy as np
import pytest

from conftest import seeded_model
from oracles import save_model
from resilientkf import filters
from resilientkf.cli import main
from resilientkf.filters import (FilterConfig, FilterError,
                                 covariance_schedule, covariance_schedules)
from resilientkf.numerics import NumericsError

STEP = 3


def _models(model_a):
    """Model A with a fixed theta its schedules survive, and a seeded
    9-state, 3-output model with one."""
    return {"a": (model_a, 0.05), "r9": (seeded_model(4, 9, 3), 0.001)}


def _step_matrices(model, config, s):
    """The S and the inflated covariance that step s of ``config``'s
    schedule from I hands its guards (None for kf)."""
    seen = {"S": [], "V": []}
    gain, inflate = filters._gain, filters._inflate
    with pytest.MonkeyPatch.context() as m:
        m.setattr(filters, "_gain",
                  lambda S, CP: seen["S"].append(S[0]) or gain(S, CP))
        m.setattr(filters, "_inflate", lambda members, idx, P, thetas, guard:
                  inflate(members, idx, P, thetas,
                          lambda V: seen["V"].append(V[0]) or guard(V)))
        covariance_schedule(model, config, np.eye(model.n), s)
    return {key: (mats[s] if mats else None) for key, mats in seen.items()}


def _reject(monkeypatch, target):
    """Make ``filters._cholesky`` reject every stack that holds ``target``,
    as it rejects a matrix that is not positive definite."""
    cholesky = filters._cholesky

    def guard(M):
        if M.shape[-2:] == target.shape and any(
                X.tobytes() == target.tobytes()
                for X in M.reshape(-1, *target.shape)):
            raise NumericsError("matrix is not positive definite")
        return cholesky(M)

    monkeypatch.setattr(filters, "_cholesky", guard)


def _command(kind, tag, model, theta, tmp_path):
    """The argv of a solo ``filter`` run or a mixed ``worstcase`` stack,
    whose members are urkf, ursf, prkf, prsf and kf in that order, and
    the config of its member whose step is made to fail."""
    model_path = str(tmp_path / f"model_{tag}.json")
    save_model(model, model_path)
    out = str(tmp_path / "out" / "run.csv")
    if kind == "mixed":
        return ["worstcase", "--model", model_path, "--c", "0.05", "--theta",
                str(theta), "--filters", "kf,urkf,prkf,ursf,prsf",
                "--horizon", "100", "--out", out], FilterConfig(
                    kind="prkf", c=0.05)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": kind, "c": 0.05}))
    data = tmp_path / "y.csv"
    data.write_text("0.1\n" * 40 if model.m == 1 else "0.1,0.2,0.3\n" * 40)
    return ["filter", "--model", model_path, "--config", str(config),
            "--data", str(data), "--out", out], FilterConfig(kind=kind, c=0.05)


@pytest.mark.parametrize("which", ["S", "V"])
@pytest.mark.parametrize("kind", ["urkf", "prkf", "mixed"])
@pytest.mark.parametrize("tag", ["a", "r9"])
def test_a_rejected_guard_reports_its_step_and_member(
        tag, kind, which, model_a, tmp_path, monkeypatch, capsys):
    model, theta = _models(model_a)[tag]
    argv, member = _command(kind, tag, model, theta, tmp_path)
    assert main(argv) == 0
    os.remove(argv[-1])
    os.remove(argv[-1] + ".manifest.json")
    capsys.readouterr()
    _reject(monkeypatch, _step_matrices(model, member, STEP)[which])
    assert main(argv) == 3
    desc = f"{member.kind} c=0.05"
    assert capsys.readouterr().err == (
        f"numerical failure: filter step failed at t={STEP} for {desc}: "
        "matrix is not positive definite\n")
    assert os.listdir(tmp_path / "out") == []


def test_a_failing_step_computes_at_most_one_block_past_it(model_a,
                                                           monkeypatch):
    # with no cycle to stop at, the run would go on for 10^5 steps; a
    # guard rejected at step 3 stops it at the end of its block.  Besides
    # that block, the calls are the guarded run's: steps 0..3 again and
    # the step of the failing member on its own
    config = FilterConfig(kind="urkf", c=0.05)
    target = _step_matrices(model_a, config, STEP)["S"]
    monkeypatch.setattr(filters._Steps, "find", lambda self, t, *reads: None)
    _reject(monkeypatch, target)
    calls = []
    step = filters._schedule_step
    monkeypatch.setattr(filters, "_schedule_step",
                        lambda *a, **k: calls.append(1) or step(*a, **k))
    with pytest.raises(FilterError, match=f"t={STEP} for urkf c=0.05: matrix"):
        covariance_schedule(model_a, config, np.eye(2), 10 ** 5)
    assert len(calls) <= filters._BLOCK + (STEP + 1) + 1


@pytest.mark.parametrize("rejected", [True, False])
def test_a_singular_innovation_covariance_is_a_filter_error(
        rejected, model_a, monkeypatch):
    # without its guard the gain solve meets a singular S and raises
    # LinAlgError; the step is reported as a FilterError, by the guard
    # where it rejects S, else with the solve's own message
    config = FilterConfig(kind="urkf", c=0.05)
    target = _step_matrices(model_a, config, STEP)["S"]
    if rejected:
        _reject(monkeypatch, target)
    gain = filters._gain

    def singular(S, CP):
        if any(X.tobytes() == target.tobytes() for X in S):
            raise np.linalg.LinAlgError("Singular matrix")
        return gain(S, CP)

    monkeypatch.setattr(filters, "_gain", singular)
    message = "matrix is not positive definite" if rejected else "Singular"
    with pytest.raises(FilterError,
                       match=f"t={STEP} for urkf c=0.05: {message}"):
        covariance_schedule(model_a, config, np.eye(2), 100)


def test_a_later_failing_step_reports_the_earlier_rejected_guard(
        model_a, monkeypatch):
    # step 3's inflated covariance is rejected, and step 4 raises before
    # the block ends: the guards collected so far are checked before the
    # failure is raised, so step 3 is reported, as by a guarded run
    config = FilterConfig(kind="urkf", c=0.05)
    target = _step_matrices(model_a, config, STEP + 1)["S"]
    _reject(monkeypatch, _step_matrices(model_a, config, STEP)["V"])
    gain = filters._gain

    def singular(S, CP):
        if any(X.tobytes() == target.tobytes() for X in S):
            raise np.linalg.LinAlgError("Singular matrix")
        return gain(S, CP)

    monkeypatch.setattr(filters, "_gain", singular)
    with pytest.raises(FilterError, match=f"t={STEP} for urkf c=0.05: "
                                          "matrix is not positive definite"):
        covariance_schedule(model_a, config, np.eye(2), 100)


@pytest.mark.parametrize("tag, N", [("a", 2000), ("r9", 200)])
@pytest.mark.parametrize("kinds", [["urkf"], ["ursf"], ["kf"],
                                   ["urkf", "ursf", "prkf", "prsf", "kf"]],
                         ids=["budgeted", "fixed_theta", "kf", "mixed"])
def test_every_guard_is_checked_once(kinds, tag, N, model_a, monkeypatch):
    # every computed step's S and every inflated covariance of either side
    # reach _cholesky once, through the block checks; a step copied from a
    # cycle is not computed and not checked.  Model A's schedules repeat
    # within one block, the 9-state model's not within 200 steps
    model, theta = _models(model_a)[tag]
    configs = [FilterConfig(kind=k, c=0.05) if k in ("urkf", "prkf") else
               FilterConfig(kind=k, theta=theta) if k in ("ursf", "prsf")
               else FilterConfig(kind=k) for k in kinds]
    computed, checked = collections.Counter(), collections.Counter()
    steps = []
    gain, inflate = filters._gain, filters._inflate
    cholesky = filters._cholesky

    def key(X):
        return X.shape, X.tobytes()

    def spy_gain(S, CP):
        steps.append(len(S))
        computed.update(map(key, S))
        return gain(S, CP)

    def spy_inflate(members, idx, P, thetas, guard):
        V = inflate(members, idx, P, thetas, guard)
        computed.update(map(key, V[idx]))
        return V

    def spy_cholesky(M):
        checked.update(map(key, M))
        return cholesky(M)

    monkeypatch.setattr(filters, "_gain", spy_gain)
    monkeypatch.setattr(filters, "_inflate", spy_inflate)
    monkeypatch.setattr(filters, "_cholesky", spy_cholesky)
    sched = covariance_schedules(model, configs, np.eye(model.n), N)
    inflating = sum(k != "kf" for k in kinds)
    if tag == "a":
        assert len(steps) == max(map(sum, sched.cycle)) < filters._BLOCK
    else:
        assert sched.cycle == [None] * len(kinds) and len(steps) == N + 1
    assert sum(computed.values()) == len(steps) * (len(kinds) + inflating)
    assert checked == computed
