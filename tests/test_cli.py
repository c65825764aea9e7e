import csv
import io
import json
import math
import os

import numpy as np
import pytest

from resilientkf.cli import _write_csv, main
from resilientkf.filters import FilterConfig, covariance_schedule
from resilientkf.least_favorable import assemble_lf, backward_pass
from resilientkf.model import LinearGaussianModel, save_model, validate
from resilientkf.stability import prop6_guard

from conftest import seeded_model

MODEL_A = {
    "A": [[0.1, 1.0], [0.0, 0.6]],
    "C": [[1.0, -1.0]],
    "Q": [[0.9050, 0.8150], [0.8150, 0.7450]],
    "R": [[1.0]],
}


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_A))
    return str(path)


def test_bounds_cmax(model_file, tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["bounds", "--model", model_file, "--mode", "cmax", "--out", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert 0.090 <= rep["phi_k"] <= 0.100
    assert rep["c_max"] > 0
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["numpy"] == np.__version__
    assert "scipy" not in manifest


@pytest.mark.parametrize("name", ["model_a", "random_3x2"])
def test_bounds_thetamax(name, model_file, tmp_path):
    # random_3x2 has n * m = 6, out of reach of a 21^(n m) gain grid
    if name == "random_3x2":
        model = seeded_model(6, 3, 2)
        model_file = str(tmp_path / "random.json")
        save_model(model, model_file)
    else:
        model = LinearGaussianModel(**MODEL_A)
    out = str(tmp_path / "theta.json")
    rc = main(["bounds", "--model", model_file, "--mode", "thetamax",
               "--out", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["theta_max"] == min(rep["beta"], rep["phi_k"])
    G, Sigma = np.array(rep["G"]), np.array(rep["sigma"])
    assert G.shape == (model.n, model.m)
    ok, cert = prop6_guard(model, rep["theta_max"], Sigma, G, rep["alpha"],
                           rep["rho"])
    assert ok, cert


def test_write_csv_matches_csv_writer(tmp_path):
    # repr is the text csv.writer gives a float, for every kind of value
    block = np.array([[0.1, -0.0, 1e-320, 2.5e300],
                      [np.inf, -np.inf, np.nan, 1 / 3]])
    lead = ["c,0.05,0", "c,0.05,1"]
    out = tmp_path / "x.csv"
    _write_csv(str(out), ["budget_kind", "budget", "t", "a", "b", "c", "d"],
               lead, block)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["budget_kind", "budget", "t", "a", "b", "c", "d"])
    writer.writerows([["c", 0.05, t] + row
                      for t, row in enumerate(block.tolist())])
    assert out.read_text() == buf.getvalue()


def test_bounds_missing_model(tmp_path):
    out = str(tmp_path / "report.json")
    rc = main(["bounds", "--model", str(tmp_path / "nope.json"),
               "--mode", "cmax", "--out", out])
    assert rc == 4
    assert not os.path.exists(out)


def test_bounds_invalid_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": [[1.0]], "C": [[1.0]],
                               "Q": [[-1.0]], "R": [[1.0]]}))
    out = str(tmp_path / "report.json")
    rc = main(["bounds", "--model", str(bad), "--mode", "cmax", "--out", out])
    assert rc == 2
    assert not os.path.exists(out)


def test_worstcase_ordering(model_file, tmp_path):
    out = str(tmp_path / "wc.csv")
    rc = main(["worstcase", "--model", model_file, "--c", "0.05",
               "--horizon", "350", "--out", out])
    assert rc == 0
    rows = [l.split(",") for l in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    i = {name: header.index(name) for name in
         ("t", "var_kf", "var_prkf", "var_urkf", "theta")}
    last = data[-1]
    assert float(last[i["var_urkf"]]) < float(last[i["var_prkf"]]) \
        < float(last[i["var_kf"]])


def test_worstcase_zero_budget_collapse(model_file, tmp_path):
    out = str(tmp_path / "wc0.csv")
    rc = main(["worstcase", "--model", model_file, "--theta", "0",
               "--horizon", "50", "--out", out])
    assert rc == 0
    rows = [l.split(",") for l in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    iu = header.index("var_urkf")
    ik = header.index("var_kf")
    for row in data:
        assert float(row[iu]) == pytest.approx(float(row[ik]), abs=1e-10)


def test_worstcase_requires_budget(model_file, tmp_path):
    rc = main(["worstcase", "--model", model_file,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_filter_roundtrip(model_file, tmp_path):
    cfg = tmp_path / "fc.json"
    cfg.write_text(json.dumps({"kind": "ursf", "theta": 0.01}))
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    np.savetxt(data, rng.standard_normal((15, 1)), delimiter=",")
    out = str(tmp_path / "steps.csv")
    rc = main(["filter", "--model", model_file, "--config", str(cfg),
               "--data", str(data), "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 16
    header = lines[0].split(",")
    it = header.index("theta")
    thetas = {float(l.split(",")[it]) for l in lines[1:]}
    assert thetas == {0.01}


@pytest.mark.parametrize("kind", ["ursf", "prsf"])
def test_filter_integer_theta_writes_float(kind, model_file, tmp_path):
    # a JSON integer theta is the float it stands for, in every cell
    data = tmp_path / "data.csv"
    np.savetxt(data, np.random.default_rng(1).standard_normal((5, 1)),
               delimiter=",")
    outputs = []
    for theta in ("0", "0.0"):
        cfg = tmp_path / f"fc{theta}.json"
        cfg.write_text('{"kind": "%s", "theta": %s}' % (kind, theta))
        out = tmp_path / f"steps{theta}.csv"
        assert main(["filter", "--model", model_file, "--config", str(cfg),
                     "--data", str(data), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_filter_empty_data(model_file, tmp_path):
    cfg = tmp_path / "fc.json"
    cfg.write_text(json.dumps({"kind": "kf"}))
    data = tmp_path / "data.csv"
    data.write_text("")
    out = str(tmp_path / "steps.csv")
    rc = main(["filter", "--model", model_file, "--config", str(cfg),
               "--data", str(data), "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 1  # header only


def test_filter_bad_column_count(model_file, tmp_path):
    cfg = tmp_path / "fc.json"
    cfg.write_text(json.dumps({"kind": "kf"}))
    data = tmp_path / "data.csv"
    data.write_text("0.1,0.2\n")
    rc = main(["filter", "--model", model_file, "--config", str(cfg),
               "--data", str(data), "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_bench_reproducible(tmp_path):
    outdir = str(tmp_path / "bench1")
    rc = main(["bench", "--trials", "10", "--horizon", "20", "--seed", "7",
               "--scenarios", "drift", "--out", outdir])
    assert rc == 0
    first = open(os.path.join(outdir, "bench_drift.csv")).read()
    outdir2 = str(tmp_path / "bench2")
    rc = main(["bench", "--trials", "10", "--horizon", "20", "--seed", "7",
               "--scenarios", "drift", "--out", outdir2])
    assert rc == 0
    second = open(os.path.join(outdir2, "bench_drift.csv")).read()
    assert first == second


def test_lf_build_and_simulate(model_file, tmp_path):
    out = str(tmp_path / "lf")
    rc = main(["lf", "both", "--model", model_file, "--c", "0.05",
               "--horizon", "10", "--trajectories", "2", "--seed", "3",
               "--out", out])
    assert rc == 0
    payload = json.loads(open(out + ".json").read())
    assert payload["N"] == 10
    assert len(payload["Abar"]) == 11
    lines = open(out + ".csv").read().strip().splitlines()
    assert len(lines) == 1 + 2 * 11


def test_manifests_record_schedule_cycles(model_file, tmp_path):
    model = LinearGaussianModel(**MODEL_A)

    def cycle(kind, N, **budget):
        found = covariance_schedule(
            model, FilterConfig(kind=kind, **budget), np.eye(2), N).cycle
        return found and list(found)

    def manifest(out):
        return json.loads(open(out + ".manifest.json").read())

    cfg = tmp_path / "fc.json"
    cfg.write_text(json.dumps({"kind": "kf"}))
    for T in (15, 60):
        data = tmp_path / f"data{T}.csv"
        np.savetxt(data, np.zeros((T, 1)), delimiter=",")
        out = str(tmp_path / f"steps{T}.csv")
        assert main(["filter", "--model", model_file, "--config", str(cfg),
                     "--data", str(data), "--out", out]) == 0
        assert manifest(out)["cycle"] == cycle("kf", T - 1)
    # 15 steps end before model A's kf schedule repeats
    assert manifest(str(tmp_path / "steps15.csv"))["cycle"] is None
    out = str(tmp_path / "wc.csv")
    assert main(["worstcase", "--model", model_file, "--theta", "0.05",
                 "--horizon", "60", "--out", out]) == 0
    assert manifest(out)["cycles"] == [
        {"budget": ["theta", 0.05], "kf": cycle("kf", 60),
         "update": cycle("ursf", 60, theta=0.05),
         "prediction": cycle("prsf", 60, theta=0.05)}]
    out = str(tmp_path / "lf.json")
    assert main(["lf", "build", "--model", model_file, "--theta", "0.05",
                 "--horizon", "60", "--out", out]) == 0
    found = cycle("ursf", 60, theta=0.05)
    assert found is not None and manifest(out)["cycle"] == found


@pytest.mark.parametrize("command", ["filter", "lf"])
def test_config_hash_covers_init(command, model_file, tmp_path):
    # the hash covers every argument but --out, so --init moves it
    cfg, data = tmp_path / "fc.json", tmp_path / "data.csv"
    cfg.write_text('{"kind": "urkf", "c": 0.05}')
    data.write_text("0.1\n0.2\n")
    init = tmp_path / "init.json"
    init.write_text('{"mean": [0, 0], "cov": [[0.01, 0], [0, 0.01]]}')
    argv = (["filter", "--model", model_file, "--config", str(cfg),
             "--data", str(data)] if command == "filter" else
            ["lf", "build", "--model", model_file, "--c", "0.05",
             "--horizon", "5"])

    def config_hash(extra, name):
        out = str(tmp_path / name)
        assert main(argv + extra + ["--out", out]) == 0
        return json.loads(open(out + ".manifest.json").read())["config_hash"]

    plain = config_hash([], "a")
    assert config_hash([], "b") == plain
    assert config_hash(["--init", str(init)], "c") != plain


def test_lf_init_sets_the_filter_prior(model_file, tmp_path):
    # criterion 06's setting: P0 = 0.01 I for the schedule and for x_0
    model = LinearGaussianModel(**MODEL_A)
    init = tmp_path / "init.json"
    init.write_text('{"mean": [0, 0], "cov": [[0.01, 0], [0, 0.01]]}')
    outs = {}
    for name, extra in (("plain", []), ("init", ["--init", str(init)])):
        outs[name] = str(tmp_path / name)
        assert main(["lf", "both", "--model", model_file, "--c", "0.05",
                     "--horizon", "30", "--seed", "3", "--out", outs[name]]
                    + extra) == 0
    fwd = covariance_schedule(model, FilterConfig(kind="urkf", c=0.05),
                              0.01 * np.eye(2), 30)
    lf = assemble_lf(fwd, backward_pass(fwd, model), model)
    payload = json.loads(open(outs["init"] + ".json").read())
    for key in ("Xi", "Abar", "Bbar", "Cbar", "Dbar"):
        assert payload[key] == getattr(lf, key).tolist()
    plain = json.loads(open(outs["plain"] + ".json").read())
    assert plain["Abar"] != payload["Abar"]


def test_lf_requires_budget(model_file, tmp_path):
    rc = main(["lf", "build", "--model", model_file,
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_risk_sensitive_worstcase(tmp_path):
    model = validate(LinearGaussianModel(
        A=[[0.1, 1.0], [0.0, 0.95]], C=[[1.0, -1.0]],
        Q=[[0.9050, 0.8575], [0.8575, 1.7225]], R=[[1.0]]))
    mf = tmp_path / "m47.json"
    save_model(model, mf)
    out = str(tmp_path / "rs.csv")
    rc = main(["worstcase", "--model", str(mf), "--theta", "3.4e-3",
               "--horizon", "350", "--filters", "kf,prsf,ursf", "--out", out])
    assert rc == 0
    rows = [l.split(",") for l in open(out).read().strip().splitlines()]
    header, last = rows[0], rows[-1]
    i = {name: header.index(name) for name in
         ("var_kf", "var_prsf", "var_ursf")}
    assert float(last[i["var_ursf"]]) < float(last[i["var_prsf"]]) \
        < float(last[i["var_kf"]])


# invalid invocations; {name} stands for an input file the test writes
BAD_INPUTS = {
    "unknown_filter_name":
        "worstcase --model {model} --c 0.1 --filters kf,prkf,bogus",
    "worstcase_no_filters": "worstcase --model {model} --c 0.1 --filters ,",
    "worstcase_repeated_filter":
        "worstcase --model {model} --c 0.1 --filters kf,kf",
    "worstcase_negative_c": "worstcase --model {model} --c -1",
    "worstcase_negative_theta": "worstcase --model {model} --theta -0.1",
    "worstcase_infinite_theta": "worstcase --model {model} --theta inf",
    "worstcase_nan_c": "worstcase --model {model} --c nan",
    "worstcase_negative_horizon":
        "worstcase --model {model} --c 0.1 --horizon -3",
    "bench_nan_c": "bench --trials 5 --horizon 5 --c nan --scenarios drift",
    "bench_unknown_scenario":
        "bench --trials 5 --horizon 5 --scenarios drift,bogus",
    "lf_negative_theta": "lf build --model {model} --theta -0.1",
    "lf_negative_horizon": "lf build --model {model} --c 0.05 --horizon -1",
    "lf_negative_trajectories":
        "lf simulate --model {model} --c 0.05 --trajectories -2",
    "config_nan_theta":
        "filter --model {model} --config {nan_config} --data {data}",
    "model_nan_entry":
        "filter --model {nan_model} --config {config} --data {data}",
    "data_nan_row": "filter --model {model} --config {config} --data {nan_data}",
    "data_inf_row": "filter --model {model} --config {config} --data {inf_data}",
    "init_nan_mean": ("filter --model {model} --config {config} --data {data} "
                      "--init {nan_init}"),
    "init_indefinite_cov": ("filter --model {model} --config {config} "
                            "--data {data} --init {indefinite_init}"),
    "config_not_object":
        "filter --model {model} --config {list_config} --data {data}",
    "config_missing_kind":
        "filter --model {model} --config {empty_config} --data {data}",
    "config_string_c":
        "filter --model {model} --config {string_c_config} --data {data}",
    "config_bool_theta":
        "filter --model {model} --config {bool_theta_config} --data {data}",
    "config_huge_c":
        "filter --model {model} --config {huge_c_config} --data {data}",
    "config_not_json":
        "filter --model {model} --config {not_json} --data {data}",
    "model_not_json": "filter --model {not_json} --config {config} --data {data}",
    "config_unknown_key":
        "filter --model {model} --config {typo_config} --data {data}",
    "config_solver_tol":
        "filter --model {model} --config {solver_tol_config} --data {data}",
    "model_not_object":
        "filter --model {list_model} --config {config} --data {data}",
    "model_unknown_key":
        "filter --model {extra_key_model} --config {config} --data {data}",
    "init_dimension_mismatch": ("filter --model {model} --config {config} "
                                "--data {data} --init {init_3d}"),
    "lf_build_init_dimension_mismatch":
        "lf build --model {model} --c 0.05 --init {init_3d}",
    "lf_simulate_init_dimension_mismatch":
        "lf simulate --model {model} --c 0.05 --init {init_3d}",
    "init_not_object": ("filter --model {model} --config {config} "
                        "--data {data} --init {list_config}"),
    "lf_both_indefinite_init":
        "lf both --model {model} --c 0.05 --init {indefinite_init}",
    "bounds_cmax_k_below_n": "bounds --model {model} --mode cmax --k 1",
    "bounds_cmax_negative_k": "bounds --model {model} --mode cmax --k -5",
    "bounds_cmax_negative_q": "bounds --model {model} --mode cmax --q -1",
    "bounds_thetamax_k_below_n": "bounds --model {model} --mode thetamax --k 1",
    # integers past the 4300 digits Python converts, or too large for a float
    "config_5001_digit_c":
        "filter --model {model} --config {long_int_config} --data {data}",
    "model_5001_digit_entry":
        "bounds --model {long_int_model} --mode thetamax",
    "init_5001_digit_mean": ("filter --model {model} --config {config} "
                             "--data {data} --init {long_int_init}"),
    "model_400_digit_entry": "bounds --model {huge_model} --mode cmax",
    "init_400_digit_mean": ("filter --model {model} --config {config} "
                            "--data {data} --init {huge_init}"),
    "init_string_mean": ("filter --model {model} --config {config} "
                         "--data {data} --init {string_init}"),
    "bench_negative_seed":
        "bench --trials 5 --horizon 5 --seed -1 --scenarios drift",
    "lf_simulate_negative_seed": "lf simulate --model {model} --c 0.05 --seed -1",
    "lf_both_negative_seed": "lf both --model {model} --c 0.05 --seed -1",
    "data_not_utf8":
        "filter --model {model} --config {config} --data {not_utf8_data}",
    "data_oversized_field":
        "filter --model {model} --config {config} --data {oversized_data}",
    # a 3-D C, and string or bool entries that numpy would read as 1.0
    "model_3d_c_filter":
        "filter --model {model_3d_c} --config {config} --data {data}",
    "model_3d_c_worstcase": "worstcase --model {model_3d_c} --c 0.1",
    "model_3d_c_bounds": "bounds --model {model_3d_c} --mode cmax",
    "model_string_entry":
        "filter --model {string_model} --config {config} --data {data}",
    "model_bool_entry":
        "filter --model {bool_model} --config {config} --data {data}",
    "init_string_number_mean": ("filter --model {model} --config {config} "
                                "--data {data} --init {string_number_init}"),
    # S - S.T overflows on the far-from-symmetric covariance
    "init_asymmetric_huge": ("filter --model {model} --config {config} "
                             "--data {data} --init {asymmetric_huge_init}"),
}

SCALAR = {"A": [[0.5]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_validation_error(case, model_file, tmp_path):
    files = {
        "config": '{"kind": "kf"}',
        "nan_config": '{"kind": "ursf", "theta": NaN}',
        "nan_model": json.dumps(dict(MODEL_A, A=[[0.1, float("nan")],
                                                 [0.0, 0.6]])),
        "data": "0.1\n0.2\n",
        "nan_data": "0.1\nnan\n",
        "inf_data": "0.1\ninf\n",
        "nan_init": '{"mean": [0.0, NaN], "cov": [[1.0, 0.0], [0.0, 1.0]]}',
        "indefinite_init": '{"mean": [0, 0], "cov": [[1, 2], [2, 1]]}',
        "list_config": "[1]",
        "empty_config": "{}",
        "string_c_config": '{"kind": "urkf", "c": "0.1"}',
        "bool_theta_config": '{"kind": "ursf", "theta": true}',
        "typo_config": '{"kind": "kf", "thta": 0.1}',
        "huge_c_config": '{"kind": "urkf", "c": 1%s}' % ("0" * 400),
        "not_json": "kind: kf",
        "solver_tol_config": '{"kind": "urkf", "c": 0.1, "solver_tol": -1}',
        "list_model": "[1, 2]",
        "extra_key_model": json.dumps(dict(MODEL_A, B=[[1.0], [0.0]])),
        "init_3d": json.dumps({"mean": [0, 0, 0], "cov": np.eye(3).tolist()}),
        "long_int_config": '{"kind": "urkf", "c": 1%s}' % ("0" * 5000),
        "long_int_model": json.dumps(MODEL_A).replace("0.6]", "1%s]" % ("0" * 5000)),
        "long_int_init": '{"mean": [0, 1%s], "cov": [[1, 0], [0, 1]]}' % ("0" * 5000),
        "huge_model": json.dumps(MODEL_A).replace("0.6]", "1%s]" % ("0" * 400)),
        "huge_init": '{"mean": [0, 1%s], "cov": [[1, 0], [0, 1]]}' % ("0" * 400),
        "string_init": '{"mean": [0, "a"], "cov": [[1, 0], [0, 1]]}',
        "model_3d_c": json.dumps(dict(SCALAR, C=[[[1.0]]])),
        "string_model": json.dumps(dict(SCALAR, Q=[["1"]])),
        "bool_model": json.dumps(dict(SCALAR, A=[[True]])),
        "string_number_init": '{"mean": [0, "1"], "cov": [[1, 0], [0, 1]]}',
        "asymmetric_huge_init":
            '{"mean": [0, 0], "cov": [[1, -1e308], [1e308, 1]]}',
        "not_utf8_data": b"0.1\n\xff\n",
        # one field past the csv module's 131072-character limit
        "oversized_data": "0.1\n" + "0" * 140000 + "\n",
    }
    paths = {"model": model_file}
    for name, text in files.items():
        paths[name] = str(tmp_path / name)
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    out = str(tmp_path / "out")
    argv = [w.format(**paths) for w in BAD_INPUTS[case].split()]
    assert main(argv + ["--out", out]) == 2
    assert not any(os.path.exists(out + ext)
                   for ext in ("", ".json", ".csv", ".manifest.json"))


# a model whose unobserved first state grows tenfold per step: the
# predicted covariance overflows after about 150 steps
DIVERGENT = {"A": [[10, 0], [0, 0.5]], "C": [[0, 1]],
             "Q": [[1, 0], [0, 1]], "R": [[1]]}


# finite models whose bound computations overflow: Q^{1/2} squares past the
# largest float in the window stacks, and the solves with R = 1e-320 do
HUGE_Q = dict(SCALAR, Q=[[1e308]])
TINY_R = dict(SCALAR, R=[[1e-320]])


@pytest.mark.parametrize("command, model, message", [
    ("filter --model {model} --config {config} --data {data}", DIVERGENT,
     "filter step failed at t="),
    ("worstcase --model {model} --theta 0.01 --horizon 400 --filters kf",
     DIVERGENT, "filter step failed at t="),
] + [(f"bounds --model {{model}} --mode {mode}", model, "stacks are not finite")
     for model in (HUGE_Q, TINY_R) for mode in ("cmax", "thetamax")],
    ids=["filter", "worstcase", "bounds_cmax_huge_q", "bounds_thetamax_huge_q",
         "bounds_cmax_tiny_r", "bounds_thetamax_tiny_r"])
def test_overflowing_covariance_is_numerical_failure(command, model, message,
                                                     tmp_path, capsys):
    paths = {name: str(tmp_path / name) for name in ("model", "config", "data")}
    (tmp_path / "model").write_text(json.dumps(model))
    (tmp_path / "config").write_text('{"kind": "kf"}')
    (tmp_path / "data").write_text("0.1\n" * 400)
    out = str(tmp_path / "out")
    argv = [w.format(**paths) for w in command.split()]
    assert main(argv + ["--out", out]) == 3
    assert message in capsys.readouterr().err
    assert not any(os.path.exists(out + ext) for ext in ("", ".manifest.json"))


@pytest.mark.parametrize("scenarios", ["", " , ", "drift,drift"])
def test_bench_empty_or_repeated_scenarios_write_nothing(scenarios, tmp_path):
    out = tmp_path / "out"
    rc = main(["bench", "--trials", "5", "--horizon", "5",
               "--scenarios", scenarios, "--out", str(out)])
    assert rc == 2
    assert not out.exists()


# extreme but finite noises: tr(P^2) of the filter's covariances overflows,
# and one of theta_max's doubling steps meets a singular I + G H
EXTREME_NOISE = {"A": [[0.5, 0.1], [0.0, 0.5]], "C": [[1.0, 1.0]],
                 "Q": [[1e300, 0.0], [0.0, 1.0]], "R": [[1e300]]}


def test_budget_solve_at_extreme_noise(tmp_path):
    (tmp_path / "model").write_text(json.dumps(EXTREME_NOISE))
    (tmp_path / "config").write_text('{"kind": "urkf", "c": 0.1}')
    (tmp_path / "data").write_text("0.1\n" * 30)
    model = str(tmp_path / "model")
    assert main(["filter", "--model", model, "--config",
                 str(tmp_path / "config"), "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "f.csv")]) == 0
    assert main(["worstcase", "--model", model, "--c", "0.01", "--channel",
                 "--horizon", "30", "--out", str(tmp_path / "w.csv")]) == 0
    for name in ("f.csv", "w.csv"):
        with open(tmp_path / name) as f:
            thetas = [float(row["theta"]) for row in csv.DictReader(f)]
        assert len(thetas) == (30 if name == "f.csv" else 31)
        assert all(0.0 < th < math.inf for th in thetas)


def test_bounds_thetamax_singular_doubling_step(tmp_path, capsys):
    # the pair whose doubling meets a singular system counts as
    # beta* = -inf like an overflowed one; here no pair is left, as the
    # others fail the SIGMA_COND_MAX cap
    (tmp_path / "model").write_text(json.dumps(EXTREME_NOISE))
    out = str(tmp_path / "t.json")
    assert main(["bounds", "--model", str(tmp_path / "model"),
                 "--mode", "thetamax", "--out", out]) == 3
    assert "empty admissible search set" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["model"]


def test_filter_init_beyond_half_the_largest_float(model_file, tmp_path,
                                                   capsys):
    # the covariance is symmetric to tolerance and positive definite, so it
    # is a valid belief; the filter's first step then overflows
    (tmp_path / "init").write_text(
        '{"mean": [0, 0], "cov": [[1e308, 1.0], [1.0000001, 1.0]]}')
    (tmp_path / "config").write_text('{"kind": "urkf", "c": 0.1}')
    (tmp_path / "data").write_text("0.1\n0.2\n")
    out = str(tmp_path / "f.csv")
    assert main(["filter", "--model", model_file, "--config",
                 str(tmp_path / "config"), "--data", str(tmp_path / "data"),
                 "--init", str(tmp_path / "init"), "--out", out]) == 3
    assert "filter step failed at t=0" in capsys.readouterr().err
    assert not os.path.exists(out)
