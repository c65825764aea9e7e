"""Output checks for the benchmark's commands.

Every check reads what a command wrote and recomputes the property it
asserts with its own numpy code, not with the library under test.  The one
exception is ``sigma_beta``, which the theta_max check recomputes with the
library on purpose: the report must reproduce its own certificate.  Each
check returns the number of model time steps the output holds and raises
``CheckFailed`` when the output is wrong.
"""

import csv
import json

import numpy as np


class CheckFailed(Exception):
    """An output does not have the property its check asserts."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_table(path):
    """Header and string rows of a CSV file."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    require(len(rows) >= 1, f"{path}: empty CSV")
    return rows[0], rows[1:]


def numeric_columns(header, rows, names):
    cols = [header.index(nm) for nm in names]
    data = np.array([[float(r[c]) for c in cols] for r in rows])
    require(data.size == 0 or np.isfinite(data).all(), "non-finite value in output")
    return data


def kl_budget(P, theta):
    """gamma(P, theta) in its eigenvalue form 1/2 sum[x/(1-x) + log1p(-x)]."""
    x = theta * np.linalg.eigvalsh(0.5 * (P + P.T))
    require(x.max() < 1.0, "theta * sigma_max(P) >= 1")
    return 0.5 * float(np.sum(x / (1.0 - x) + np.log1p(-x)))


def _filter_rows(path, n, m, T):
    header, rows = read_table(path)
    require(len(rows) == T, f"filter wrote {len(rows)} rows, expected {T}")
    data = numeric_columns(header, rows, header)
    gain = data[:, 2:2 + n * m]
    mean_filt = data[:, 2 + n * m:2 + n * m + n]
    mean_pred = data[:, 2 + n * m + n:2 + n * m + 2 * n]
    cov_filt = data[:, 2 + n * m + 2 * n:].reshape(T, n, n)
    return data[:, 1], gain, mean_filt, mean_pred, cov_filt


def filter_budget_identity(path, model, T, c):
    """urkf rows: theta solves gamma(cov_filt, theta) = c at every step."""
    n, m = model["A"].shape[0], model["C"].shape[0]
    thetas, _, _, _, covs = _filter_rows(path, n, m, T)
    for t in range(T):
        g = kl_budget(covs[t], thetas[t])
        require(abs(g - c) <= 1e-6 * c,
                f"t={t}: budget {g!r} differs from c={c!r}")
    return T


def filter_matches_reference_kf(path, model, ys):
    """kf rows equal a textbook Kalman filter from N(0, I)."""
    A, C, Q, R = model["A"], model["C"], model["Q"], model["R"]
    n, m = A.shape[0], C.shape[0]
    T = len(ys)
    thetas, gains, means_f, means_p, covs = _filter_rows(path, n, m, T)
    require(np.all(thetas == 0.0), "kf rows report a nonzero theta")
    x, P = np.zeros(n), np.eye(n)
    for t in range(T):
        S = C @ P @ C.T + R
        K = np.linalg.solve(S, C @ P).T
        xf = x + K @ (ys[t] - C @ x)
        Pf = P - K @ C @ P
        Pf = 0.5 * (Pf + Pf.T)
        for got, ref, what in ((gains[t], K.ravel(), "gain"),
                               (means_f[t], xf, "mean_filt"),
                               (means_p[t], A @ xf, "mean_pred"),
                               (covs[t], Pf, "cov_filt")):
            err = np.abs(got - ref).max()
            require(err <= 1e-8 * (1.0 + np.abs(ref).max()),
                    f"t={t}: {what} differs from the reference by {err:.3g}")
        x, P = A @ xf, A @ Pf @ A.T + Q
    return T


def filter_shape(path, model, T, theta=None):
    """Row count, finiteness and, for fixed-theta kinds, the theta column."""
    n, m = model["A"].shape[0], model["C"].shape[0]
    thetas = _filter_rows(path, n, m, T)[0]
    if theta is not None:
        require(np.all(thetas == theta), "theta column differs from the config")
    return T


def worstcase_series(path, filters, budgets, N, saddle):
    """Row count and positive variances; under the saddle adversary the
    urkf variance is the smallest at every t."""
    header, rows = read_table(path)
    require(len(rows) == budgets * (N + 1),
            f"worstcase wrote {len(rows)} rows, expected {budgets * (N + 1)}")
    var = numeric_columns(header, rows, [f"var_{f}" for f in filters])
    require(np.all(var > 0), "nonpositive worst-case variance")
    if saddle:
        ur = var[:, filters.index("urkf")]
        others = np.delete(var, filters.index("urkf"), axis=1).min(axis=1)
        worst = int(np.argmax(ur - others))
        require(np.all(ur <= others * (1.0 + 1e-9)),
                f"row {worst}: var_urkf {ur[worst]!r} exceeds {others[worst]!r}")
    return len(rows) * len(filters)


def lf_outputs(prefix, n, m, N, trajectories):
    """Matrix shapes of the channel model and one CSV row per (traj, t)."""
    with open(prefix + ".json") as f:
        lf = json.load(f)
    require((lf["n"], lf["m"], lf["N"]) == (n, m, N), "lf header mismatch")
    require(np.shape(lf["Xi"]) == (n + m, n + m), "Xi shape")
    for key, shape in (("Abar", (3 * n, 3 * n)), ("Bbar", (3 * n, n + m)),
                       ("Cbar", (m, 3 * n)), ("Dbar", (m, n + m))):
        require(np.shape(lf[key]) == (N + 1,) + shape, f"{key} shape")
    _, rows = read_table(prefix + ".csv")
    require(len(rows) == trajectories * (N + 1),
            f"lf wrote {len(rows)} rows, expected {trajectories * (N + 1)}")
    return len(rows)


def bench_ordering(outdir, scenarios, trials, horizon):
    """urkf beats kf on every fault scenario and loses on nominal."""
    steps = 0
    for kind in scenarios:
        with open(f"{outdir}/bench_{kind}.json") as f:
            rep = json.load(f)
        require((rep["trials"], rep["horizon"]) == (trials, horizon),
                f"{kind}: trials/horizon mismatch")
        ta = rep["time_averaged"]
        ratio = ta["urkf"] / ta["kf"]
        if kind == "nominal":
            require(ratio > 1.0, f"nominal: urkf/kf = {ratio:.4f}, kf should win")
        else:
            require(ratio < 1.0, f"{kind}: urkf/kf = {ratio:.4f}, urkf should win")
        steps += trials * horizon * len(ta)
    return steps


def c_max_report(path):
    """c_max = gamma(P_bar_{q|q}, phi_k)."""
    with open(path) as f:
        rep = json.load(f)
    want = kl_budget(np.array(rep["pbar_qq"]), rep["phi_k"])
    require(abs(rep["c_max"] - want) <= 1e-8 * want,
            f"c_max {rep['c_max']!r} differs from gamma(pbar, phi_k) = {want!r}")
    return 1


def theta_max_report(path, model):
    """theta_max = min(beta, phi_k), and beta is the certificate's own."""
    from resilientkf import LinearGaussianModel
    from resilientkf.stability import sigma_beta

    with open(path) as f:
        rep = json.load(f)
    require(rep["theta_max"] == min(rep["beta"], rep["phi_k"]),
            "theta_max differs from min(beta, phi_k)")
    _, beta = sigma_beta(LinearGaussianModel(**model), np.array(rep["G"]),
                         rep["alpha"], rep["rho"])
    require(abs(beta - rep["beta"]) <= 1e-9 * abs(beta),
            f"reported beta {rep['beta']!r}, certificate gives {beta!r}")
    return 1


def certificate_verified(path, model):
    """Whether prop6_guard accepts the report's certificate at theta_max
    from P0 = Sigma / 2."""
    from resilientkf import LinearGaussianModel
    from resilientkf.stability import prop6_guard

    with open(path) as f:
        rep = json.load(f)
    ok, _ = prop6_guard(LinearGaussianModel(**model), rep["theta_max"],
                        0.5 * np.array(rep["sigma"]), np.array(rep["G"]),
                        rep["alpha"], rep["rho"])
    return ok
