"""Digest of every CLI output on a fixed command set.

    PYTHONPATH=src python tools/output_digest.py OUT_DIR > digest.txt
    python tools/output_digest.py --compare OLD_DIR NEW_DIR

Writes seeded inputs under ``OUT_DIR/in``, runs a fixed list of commands
in-process through ``resilientkf.cli.main`` with outputs under
``OUT_DIR/out``, then prints one ``exit <code> <stderr hash>  <command>``
line per command and one ``<sha256>  <path>`` line per output file
(manifests excluded: they hold timestamps), paths relative to
``OUT_DIR/out``.  The stderr hash is a short hash of what the command wrote
to standard error, such as its failure message, with ``OUT_DIR`` standing
for the directory's path; the text itself is passed on to standard error.
The same lines go to ``OUT_DIR/digest.txt``.  The package is the one on
``PYTHONPATH``, so two checkouts compare by running this script once
against each ``src/`` and diffing the two digests.

``--compare`` reads two such ``OUT_DIR``s and prints how they differ: each
exit code that changed, each stderr hash that changed under the same exit
code, each output present in only one of them, and for each output whose
digest changed the largest relative difference max|a - b| / max|a| over
its numeric CSV columns and JSON arrays (``a`` from ``OLD_DIR``), with the
column or JSON path where it is reached.  A text or shape change is
reported as such.

The command set, 57 commands:

- ``filter``: every kind on model A (T = 300), a seeded 4-state, 2-output
  model (T = 200) and a seeded 9-state, 3-output model (T = 100), and urkf
  with ``--init`` on model A;
- ``worstcase``: two ``--c`` and two ``--theta`` budgets, each with and
  without ``--channel``, on models A and B and the two seeded models,
  ``--theta 0 --theta 0.001 --channel`` on model A and the 4-state model,
  ``--c`` and ``--theta`` budgets mixed in one command on model A and the
  9-state model, each with and without ``--channel``, all five
  ``--filters`` on model A, and ``--filters prkf,urkf`` and ``kf,urkf``
  with ``--channel`` on the 9-state model, and ``--channel`` on a scalar
  model just below its forward theta limit, whose channel synthesis is
  infeasible at t = 18 (exit 3, nothing written);
- ``lf both``: model A at a ``--c`` and a ``--theta`` budget and at
  ``--theta 0``, and the two seeded models at a ``--c`` budget;
- ``bench`` over every scenario: one small run, and one at 2501 trials
  x 200 steps (outputs under ``bench_blocks``);
- ``bounds``: cmax and thetamax on models A and B, cmax on model B with
  ``--k 40``, a window on which phi_k sits just below the pole of S_k,
  cmax on model A with ``--k 80``, a long window, thetamax on the
  9-state model, whose fixed-theta recursion from the certificate's Sigma
  does not repeat within 1000 steps, and thetamax on model B with R = 1000,
  whose best alpha row is alpha = 1.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys

import numpy as np

SEED = 20240601

# Models A and B of the acceptance tests.
MODEL_A = {"A": [[0.1, 1.0], [0.0, 0.6]], "C": [[1.0, -1.0]],
           "Q": [[0.9050, 0.8150], [0.8150, 0.7450]], "R": [[1.0]]}
MODEL_B = {"A": [[0.1, 1.0], [0.0, 0.95]], "C": [[1.0, -1.0]],
           "Q": [[0.9050, 0.8575], [0.8575, 1.7225]], "R": [[1.0]]}


def seeded_model(rng, n, m):
    """A stable, observable n-state, m-output model with PD noises."""
    while True:
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        C = rng.standard_normal((m, n))
        obs = np.vstack([C @ np.linalg.matrix_power(A, j) for j in range(n)])
        B, D = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        if np.linalg.matrix_rank(obs) == n:
            return {"A": A.tolist(), "C": C.tolist(),
                    "Q": (B @ B.T / n + 0.1 * np.eye(n)).tolist(),
                    "R": (D @ D.T / m + 0.1 * np.eye(m)).tolist()}


def measurements(model, T, rng):
    """T observations of the model started from N(0, I), as CSV text."""
    A, C, Q, R = (np.array(model[k]) for k in "ACQR")
    Lq, Lr = np.linalg.cholesky(Q), np.linalg.cholesky(R)
    x = rng.standard_normal(len(A))
    rows = []
    for _ in range(T):
        rows.append(",".join(map(repr, (C @ x + Lr @ rng.standard_normal(len(R)))
                                 .tolist())))
        x = A @ x + Lq @ rng.standard_normal(len(A))
    return "\n".join(rows) + "\n"


def commands(inp, out):
    """Write the inputs under ``inp``; the argv of every command."""
    rng = np.random.default_rng(SEED)

    def write(name, text):
        path = os.path.join(inp, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    # tag -> (model, filter steps, fixed theta of ursf/prsf); at larger
    # theta the fixed-theta recursion can diverge on the 9 x 3 model
    models = {"a": (MODEL_A, 300, 0.05), "b": (MODEL_B, None, None),
              "r4": (seeded_model(rng, 4, 2), 200, 0.01),
              "r9": (seeded_model(rng, 9, 3), 100, 0.001)}
    paths = {tag: write(f"model_{tag}.json", json.dumps(model))
             for tag, (model, _, _) in models.items()}
    cmds = []
    for tag, (model, T, theta) in models.items():
        if T is None:
            continue
        data = write(f"y_{tag}.csv", measurements(model, T, rng))
        budgets = {"kf": {}, "urkf": {"c": 0.1}, "prkf": {"c": 0.1},
                   "ursf": {"theta": theta}, "prsf": {"theta": theta}}
        for kind, budget in budgets.items():
            config = write(f"{kind}_{tag}.json",
                           json.dumps({"kind": kind, **budget}))
            cmds.append(["filter", "--model", paths[tag], "--config", config,
                         "--data", data,
                         "--out", os.path.join(out, f"filter_{kind}_{tag}.csv")])
    init = write("init_a.json", json.dumps(
        {"mean": [1.0, -0.5], "cov": [[2.0, 0.3], [0.3, 0.5]]}))
    cmds.append(["filter", "--model", paths["a"], "--config",
                 os.path.join(inp, "urkf_a.json"), "--data",
                 os.path.join(inp, "y_a.csv"), "--init", init,
                 "--out", os.path.join(out, "filter_urkf_a_init.csv")])
    for tag in models:
        for kind, values in (("c", ("0.01", "0.05")),
                             ("theta", ("0.001", "0.02"))):
            for channel in ((), ("--channel",)):
                name = f"worstcase_{kind}_{tag}{'_channel' if channel else ''}"
                budgets = [w for v in values for w in (f"--{kind}", v)]
                cmds.append(["worstcase", "--model", paths[tag], "--horizon",
                             "100", *budgets, *channel,
                             "--out", os.path.join(out, name + ".csv")])
    # at theta = 0 the backward state stays zero while the gains change
    for tag in ("a", "r4"):
        cmds.append(["worstcase", "--model", paths[tag], "--horizon", "100",
                     "--theta", "0", "--theta", "0.001", "--channel",
                     "--out", os.path.join(out, f"worstcase_theta0_{tag}.csv")])
    # budgets of both kinds in one command, so each side's schedule stack
    # holds budgeted and fixed-theta members
    for tag in ("a", "r9"):
        for channel in ((), ("--channel",)):
            name = f"worstcase_mixed_{tag}{'_channel' if channel else ''}"
            cmds.append(["worstcase", "--model", paths[tag], "--horizon",
                         "100", "--c", "0.01", "--theta", str(models[tag][2]),
                         "--c", "0.05", *channel,
                         "--out", os.path.join(out, name + ".csv")])
    cmds.append(["worstcase", "--model", paths["a"], "--horizon", "100",
                 "--c", "0.05", "--theta", "0.02", "--theta", "0",
                 "--filters", "kf,urkf,prkf,ursf,prsf", "--channel",
                 "--out", os.path.join(out, "worstcase_all_filters_a.csv")])
    # a schedule stack with no kf member, and one with no prediction-side
    # member
    for filters in ("prkf,urkf", "kf,urkf"):
        name = f"worstcase_{filters.replace(',', '_')}_r9"
        cmds.append(["worstcase", "--model", paths["r9"], "--horizon", "100",
                     "--c", "0.05", "--theta", "0.001", "--filters", filters,
                     "--channel", "--out", os.path.join(out, name + ".csv")])
    scalar = write("model_scalar.json", json.dumps(
        {"A": [[2]], "C": [[1]], "Q": [[1]], "R": [[1]]}))
    cmds.append(["worstcase", "--model", scalar, "--theta", "0.999999999991",
                 "--channel", "--filters", "kf,urkf", "--horizon", "20",
                 "--out", os.path.join(out, "worstcase_infeasible_channel.csv")])
    for tag, kind, value, name in (
            ("a", "c", "0.05", "lf_c_a"), ("a", "theta", "0.05", "lf_theta_a"),
            ("a", "theta", "0", "lf_theta0_a"), ("r4", "c", "0.05", "lf_c_r4"),
            ("r9", "c", "0.05", "lf_c_r9")):
        cmds.append(["lf", "both", "--model", paths[tag], f"--{kind}", value,
                     "--horizon", "100", "--trajectories", "20", "--seed", "7",
                     "--out", os.path.join(out, name)])
    cmds.append(["bench", "--trials", "50", "--horizon", "50", "--seed", "3",
                 "--out", os.path.join(out, "bench")])
    cmds.append(["bench", "--trials", "2501", "--horizon", "200", "--seed", "4",
                 "--out", os.path.join(out, "bench_blocks")])
    for tag in ("a", "b"):
        for mode in ("cmax", "thetamax"):
            cmds.append(["bounds", "--model", paths[tag], "--mode", mode,
                         "--out", os.path.join(out, f"bounds_{mode}_{tag}.json")])
    cmds.append(["bounds", "--model", paths["b"], "--mode", "cmax", "--k", "40",
                 "--out", os.path.join(out, "bounds_cmax_b_k40.json")])
    cmds.append(["bounds", "--model", paths["a"], "--mode", "cmax", "--k", "80",
                 "--out", os.path.join(out, "bounds_cmax_a_k80.json")])
    cmds.append(["bounds", "--model", paths["r9"], "--mode", "thetamax",
                 "--out", os.path.join(out, "bounds_thetamax_r9.json")])
    # behind a weak sensor model B's best theta_max row is alpha = 1, so
    # both rho refinements are of that row
    weak = write("model_b_weak.json", json.dumps({**MODEL_B, "R": [[1e3]]}))
    cmds.append(["bounds", "--model", weak, "--mode", "thetamax",
                 "--out", os.path.join(out, "bounds_thetamax_b_weak.json")])
    return cmds


def digest(root):
    """``<sha256>  <path>`` of every non-manifest file under ``root``."""
    lines = []
    for d, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if not name.endswith(".manifest.json"):
                path = os.path.join(d, name)
                with open(path, "rb") as f:
                    sha = hashlib.sha256(f.read()).hexdigest()
                lines.append(f"{sha}  {os.path.relpath(path, root)}")
    return lines


def _csv_columns(path):
    """Column name -> list of cell strings of a headed CSV file."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def _json_leaves(node, path=""):
    """JSON path -> array or scalar, one entry per numeric array."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _json_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list) and any(
            isinstance(v, (dict, str)) for v in node):
        for i, value in enumerate(node):
            yield from _json_leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _fields(path):
    """Named fields of an output: CSV columns or JSON leaves."""
    if path.endswith(".csv"):
        return _csv_columns(path)
    with open(path) as f:
        return dict(_json_leaves(json.load(f)))


def _as_numbers(value):
    """Float array of a field, or None when it is not numeric."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return None


def field_difference(a, b):
    """max|a - b| / max|a| of two fields (inf when a is all zero and b is
    not), or a word when they differ in kind or shape."""
    x, y = _as_numbers(a), _as_numbers(b)
    if x is None or y is None:
        return 0.0 if a == b else "text"
    if x.shape != y.shape:
        return "shape"
    if np.array_equal(x, y, equal_nan=True):
        return 0.0
    scale = np.abs(x).max()
    return np.abs(x - y).max() / scale if scale else np.inf


def file_difference(old, new):
    """(largest relative difference or a word, where) between two outputs."""
    a, b = _fields(old), _fields(new)
    if a.keys() != b.keys():
        return "fields", ", ".join(sorted(a.keys() ^ b.keys()))
    diffs = {name: field_difference(a[name], b[name]) for name in a}
    words = [(d, name) for name, d in diffs.items() if isinstance(d, str)]
    if words:
        return words[0]
    name = max(diffs, key=diffs.get)
    return diffs[name], name


def compare(old_root, new_root):
    """Lines describing how two digest runs differ, empty when they agree."""
    def read(root):
        exits, files = {}, {}
        with open(os.path.join(root, "digest.txt")) as f:
            for line in f.read().splitlines():
                value, key = line.split("  ", 1)
                if value.startswith("exit "):
                    _, code, err = value.split()
                    exits[key] = f"exit {code}", err
                else:
                    files[key] = value
        return exits, files

    (old_exits, old_files), (new_exits, new_files) = read(old_root), read(
        new_root)
    lines = []
    for cmd in sorted(old_exits.keys() | new_exits.keys()):
        (old_code, old_err), (new_code, new_err) = (
            exits.get(cmd, ("none", None)) for exits in (old_exits, new_exits))
        if old_code != new_code:
            lines.append(f"{old_code} -> {new_code}  {cmd}")
        elif old_err != new_err:
            lines.append(f"stderr {old_err} -> {new_err}  {cmd}")
    for path in sorted(old_files.keys() | new_files.keys()):
        if path not in new_files or path not in old_files:
            side = "old" if path in old_files else "new"
            lines.append(f"only in {side}  {path}")
        elif old_files[path] != new_files[path]:
            d, where = file_difference(os.path.join(old_root, "out", path),
                                       os.path.join(new_root, "out", path))
            d = d if isinstance(d, str) else f"{d:.2e}"
            lines.append(f"{d}  {path}  {where}")
    return lines


def exit_line(main, argv, root):
    """Run ``main(argv)``; its ``exit <code> <stderr hash>  <command>``
    line, the command named by its ``--out`` under ``root/out``.  The hash
    is of the command's standard error with ``root`` written as OUT_DIR."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    sys.stderr.write(err.getvalue())
    text = err.getvalue().replace(root, "OUT_DIR")
    target = os.path.relpath(argv[argv.index("--out") + 1],
                             os.path.join(root, "out"))
    return (f"exit {code} {hashlib.sha256(text.encode()).hexdigest()[:12]}"
            f"  {argv[0]} {target}")


def run(root):
    # imported here so that --compare runs without the package
    from resilientkf.cli import main

    inp, out = os.path.join(root, "in"), os.path.join(root, "out")
    os.makedirs(inp, exist_ok=True)
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        raise SystemExit(f"{out} is not empty")
    lines = [exit_line(main, argv, root) for argv in commands(inp, out)]
    lines += digest(out)
    with open(os.path.join(root, "digest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    return lines


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        lines = compare(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 2:
        lines = run(sys.argv[1])
    else:
        raise SystemExit(__doc__)
    print("\n".join(lines))
