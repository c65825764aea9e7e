"""Only ``bench`` and ``bounds`` load scipy's linalg and optimize
subpackages: importing the CLI and running ``filter``, ``worstcase`` and
``lf`` must not, so those commands start without paying for them."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

SCRIPT = textwrap.dedent("""
    import json, pathlib, sys
    import resilientkf.cli as cli

    def loaded():
        return sorted(m for m in ("scipy.linalg", "scipy.optimize")
                      if m in sys.modules)

    report = {"import": loaded()}
    pathlib.Path("model.json").write_text(json.dumps({
        "A": [[0.1, 1.0], [0.0, 0.6]], "C": [[1.0, -1.0]],
        "Q": [[0.905, 0.815], [0.815, 0.745]], "R": [[1.0]]}))
    pathlib.Path("fc.json").write_text('{"kind": "urkf", "c": 0.05}')
    pathlib.Path("y.csv").write_text("0.1\\n-0.2\\n0.3\\n")
    report["rc"] = [
        cli.main(["filter", "--model", "model.json", "--config", "fc.json",
                  "--data", "y.csv", "--out", "f.csv"]),
        cli.main(["worstcase", "--model", "model.json", "--c", "0.05",
                  "--horizon", "20", "--channel", "--out", "w.csv"]),
        cli.main(["lf", "both", "--model", "model.json", "--theta", "0.05",
                  "--horizon", "20", "--out", "lf"]),
    ]
    report["commands"] = loaded()
    report["rc"] += [
        cli.main(["bench", "--trials", "3", "--horizon", "5",
                  "--scenarios", "drift", "--out", "b"]),
        cli.main(["bounds", "--model", "model.json", "--mode", "cmax",
                  "--out", "c.json"]),
    ]
    print(json.dumps(report))
""")


def test_filter_worstcase_lf_load_no_scipy_linalg_or_optimize(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["import"] == [] and report["commands"] == []
    assert report["rc"] == [0] * 5
