"""The package needs numpy alone: with every scipy import made to fail,
importing the CLI, running each of its five commands (``bounds`` in both
modes) and running the demos must still succeed."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# a None entry in sys.modules makes every ``import scipy...`` raise
NO_SCIPY = 'import sys; sys.modules["scipy"] = None\n'

SCRIPT = NO_SCIPY + textwrap.dedent("""
    import json, pathlib
    import resilientkf.cli as cli

    def loaded():
        return sorted(m for m, mod in sys.modules.items()
                      if m.split(".")[0] == "scipy" and mod is not None)

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
        cli.main(["bench", "--trials", "3", "--horizon", "5",
                  "--scenarios", "drift", "--out", "b"]),
        cli.main(["bounds", "--model", "model.json", "--mode", "cmax",
                  "--out", "c.json"]),
        cli.main(["bounds", "--model", "model.json", "--mode", "thetamax",
                  "--out", "t.json"]),
    ]
    report["commands"] = loaded()
    print(json.dumps(report))
""")


def _run(code, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def test_filter_worstcase_lf_load_no_scipy_linalg_or_optimize(tmp_path):
    proc = _run(SCRIPT, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["import"] == [] and report["commands"] == []
    assert report["rc"] == [0] * 6


@pytest.mark.parametrize("demo", ["msd_benchmark", "stability_bounds",
                                  "worst_case_analysis"])
def test_demo_runs_without_scipy(demo, tmp_path):
    path = os.path.join(ROOT, "demos", demo + ".py")
    proc = _run(NO_SCIPY + f"import runpy; runpy.run_path({path!r}, "
                "run_name='__main__')", tmp_path)
    assert proc.returncode == 0, proc.stderr
