"""Every command fails closed on extreme finite inputs.

A fixed grid of 54 two-state models, A = [[a, 0.1], [0, 0.5]],
C = [[c, 1]], Q = diag(q, 1) and R = [[r]] with entries from 1e-300 to
1e300, runs through ``filter``, ``worstcase``, ``lf`` and ``bounds`` in
both modes.  Each run exits 0, 2 or 3, writes nothing unless it exits 0,
and lets no RuntimeWarning out.
"""

import contextlib
import io
import itertools
import json
import os
import warnings

import pytest

from resilientkf.cli import main

GRID = list(itertools.product([0.5, 1e150], [1e-150, 1.0, 1e150],
                              [1e-300, 1.0, 1e300], [1e-300, 1.0, 1e300]))

COMMANDS = {
    "filter": "filter --model {model} --config {config} --data {data}",
    "worstcase": "worstcase --model {model} --c 0.01 --channel --horizon 30",
    "lf": "lf both --model {model} --theta 1e-3",
    "bounds_cmax": "bounds --model {model} --mode cmax",
    "bounds_thetamax": "bounds --model {model} --mode thetamax",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_extreme_models_fail_closed(command, tmp_path):
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "config").write_text('{"kind": "urkf", "c": 0.1}')
    (inputs / "data").write_text(
        "".join(f"{0.1 * ((7 * t) % 11 - 5)!r}\n" for t in range(30)))
    bad = []
    for i, (a, c, q, r) in enumerate(GRID):
        model = inputs / f"model{i}"
        model.write_text(json.dumps({"A": [[a, 0.1], [0.0, 0.5]],
                                     "C": [[c, 1.0]],
                                     "Q": [[q, 0.0], [0.0, 1.0]],
                                     "R": [[r]]}))
        out = tmp_path / f"out{i}"
        out.mkdir()
        argv = COMMANDS[command].format(
            model=model, config=inputs / "config", data=inputs / "data")
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(argv.split() + ["--out", str(out / "o")])
        written = os.listdir(out)
        if rc not in (0, 2, 3) or caught or (rc != 0 and written):
            bad.append(((a, c, q, r), rc,
                        [str(w.message) for w in caught], written))
    assert not bad
