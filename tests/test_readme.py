"""The README's Python examples run as written, in order, in one namespace,
and its CLI examples run as written, so a change to the API or the commands
they show cannot leave them stale."""

import json
import pathlib
import re
import shlex

import numpy as np

from resilientkf.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(),
                        re.M | re.S)
    block, = [b for b in blocks if "resilientkf " in b]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("resilientkf ")]
    assert len(commands) == 6
    # the inputs the commands name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps({
        "A": [[0.1, 1.0], [0.0, 0.6]], "C": [[1.0, -1.0]],
        "Q": [[0.9050, 0.8150], [0.8150, 0.7450]], "R": [[1.0]]}))
    (tmp_path / "fc.json").write_text('{"kind": "urkf", "c": 0.05}')
    np.savetxt(tmp_path / "y.csv",
               np.random.default_rng(0).standard_normal((50, 1)),
               delimiter=",")
    for command in commands:
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, command
        out = argv[argv.index("--out") + 1]
        written = [p for p in tmp_path.rglob("*") if p.is_file()
                   and str(p.relative_to(tmp_path)).startswith(out.rstrip("/"))
                   and not p.name.endswith(".manifest.json")]
        assert written, command
