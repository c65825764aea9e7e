import importlib.util
import json
import pathlib

_PATH = pathlib.Path(__file__).parents[1] / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _digest_dir(root, exits, files):
    """An OUT_DIR holding ``digest.txt`` and the given outputs."""
    (root / "out").mkdir(parents=True)
    for name, text in files.items():
        (root / "out" / name).write_text(text)
    lines = [f"exit {code}  {cmd}" for cmd, code in exits.items()]
    lines += [f"{hash(text)}  {name}" for name, text in files.items()]
    (root / "digest.txt").write_text("\n".join(lines) + "\n")
    return root


def test_compare_reports_exits_files_and_relative_differences(tmp_path):
    csv_old = "kind,t,var\nc,0,2.0\nc,1,-4.0\n"
    csv_new = "kind,t,var\nc,0,2.0\nc,1,-4.000000000000002\n"
    old = _digest_dir(tmp_path / "old", {"lf a": 0, "bounds b": 0}, {
        "a.csv": csv_old, "b.json": json.dumps({"x": [[1.0, 2.0]], "s": "k"}),
        "gone.csv": "t\n0\n"})
    new = _digest_dir(tmp_path / "new", {"lf a": 3, "bounds b": 0}, {
        "a.csv": csv_new, "b.json": json.dumps({"x": [[1.0, 2.0]], "s": "j"}),
        "added.csv": "t\n0\n"})
    assert output_digest.compare(old, new) == [
        "exit 0 -> exit 3  lf a",
        "4.44e-16  a.csv  var",
        "only in new  added.csv",
        "text  b.json  s",
        "only in old  gone.csv",
    ]
    assert output_digest.compare(old, old) == []


def test_field_difference_scales_by_the_old_field():
    assert output_digest.field_difference([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert output_digest.field_difference([0.0], [1e-300]) == float("inf")
    assert output_digest.field_difference([2.0, -4.0], [2.0, -3.0]) == 0.25
    assert output_digest.field_difference([1.0], [1.0, 2.0]) == "shape"
    assert output_digest.field_difference(["nan"], ["nan"]) == 0.0
