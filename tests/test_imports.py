"""No module imports a name it never reads, so removing code cannot leave
dead imports behind.  ``__init__.py`` is exempt: its imports are the
package's exports."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_no_unused_imports():
    paths = [p for d in ("src/resilientkf", "tests")
             for p in sorted((ROOT / d).glob("*.py")) if p.name != "__init__.py"]
    unused = {str(p.relative_to(ROOT)): unused_imports(p) for p in paths}
    assert {p: names for p, names in unused.items() if names} == {}
