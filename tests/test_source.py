import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "playwm"


def test_no_assert_statements_in_package():
    """Runtime checks raise; `python -O` strips assert statements."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/playwm: {found}"


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the only runtime dependency; other installed packages must not
    creep in unnoticed."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "playwm"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the stdlib and numpy in src/playwm: {found}"
