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


def test_traced_layers_resolve():
    """Every (module, attribute) that the benchmark's tracer wraps exists in
    playwm, defined on the module or class itself as the tracer requires, so
    a refactor cannot silently break a traced benchmark run."""
    import importlib

    tracing = SRC.parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    layers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets))
    entries = [(entry.elts[0].value, entry.elts[1].value) for entry in layers.elts]
    assert len(entries) > 10
    missing = []
    for module, path in entries:
        owner = importlib.import_module(f"playwm.{module}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert not missing, f"traced layers missing from playwm: {missing}"
