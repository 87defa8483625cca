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


# Stage functions of the play-against-demo study, defined ahead of the
# `playwm run` command that is to call them.
AWAITING_CLI = (
    "bench.run_policy_eval",
    "policies.build_suite",
    "policies.default_suite_spec",
    "curation.coverage_report",
    "bench.PolicyEvalReport.to_csv",
    "curation.CoverageReport.to_csv",
    "metrics.MetricReport.to_csv",
)


def _definitions(path: pathlib.Path):
    """(qualified name, bare name) of each top-level function, class and
    constant of a module, and of each method of its classes."""
    module = path.stem
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_every_package_name_is_referenced():
    """Each function, class, constant and method in src/playwm is read
    somewhere in the package, its tests or the benchmark; a name that nothing
    refers to is dead code."""
    root = SRC.parents[1]
    used = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
    unused = {qual for path in sorted(SRC.glob("*.py")) for qual, name in _definitions(path)
              if name not in used and not name.startswith("__")}
    waiting = set(AWAITING_CLI)
    assert unused <= waiting, f"unreferenced names in src/playwm: {sorted(unused - waiting)}"
    assert waiting <= unused, f"AWAITING_CLI names now read or gone: {sorted(waiting - unused)}"
