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


def test_every_parameter_is_read():
    """Each parameter of a function or lambda in src/playwm is named in its
    body (self and cls aside): an argument that nothing reads is silently
    ignored by every caller that passes it."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            unread += [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}({p})"
                       for p in params if p not in named and p not in ("self", "cls")]
    assert not unread, f"parameters in src/playwm that their function never reads: {unread}"


def test_every_import_is_read():
    """Each name that a src/playwm module imports is read in that module.
    An unread import is dead code, and a by-name import also counts as a
    reference in `test_every_package_name_is_referenced`, so it can keep a
    dead definition alive."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert not unread, f"imports in src/playwm that their module never reads: {unread}"


def test_imports_are_at_module_top():
    """Each import in src/playwm is a statement of its module's body: a
    function-local import hides a module's dependencies from its reader
    until the function runs."""
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set(map(id, tree.body))
        nested += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert not nested, f"imports below module level in src/playwm: {nested}"


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
# `playwm run` command that is to call them, and the report fields that its
# run record is to read.
AWAITING_CLI = (
    "bench.run_policy_eval",
    "policies.build_suite",
    "policies.default_suite_spec",
    "curation.coverage_report",
    "bench.PolicyEvalRow.real_modes",
    "bench.PolicyEvalRow.predicted_modes",
    "bench.PolicyEvalReport.rows",
    "bench.PolicyEvalReport.mean_tv",
    "bench.PolicyEvalReport.flagged",
    "curation.CoverageReport.rows",
    "curation.CoverageReport.hull_area",
    "curation.CoverageReport.mean_pairwise",
    "curation.CoverageReport.mode_counts",
    "dsrl.EvalPoint.updates",
    "dsrl.EvalPoint.env_success",
    "dsrl.EvalPoint.imagined_return",
    "metrics.MetricReport.rows",
    "metrics.MetricReport.per_mode",
)

# Scalar codecs that the program replaced with array twins; tests check the
# twins against them, element by element.
REFERENCES = (
    "statecodec.encode_action",
    "statecodec.decode_action",
    "statecodec.decode_state",
)


def _definitions(path: pathlib.Path):
    """(qualified name, bare name, whether it is a class member) of each
    top-level function, class and constant of a module, and of each method,
    property and annotated field of its classes."""
    module = path.stem
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield f"{module}.{target.id}", target.id, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item.name, True
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{module}.{node.name}.{item.target.id}", item.target.id, True


def _references(root: pathlib.Path, folder: str) -> tuple[set[str], set[str]]:
    """The names that the Python files under root/folder read: (bare names
    and by-name imports, attribute loads `x.name`)."""
    names, attrs = set(), set()
    for path in sorted((root / folder).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def test_every_package_name_is_referenced():
    """Each function, class and constant in src/playwm is read somewhere in
    the package or the benchmark, and so is each method, property and
    annotated field of its classes. A class member counts as read only
    through an attribute load `x.name`: a local variable or parameter of
    the same name does not keep a dead member alive. A name that nothing
    refers to is dead code, and so is one that only tests read, unless it
    is a scalar reference that tests check an array twin against."""
    root = SRC.parents[1]
    src_names, src_attrs = _references(root, "src")
    bench_names, bench_attrs = _references(root, "perfbench")
    attrs = src_attrs | bench_attrs
    names = src_names | bench_names | attrs
    unused = {qual for path in sorted(SRC.glob("*.py"))
              for qual, name, member in _definitions(path)
              if name not in (attrs if member else names) and not name.startswith("__")}
    exempt = set(AWAITING_CLI) | set(REFERENCES)
    assert unused <= exempt, f"names in src/playwm that only tests or nothing read: " \
                             f"{sorted(unused - exempt)}"
    assert exempt <= unused, f"exempt names now read by the program or gone: " \
                             f"{sorted(exempt - unused)}"
    tested = set.union(*_references(root, "tests"))
    untested = [qual for qual in REFERENCES if qual.rsplit(".", 1)[1] not in tested]
    assert not untested, f"REFERENCES names that no test reads: {untested}"
