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


def _absolute_imports():
    """(where, top-level module) of each absolute import in src/playwm."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno} {name}", name.split(".")[0])
                        for name in names)


def test_package_imports_only_stdlib_and_numpy():
    """numpy is the only runtime dependency; other installed packages must not
    creep in unnoticed."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "playwm"}
    found = [where for where, top in _absolute_imports() if top not in allowed]
    assert not found, f"imports outside the stdlib and numpy in src/playwm: {found}"


def test_package_runs_on_one_thread():
    """src/playwm imports no module that starts threads or processes or
    runs an event loop. The benchmark's clock is the main thread's CPU time
    (`perfbench/yardstick.py`), so work moved to another thread or process
    would read as a speed-up that did not happen."""
    banned = {"threading", "_thread", "multiprocessing", "concurrent", "asyncio"}
    found = [where for where, top in _absolute_imports() if top in banned]
    assert not found, f"thread, process or event-loop imports in src/playwm: {found}"


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


# The modules that build states: the simulator's own types, and the codec
# that builds them from arrays for the store and the world model.
STATE_BUILDERS = {"scene.py", "statecodec.py"}


def test_states_are_built_in_one_place():
    """Only `scene` and `statecodec` call EnvState, GripperState or
    ObjectState, so a third way to build states from arrays cannot come
    back unnoticed."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in STATE_BUILDERS:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("EnvState", "GripperState", "ObjectState"):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"states built outside {sorted(STATE_BUILDERS)}: {found}"


def test_skill_controller_has_one_driver():
    """Only `playsys` builds a SkillController. Its `execute` checks success
    before every call of the controller's `action`, which has no success
    check of its own, so a second driver would run it past success."""
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "perfbench").glob("*.py")):
        if path.name == "playsys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "SkillController":
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"SkillController built outside playsys.py: {found}"


# Values a caller can set: defaulted fields of frozen dataclasses (configs)
# and defaulted parameters of public functions and methods. A change that
# needs another option raises this pin and says why in CHANGES.md; one that
# removes options lowers it.
SETTABLE_VALUES = 65


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(kw.arg == "frozen" and getattr(kw.value, "value", False) is True
                       for kw in d.keywords)
               for d in node.decorator_list)


def _settable_values() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                found += [f"{path.stem}.{node.name}.{item.target.id}" for item in node.body
                          if isinstance(item, ast.AnnAssign) and item.value is not None]
            elif isinstance(node, ast.FunctionDef) and (node.name == "__init__"
                                                        or not node.name.startswith("_")):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found += [f"{path.stem}.{node.name}({a.arg})" for a in defaulted]
    return found


def test_settable_values_are_pinned():
    """The number of values a caller can set in src/playwm only moves with
    its pin: every option is a branch that some test must cover."""
    found = _settable_values()
    assert len(found) == SETTABLE_VALUES, \
        f"{len(found)} settable values in src/playwm, pinned at {SETTABLE_VALUES}: {found}"


def test_every_dataclass_default_is_taken():
    """Each defaulted field of a frozen dataclass in src/playwm is left out
    by at least one constructor call of its class (called by name) in
    src/, perfbench/ or tests/; a call with * or ** counts as leaving every
    field out. A default that every call overrides is a value no caller
    takes."""
    root = SRC.parents[1]
    classes = {}  # class name -> (module, field names in order, defaulted field names)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                items = [item for item in node.body
                         if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                classes[node.name] = (path.stem, [item.target.id for item in items],
                                      {item.target.id for item in items if item.value is not None})
    omitted = {name: set() for name in classes}
    for folder in ("src", "perfbench", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name not in classes:
                    continue
                _, fields, defaulted = classes[name]
                if any(isinstance(arg, ast.Starred) for arg in node.args) \
                        or any(kw.arg is None for kw in node.keywords):
                    omitted[name] |= defaulted
                else:
                    given = set(fields[:len(node.args)]) | {kw.arg for kw in node.keywords}
                    omitted[name] |= defaulted - given
    untaken = [f"{module}.{name}.{field}" for name, (module, _, defaulted) in classes.items()
               for field in sorted(defaulted - omitted[name])]
    assert not untaken, f"defaulted dataclass fields that every constructor call sets: " \
                        f"{untaken}; drop the default, or make the value a module constant"


# A ceiling on the lines of src/playwm/*.py, as `wc -l` counts them. A change
# that needs more raises it and says why in CHANGES.md; one that removes
# lines lowers it to the new count.
PACKAGE_LINES = 4855


def test_package_lines_are_capped():
    """The package's size is a tracked number: it grows only with its pin."""
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= PACKAGE_LINES, \
        f"{lines} lines in src/playwm/*.py, over the ceiling of {PACKAGE_LINES}"


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
    "statecodec.encode_state",
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


def _fields(root: pathlib.Path) -> dict[str, set[str]]:
    """The annotated field names of each class in src/playwm, by class name."""
    return {node.name: {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
            for path in sorted((root / "src" / "playwm").glob("*.py"))
            for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, ast.ClassDef)}


def _copies(tree: ast.AST, fields: dict[str, set[str]]) -> set[int]:
    """The ids of attribute loads `x.name` passed straight into a call of a
    class that declares a field `name`, such as `EnvState(..., s.name)`:
    such a load copies the field into the new object, it does not read it."""
    copies = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        cls = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = node.args + [kw.value for kw in node.keywords]
        copies.update(id(arg) for arg in args if isinstance(arg, ast.Attribute)
                      and arg.attr in fields.get(cls, ()))
    return copies


def _references(root: pathlib.Path, folder: str,
                fields: dict[str, set[str]]) -> tuple[set[str], set[str]]:
    """The names that the Python files under root/folder read: (bare names
    and by-name imports, attribute loads `x.name` other than field copies)."""
    names, attrs = set(), set()
    for path in sorted((root / folder).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        copies = _copies(tree, fields)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                    and id(node) not in copies:
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def test_every_package_name_is_referenced():
    """Each function, class and constant in src/playwm is read somewhere in
    the package or the benchmark, and so is each method, property and
    annotated field of its classes. A class member counts as read only
    through an attribute load `x.name`: a local variable or parameter of
    the same name does not keep a dead member alive, and neither does a
    load passed straight into a constructor that declares a field of that
    name, which only copies the value along. A name that nothing
    refers to is dead code, and so is one that only tests read, unless it
    is a scalar reference that tests check an array twin against."""
    root = SRC.parents[1]
    fields = _fields(root)
    src_names, src_attrs = _references(root, "src", fields)
    bench_names, bench_attrs = _references(root, "perfbench", fields)
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
    tested = set.union(*_references(root, "tests", fields))
    untested = [qual for qual in REFERENCES if qual.rsplit(".", 1)[1] not in tested]
    assert not untested, f"REFERENCES names that no test reads: {untested}"
