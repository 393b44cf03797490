"""The package ships only what a run calls.

Every function, method and class defined in ``src/sushi`` must be referenced
from the package itself (``__init__`` excluded, as a re-export is not a use)
or from the benchmark in ``perfbench/``.  A reference is a name, an
attribute or an import; a mention in a docstring or a comment is not.
Oracles that only the tests use live in ``tests/oracles.py``.

A reference is matched by bare name, so it cannot tell apart two
definitions, or a definition and a field, that share a name.  A function,
method or property may therefore share its name only when it is listed in
``SHARED``, by the owner that is used and with where it is used.

Every field of a dataclass must likewise be read as an attribute by the
package or by the benchmark, or be listed in ``UNREAD_FIELDS`` with the
reason it is kept.

Every parameter of a module-level function or method that the package or
the benchmark calls by name must be passed by one of those calls, or be
listed in ``UNPASSED_PARAMETERS`` with the reason it is kept.  A function
only referenced as a value (a user field, a dispatch table entry) is not
checked.  Every exception type of ``errors.py`` must be named by another
module of the package, and only ``run.py`` may name a ``gen_*`` mesh
generator, so that its table stays the one list of mesh kinds.

No two modules of the package may share two consecutive code lines, so
that each formula lives in one place.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sushi"

# Public names kept though no run calls them.
ALLOWED = {
    "theta_DB": "the regularity measure with the weight spread, reported by the roadmap",
    "from_callable": "the README documents it for user tensor fields",
}

# Definitions, as module.owner.name, whose name is also a field or another
# definition of src/sushi.
SHARED = {
    "spaces.UnknownNumbering.n": "read as numbering.n by assemble and face_expansions",
    "assembly.LinearSystem.n": "read as system.n by the solvers, the CLI and perfbench",
    "geometry.Mesh.n_cells": "read as mesh.n_cells throughout; UnknownNumbering and "
                             "_CellElimination have an n_cells field",
    "postproc.seminorm_x": "called by error_norms to fill the ErrorReport field of its name",
}

# Dataclass fields, as module.class.field, that neither the package nor the
# benchmark reads as an attribute.
_MANIFEST = "written to manifest.json whole, by dataclasses.asdict"
_REPLICA = "perfbench's replica of cmd_solve constructs RunResult with it"
_TIMINGS = "kept for the timings.json side file of ROADMAP item 2"
UNREAD_FIELDS = {
    "postproc.ErrorReport.eps_u_rel": _MANIFEST,
    "postproc.ErrorReport.eps_grad_rel": _MANIFEST,
    "postproc.ErrorReport.eps_grad_stab": _MANIFEST,
    "postproc.ErrorReport.seminorm_x": _MANIFEST,
    "postproc.ErrorReport.norm_12m": _MANIFEST,
    "run.RunResult.weights": _REPLICA,
    "run.RunResult.tensor": _REPLICA,
    "run.RunResult.solution": _REPLICA,
    "solver.SolveReport.wall_time": _TIMINGS,
    "solver.SolveReport.residual_history": _TIMINGS,
}

# Parameters, as module.function.name or module.class.method.name, that no
# call of the package or the benchmark passes.
UNPASSED_PARAMETERS = {
    "solver.solve_cg.max_iters": "the test seam of the 10 n iteration cap, which stagnation "
                                 "detection reaches first on every benchmark case",
}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _definitions(tree):
    """``(name, line)`` of every function, method and class, dunders excluded:
    Python calls those itself."""
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _members(path, tree):
    """``(qualified name, name, is_definition)`` of every module-level function
    and class and of every method, property and field of a class, dunders
    excluded: the names a caller reaches as ``name`` or ``obj.name``."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{path.stem}.{node.name}", node.name, True
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, defs):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign):
                names = [getattr(item.target, "id", None)]
            elif isinstance(item, ast.Assign):
                names = [getattr(t, "id", None) for t in item.targets]
            else:
                names = []
            for name in names:
                if name and not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.stem}.{node.name}.{name}", name, isinstance(item, defs)


def _shared_definitions(paths):
    """Qualified names of the definitions whose name another member also has."""
    members = [m for p, tree in zip(paths, _trees(paths)) for m in _members(p, tree)]
    count = Counter(name for _, name, _ in members)
    return {qual for qual, name, is_def in members if is_def and count[name] > 1}


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields(path, tree):
    """``(qualified name, name)`` of every field of a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{path.stem}.{node.name}.{item.target.id}", item.target.id


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _users():
    """The package, ``__init__`` excluded, and the benchmark."""
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted(ROOT.glob("perfbench/*.py")))


def _references(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def test_every_definition_has_a_caller_outside_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    referenced = set().union(*map(_references, _trees(_users())))
    unused = [f"{path.name}:{line} {name}"
              for path, tree in zip(modules, _trees(modules))
              for name, line in _definitions(tree)
              if name not in referenced and name not in ALLOWED]
    assert not unused, "defined in src/sushi but called only from tests: " + ", ".join(unused)


def test_allowed_names_are_still_defined():
    defined = {name for tree in _trees(PACKAGE.glob("*.py")) for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def test_no_definition_shares_its_name_unlisted():
    shared = _shared_definitions(sorted(PACKAGE.glob("*.py")))
    unlisted = sorted(shared - set(SHARED))
    assert not unlisted, ("a definition of src/sushi shares its name with a field or another "
                          "definition: " + ", ".join(unlisted))
    # every entry still names a definition whose name is shared
    assert set(SHARED) <= shared


def test_every_dataclass_field_is_read_outside_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    read = set().union(*map(_attribute_reads, _trees(_users())))
    fields = [qual for path, tree in zip(modules, _trees(modules))
              for qual, name in _dataclass_fields(path, tree)
              if name not in read]
    unread = sorted(set(fields) - set(UNREAD_FIELDS))
    assert not unread, "dataclass fields that only tests read: " + ", ".join(unread)
    # every entry still names a field that nothing reads
    assert set(UNREAD_FIELDS) <= set(fields)


def _functions(path, tree):
    """``(qualified name, node, implicit)`` of every module-level function and
    method, dunders excluded; ``implicit`` is 1 where a call binds the first
    parameter itself (``self`` or ``cls``)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{path.stem}.{node.name}", node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{path.stem}.{node.name}.{item.name}", item, 0 if static else 1


def _external(tree):
    """Names a module binds by importing from outside the package and the
    benchmark: a call through them is not a call of a definition here."""
    local = {"sushi"} | {p.stem for p in ROOT.glob("perfbench/*.py")}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0
                                            and node.module.split(".")[0] not in local):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _calls(trees):
    """Every call by name or attribute, import aliases resolved, as
    ``name -> [ast.Call]``."""
    aliases = {alias.asname: alias.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    calls = {}
    for tree in trees:
        external = _external(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id not in external:
                calls.setdefault(aliases.get(func.id, func.id), []).append(node)
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in external:
                calls.setdefault(func.attr, []).append(node)
    return calls


def _passed(call, args, implicit):
    """Names of the parameters ``args`` (an ``ast.arguments``) that ``call``
    passes, the first ``implicit`` ones bound by the call itself."""
    positional = [a.arg for a in args.posonlyargs + args.args][implicit:]
    keywords = positional + [a.arg for a in args.kwonlyargs]
    star = any(isinstance(a, ast.Starred) for a in call.args)
    passed = set(positional if star else positional[:len(call.args)])
    if args.vararg and (star or len(call.args) > len(positional)):
        passed.add(args.vararg.arg)
    for k in call.keywords:
        passed.update(keywords if k.arg is None else {k.arg} & set(keywords))
        if args.kwarg and k.arg not in keywords:  # None: a **mapping
            passed.add(args.kwarg.arg)
    return passed


def _unpassed_parameters():
    """``module.function.parameter`` of every parameter of a function that the
    package or the benchmark calls by name, and that none of those calls passes."""
    calls = _calls(_trees(_users()))
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path, tree in zip(modules, _trees(modules)):
        for qual, node, implicit in _functions(path, tree):
            if node.name not in calls:
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
                      if p is not None][implicit:]
            passed = set().union(*(_passed(c, a, implicit) for c in calls[node.name]))
            yield from (f"{qual}.{p}" for p in params if p not in passed)


def test_every_parameter_is_passed_outside_tests():
    unpassed = sorted(_unpassed_parameters())
    unlisted = [q.rpartition(".") for q in unpassed if q not in UNPASSED_PARAMETERS]
    assert not unlisted, ("parameters that no call of the package or the benchmark passes: "
                          + ", ".join(f"{function}({param})" for function, _, param in unlisted))
    # every entry still names a parameter that nothing passes
    assert set(UNPASSED_PARAMETERS) <= set(unpassed)


def test_every_error_type_is_named_by_another_module():
    errors = PACKAGE / "errors.py"
    others = [p for p in sorted(PACKAGE.glob("*.py")) if p.name not in ("__init__.py", errors.name)]
    named = set().union(*map(_references, _trees(others)))
    unnamed = [name for name, _ in _definitions(*_trees([errors])) if name not in named]
    assert not unnamed, "error types that no other module of src/sushi names: " + ", ".join(unnamed)


def test_only_run_names_the_mesh_generators():
    # the generator table of parse_mesh_spec is the one list of mesh kinds;
    # another module reaches a generated mesh through a spec
    generators = {name for name, _ in _definitions(*_trees([PACKAGE / "generators.py"]))
                  if name.startswith("gen_")}
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    naming = [p.name for p, tree in zip(modules, _trees(modules))
              if _references(tree) & generators]
    assert naming == ["run.py"], "modules that name a gen_* generator: " + ", ".join(naming)


# Code lines shorter than this are too common to tell a copy by.
COPY_MIN_CHARS = 30


def _code_lines(path):
    """``(line number, stripped text)`` of the code lines of ``path``, in
    order: imports, docstrings, comments, blank lines and lines under
    ``COPY_MIN_CHARS`` characters left out."""
    text = path.read_text(encoding="utf-8")
    skipped = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    lines = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
             if number not in skipped]
    return [(number, line) for number, line in lines
            if len(line) >= COPY_MIN_CHARS and not line.startswith("#")]


def test_no_two_modules_share_two_consecutive_code_lines():
    first = {}
    copies = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _code_lines(path)
        for (number, line), (_, following) in zip(lines, lines[1:]):
            name, at = first.setdefault((line, following), (path.name, number))
            if name != path.name:
                copies.append(f"{name}:{at} and {path.name}:{number} ({line})")
    assert not copies, "code lines copied between modules of src/sushi: " + "; ".join(copies)
