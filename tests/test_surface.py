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
    "problems.ProblemSpec.name": "a descriptor's label",
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
