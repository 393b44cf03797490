"""The package ships only what a run calls.

Every function, method and class defined in ``src/sushi`` must be referenced
from the package itself (``__init__`` excluded, as a re-export is not a use)
or from the benchmark in ``perfbench/``.  A reference is a name, an
attribute or an import; a mention in a docstring or a comment is not.
Oracles that only the tests use live in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sushi"

# Public names kept though no run calls them.
ALLOWED = {
    "theta_DB": "the regularity measure with the weight spread, reported by the roadmap",
    "from_callable": "the README documents it for user tensor fields",
}


def _trees(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def _definitions(tree):
    """``(name, line)`` of every function, method and class, dunders excluded:
    Python calls those itself."""
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


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
    users = [p for p in modules if p.name != "__init__.py"] + sorted(ROOT.glob("perfbench/*.py"))
    referenced = set().union(*map(_references, _trees(users)))
    unused = [f"{path.name}:{line} {name}"
              for path, tree in zip(modules, _trees(modules))
              for name, line in _definitions(tree)
              if name not in referenced and name not in ALLOWED]
    assert not unused, "defined in src/sushi but called only from tests: " + ", ".join(unused)


def test_allowed_names_are_still_defined():
    defined = {name for tree in _trees(PACKAGE.glob("*.py")) for name, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined
