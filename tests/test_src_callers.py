"""Nothing in src/ that only the tests call: every public module-level
function and class of the package is named somewhere else in src/."""

import ast
from pathlib import Path

import stburgers

SRC = Path(stburgers.__file__).resolve().parent

# public names kept although nothing in src/ names them, with the reason
CALLED_FROM_OUTSIDE = {
    ("solver", "solve_linear"): "bench/workloads.py calls it",
}


def _names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier that `tree` names (variables, attributes and
    imports), outside the subtree `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled_public_names(src: Path) -> list[tuple[str, str]]:
    """(module, name) of each public module-level def or class of the
    modules in `src` whose name appears in no other module (the package
    `__init__` does not count) and nowhere in its own module outside its
    definition."""
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    elsewhere = {module: set() for module in trees}
    for module, tree in trees.items():
        names = _names(tree)
        for other in trees:
            if other != module:
                elsewhere[other] |= names
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in elsewhere[module]:
                continue
            if node.name not in _names(tree, skip=node):
                uncalled.append((module, node.name))
    return uncalled


def test_every_public_name_in_src_has_a_caller_in_src():
    found = uncalled_public_names(SRC)
    uncalled = [key for key in found if key not in CALLED_FROM_OUTSIDE]
    assert not uncalled, "only tests call " + ", ".join(f"{m}.{n}" for m, n in uncalled)
    # an exception that src/ has come to call is no longer one
    assert set(CALLED_FROM_OUTSIDE) <= set(found)


def test_the_guard_finds_a_function_that_nothing_calls(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import orphan, used, Record\n")
    (tmp_path / "a.py").write_text(
        "def orphan():\n    return orphan()\n\n"
        "def used():\n    return 1\n\n"
        "class Record:\n    pass\n\n"
        "def _private():\n    return Record()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nx = a.used()\n")
    assert uncalled_public_names(tmp_path) == [("a", "orphan")]
