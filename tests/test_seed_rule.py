"""One seed rule in src/: every random draw of the package takes its seed
from `fields.sub_seed(...)`, never from arithmetic on a seed, so that no
two families of draws can come to share one."""

import ast
from pathlib import Path

import stburgers

SRC = Path(stburgers.__file__).resolve().parent

DRAWS = {"random_field", "default_rng"}
# (module, function, draw) of the draws that take a seed as it is given:
# the one generator that turns a derived seed into numbers
EXEMPT = {("fields", "random_field", "default_rng")}


def _called(call: ast.Call) -> str | None:
    """The name a call calls, bare or as an attribute."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def unkeyed_draws(src: Path) -> list[str]:
    """`module:line` of each call of a draw in the modules of `src` whose
    first argument is not a `sub_seed(...)` call, outside EXEMPT."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and (path.stem, fn.name, _called(node)) in EXEMPT
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or _called(node) not in DRAWS or id(node) in exempt:
                continue
            first = node.args[0] if node.args else None
            if not (isinstance(first, ast.Call) and _called(first) == "sub_seed"):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_every_draw_in_src_is_keyed_by_sub_seed():
    assert unkeyed_draws(SRC) == []


def test_the_guard_finds_arithmetic_on_a_seed(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from . import fields as fd\n\n"
        "def draws(seed):\n"
        "    f = fd.random_field(seed + 1, 4, 4, 2.0)\n"
        "    g = random_field(sub_seed(seed, 1), 4, 4, 2.0)\n"
        "    rng = np.random.default_rng(seed)\n"
        "    k = np.random.default_rng(fd.sub_seed(seed, 2, 0))\n"
        "    return random_field(seed=seed, n_t=4, n_x=4, decay=2.0)\n\n"
        "def random_field(seed):\n"
        "    return np.random.default_rng(seed + 2)\n"
    )
    # the exemption is fields.random_field's alone
    assert unkeyed_draws(tmp_path) == ["a:5", "a:7", "a:9", "a:12"]
